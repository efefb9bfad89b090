open Dpc_ndlog

type instance = {
  delp : Delp.t;
  nodes : int;
  slow_tuples : Tuple.t list;
  events : Tuple.t list;
  description : string;
}

(* Small domains keep join hit rates high and duplicate events likely. *)
let node_count = 4
let int_domain = 3

(* A generated slow atom: its AST plus which positions are address-typed
   (position 0 always; the last position when the atom relocates the
   head). *)
type slow_spec = { atom : Ast.atom; addr_positions : int list }

let fresh =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Printf.sprintf "%s%d" prefix !counter

let gen_rule ~rng ~index ~event_rel ~event_arity =
  let loc_var = fresh "L" in
  let event_vars = loc_var :: List.init (event_arity - 1) (fun _ -> fresh "V") in
  let event =
    { Ast.rel = event_rel; args = List.map (fun v -> Ast.Var v) event_vars }
  in
  let int_event_vars = List.tl event_vars in
  let pick_int_var () =
    List.nth int_event_vars (Dpc_util.Rng.int rng (List.length int_event_vars))
  in
  (* Slow-changing condition atoms; the first may relocate the head. *)
  let n_slow = Dpc_util.Rng.int rng 3 in
  let mover = n_slow > 0 && Dpc_util.Rng.float rng 1.0 < 0.7 in
  let slow_specs =
    List.init n_slow (fun j ->
      let relocates = mover && j = 0 in
      let rel = fresh (Printf.sprintf "s%d_" index) in
      let middle_arity = Dpc_util.Rng.int rng 2 in
      let middle =
        List.init middle_arity (fun _ ->
          if Dpc_util.Rng.float rng 1.0 < 0.7 && int_event_vars <> [] then
            Ast.Var (pick_int_var ())
          else Ast.Var (fresh "W"))
      in
      let tail = if relocates then [ Ast.Var (fresh "N") ] else [ Ast.Var (fresh "W") ] in
      let args = Ast.Var loc_var :: (middle @ tail) in
      let addr_positions = if relocates then [ 0; List.length args - 1 ] else [ 0 ] in
      { atom = { Ast.rel; args }; addr_positions })
  in
  let cmp_conds =
    if int_event_vars <> [] && Dpc_util.Rng.float rng 1.0 < 0.4 then
      (* Always true on the non-negative domain; exercises comparison
         handling and marks the variable's attribute as a key. *)
      [ Ast.C_cmp (Ast.Geq, Ast.E_var (pick_int_var ()), Ast.E_const (Value.Int 0)) ]
    else []
  in
  let assign_conds, assigned =
    if int_event_vars <> [] && Dpc_util.Rng.float rng 1.0 < 0.4 then begin
      let a = fresh "A" in
      ( [ Ast.C_assign
            (a, Ast.E_binop (Ast.Add, Ast.E_var (pick_int_var ()),
                             Ast.E_const (Value.Int (Dpc_util.Rng.int rng int_domain)))) ],
        [ a ] )
    end
    else ([], [])
  in
  (* Head: located at the mover's address variable, or locally. *)
  let head_loc =
    if mover then
      match List.hd slow_specs with
      | { atom = { Ast.args; _ }; _ } -> begin
          match List.nth args (List.length args - 1) with
          | Ast.Var n -> n
          | Ast.Const _ -> assert false
        end
    else loc_var
  in
  let slow_int_vars =
    List.concat_map
      (fun spec ->
        List.filteri (fun i _ -> not (List.mem i spec.addr_positions)) spec.atom.args
        |> List.filter_map (function Ast.Var v -> Some v | Ast.Const _ -> None))
      slow_specs
  in
  let head_pool = int_event_vars @ slow_int_vars @ assigned in
  let head_arity = 1 + 1 + Dpc_util.Rng.int rng 3 in
  let head_args =
    Ast.Var head_loc
    :: List.init (head_arity - 1) (fun _ ->
         if head_pool = [] || Dpc_util.Rng.float rng 1.0 < 0.15 then
           Ast.Const (Value.Int (Dpc_util.Rng.int rng int_domain))
         else Ast.Var (List.nth head_pool (Dpc_util.Rng.int rng (List.length head_pool))))
  in
  let head = { Ast.rel = Printf.sprintf "h%d" index; args = head_args } in
  let conds =
    List.map (fun spec -> Ast.C_atom spec.atom) slow_specs @ cmp_conds @ assign_conds
  in
  ({ Ast.name = Printf.sprintf "r%d" index; head; event; conds }, slow_specs)

let gen_slow_tuples ~rng specs =
  List.concat
    (List.mapi
       (fun j spec ->
      let arity = List.length spec.atom.args in
      List.concat_map
        (fun node ->
          (* Only the first slow atom may carry two tuples per node
             (branching derivations); the rest carry one, bounding the
             per-event fan-out well below the query caps. *)
          let count = if j = 0 then 1 + Dpc_util.Rng.int rng 2 else 1 in
          List.init count (fun _ ->
            let args =
              List.init arity (fun i ->
                if i = 0 then Value.Addr node
                else if List.mem i spec.addr_positions then
                  Value.Addr (Dpc_util.Rng.int rng node_count)
                else Value.Int (Dpc_util.Rng.int rng int_domain))
            in
            Tuple.make spec.atom.rel args))
        (List.init node_count (fun i -> i)))
       specs)

let gen_events ~rng ~event_rel ~event_arity =
  let count = 6 + Dpc_util.Rng.int rng 5 in
  List.init count (fun _ ->
    let args =
      List.init event_arity (fun i ->
        if i = 0 then Value.Addr (Dpc_util.Rng.int rng node_count)
        else Value.Int (Dpc_util.Rng.int rng int_domain))
    in
    Tuple.make event_rel args)

let generate ~rng =
  let n_rules = 1 + Dpc_util.Rng.int rng 3 in
  let event_arity = 2 + Dpc_util.Rng.int rng 3 in
  let rec build index event_rel event_arity acc_rules acc_specs =
    if index > n_rules then (List.rev acc_rules, List.concat (List.rev acc_specs))
    else begin
      let rule, specs = gen_rule ~rng ~index ~event_rel ~event_arity in
      build (index + 1) rule.head.rel (List.length rule.head.args) (rule :: acc_rules)
        (specs :: acc_specs)
    end
  in
  let rules, specs = build 1 "ev" event_arity [] [] in
  let program = { Ast.prog_name = "generated"; rules } in
  let delp =
    match Delp.For_testing.validate program with
    | Ok d -> d
    | Error e ->
        failwith
          (Printf.sprintf "Delp_gen.generate produced an invalid program (%s):\n%s"
             (Delp.For_testing.error_to_string e)
             (Pretty.program_to_string program))
  in
  {
    delp;
    nodes = node_count;
    slow_tuples = gen_slow_tuples ~rng specs;
    events = gen_events ~rng ~event_rel:"ev" ~event_arity;
    description = Pretty.program_to_string program;
  }

type world = {
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
}

let build_world ?transport ?reliable instance scheme =
  let topo = Dpc_net.Topology.create ~n:instance.nodes in
  let link = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e8 } in
  for a = 0 to instance.nodes - 1 do
    for b = a + 1 to instance.nodes - 1 do
      Dpc_net.Topology.add_link topo a b link
    done
  done;
  let routing = Dpc_net.Routing.compute topo in
  let transport =
    match transport with
    | Some tr ->
        if Dpc_net.Transport.nodes tr <> instance.nodes then
          invalid_arg
            (Printf.sprintf "Delp_gen.build_world: %d-node transport for a %d-node instance"
               (Dpc_net.Transport.nodes tr) instance.nodes);
        tr
    | None -> Dpc_net.Transport.of_sim (Dpc_net.Sim.create ~topology:topo ~routing ())
  in
  let backend =
    Dpc_core.Backend.make scheme ~delp:instance.delp ~env:Dpc_engine.Env.empty
      ~nodes:instance.nodes
  in
  let runtime =
    Dpc_engine.Runtime.create ~transport ?reliable ~delp:instance.delp
      ~env:Dpc_engine.Env.empty ~hook:(Dpc_core.Backend.hook backend)
      ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime instance.slow_tuples;
  { runtime; backend; routing }

let run_events ?(spacing = 0.0) world events =
  List.iteri
    (fun i ev -> Dpc_engine.Runtime.inject world.runtime ~delay:(float_of_int i *. spacing) ev)
    events;
  Dpc_engine.Runtime.run world.runtime

let queryable runtime =
  List.map
    (fun (out, (meta : Dpc_engine.Prov_hook.meta)) -> (out, meta.evid))
    (Dpc_engine.Runtime.outputs runtime)
  |> List.sort_uniq (fun (a, e) (b, f) ->
       match Tuple.compare a b with 0 -> Dpc_util.Sha1.compare e f | c -> c)

let mutate_non_keys ~rng ~keys event =
  let key_positions = Dpc_analysis.Equi_keys.For_testing.keys keys in
  let args =
    Array.to_list
      (Array.mapi
         (fun i v ->
           if List.mem i key_positions then v
           else
             match v with
             | Value.Int _ -> Value.Int (int_domain + Dpc_util.Rng.int rng int_domain)
             | Value.Str _ | Value.Bool _ | Value.Addr _ -> v)
         (Tuple.args event))
  in
  Tuple.make (Tuple.rel event) args

let rec tree_shape (tree : Dpc_core.Prov_tree.t) =
  let slow = String.concat "," (List.map Tuple.canonical (Dpc_core.Prov_tree.slow tree)) in
  let rest = match tree with Event _ -> "<event>" | Derived { sub; _ } -> tree_shape sub in
  Printf.sprintf "%s[%s];%s" (Dpc_core.Prov_tree.rule tree) slow rest
