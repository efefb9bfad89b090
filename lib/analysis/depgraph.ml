open Dpc_ndlog

type attr = { rel : string; idx : int }

let attr_to_string a = Printf.sprintf "%s:%d" a.rel a.idx
let compare_attr (a : attr) b = Stdlib.compare (a.rel, a.idx) (b.rel, b.idx)

type t = {
  adjacency : (attr, attr list ref) Hashtbl.t;
  anchor_set : (attr, unit) Hashtbl.t;
}

let ensure_vertex g v =
  if not (Hashtbl.mem g.adjacency v) then Hashtbl.add g.adjacency v (ref [])

let add_edge g a b =
  if compare_attr a b <> 0 then begin
    ensure_vertex g a;
    ensure_vertex g b;
    let push v w =
      let l = Hashtbl.find g.adjacency v in
      if not (List.exists (fun x -> compare_attr x w = 0) !l) then l := w :: !l
    in
    push a b;
    push b a
  end

let mark_anchor g v =
  ensure_vertex g v;
  Hashtbl.replace g.anchor_set v ()

(* All (attr, var) occurrences of an atom. *)
let occurrences (a : Ast.atom) =
  List.filteri (fun _ _ -> true) a.args
  |> List.mapi (fun i t -> (i, t))
  |> List.filter_map (function
       | i, Ast.Var v -> Some ({ rel = a.rel; idx = i }, v)
       | _, Ast.Const _ -> None)

let build (delp : Delp.t) =
  let g = { adjacency = Hashtbl.create 64; anchor_set = Hashtbl.create 16 } in
  List.iter
    (fun (r : Ast.rule) ->
      let ev_occ = occurrences r.event in
      let head_occ = occurrences r.head in
      let slow_atoms =
        List.filter_map
          (function Ast.C_atom a -> Some a | Ast.C_cmp _ | Ast.C_assign _ -> None)
          r.conds
      in
      let all_occ =
        ev_occ @ head_occ @ List.concat_map occurrences slow_atoms
      in
      (* Register every attribute as a vertex even if isolated. *)
      List.iter (fun (a, _) -> ensure_vertex g a) all_occ;
      let event_positions_of v =
        List.filter_map
          (fun (a, w) -> if String.equal v w then Some a else None)
          ev_occ
      in
      (* Condition 1: event attr joins a slow-changing attr of the same
         variable; the slow attribute is an anchor. *)
      List.iter
        (fun slow_atom ->
          List.iter
            (fun (sa, v) ->
              mark_anchor g sa;
              List.iter (fun ea -> add_edge g ea sa) (event_positions_of v))
            (occurrences slow_atom))
        slow_atoms;
      (* Condition 2: event attr connects to a head attr of the same
         variable. *)
      List.iter
        (fun (ha, v) -> List.iter (fun ea -> add_edge g ea ha) (event_positions_of v))
        head_occ;
      List.iter
        (function
          | Ast.C_atom _ -> ()
          | Ast.C_cmp (_, lhs, rhs) ->
              (* Condition 3: attributes whose variables appear in the same
                 comparison atom are connected, and (appendix JOIN-ARITH)
                 every participating attribute is an anchor. *)
              let vs = Ast.expr_vars lhs @ Ast.expr_vars rhs in
              let participating =
                List.filter (fun (_, v) -> List.mem v vs) all_occ |> List.map fst
              in
              List.iter (mark_anchor g) participating;
              let ev_participants =
                List.concat_map (fun v -> event_positions_of v) vs
              in
              List.iter
                (fun ea -> List.iter (fun other -> add_edge g ea other) participating)
                ev_participants
          | Ast.C_assign (x, e) ->
              (* Condition 4: RHS event attrs connect to the head attrs
                 holding the assigned variable. *)
              let targets =
                List.filter_map
                  (fun (ha, v) -> if String.equal v x then Some ha else None)
                  head_occ
              in
              List.iter
                (fun v ->
                  List.iter
                    (fun ea -> List.iter (fun ha -> add_edge g ea ha) targets)
                    (event_positions_of v))
                (Ast.expr_vars e))
        r.conds)
    delp.program.rules;
  g

let vertices g =
  Hashtbl.fold (fun v _ acc -> v :: acc) g.adjacency [] |> List.sort compare_attr

let neighbors g v =
  match Hashtbl.find_opt g.adjacency v with
  | None -> []
  | Some l -> List.sort compare_attr !l

let edges g =
  List.concat_map
    (fun v -> List.filter_map (fun w -> if compare_attr v w < 0 then Some (v, w) else None)
                (neighbors g v))
    (vertices g)

let is_anchor g v = Hashtbl.mem g.anchor_set v

let bfs g start ~stop =
  let visited = Hashtbl.create 16 in
  let rec go = function
    | [] -> false
    | v :: rest ->
        if Hashtbl.mem visited v then go rest
        else begin
          Hashtbl.add visited v ();
          if stop v then true
          else go (List.rev_append (neighbors g v) rest)
        end
  in
  go [ start ]

let reachable g a b = bfs g a ~stop:(fun v -> compare_attr v b = 0)
let reaches_anchor g a = bfs g a ~stop:(fun v -> is_anchor g v)

let pp fmt g =
  Format.fprintf fmt "@[<v>vertices:";
  List.iter
    (fun v ->
      Format.fprintf fmt "@,  %s%s" (attr_to_string v) (if is_anchor g v then " [anchor]" else ""))
    (vertices g);
  Format.fprintf fmt "@,edges:";
  List.iter
    (fun (a, b) -> Format.fprintf fmt "@,  %s -- %s" (attr_to_string a) (attr_to_string b))
    (edges g);
  Format.fprintf fmt "@]"

module For_testing = struct
  let neighbors = neighbors
  let reachable = reachable
end
