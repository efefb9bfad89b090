open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node

(* The sharing key is alpha-insensitive: variables are renamed to their
   order of first occurrence, so two programs whose rules differ only in
   variable names (and the rule name) still share rows. *)
let rule_signature (r : Ast.rule) =
  let ordered = Ast.rule_vars_in_order r in
  let renaming = List.mapi (fun i v -> (v, Printf.sprintf "X%d" i)) ordered in
  let rename v = match List.assoc_opt v renaming with Some v' -> v' | None -> v in
  Pretty.rule_to_string (Ast.map_rule_vars rename { r with name = "sig" })

(* Shared across programs: concrete rule-execution node rows and the
   slow-tuple materialization (both content-addressed). *)
type shared_state = {
  exec_nodes : Rows.rule_exec_row Rows.Table.t;  (* keyed by rid hex *)
  slow_tuples : Side_store.t;
}

(* Private to one program at one node. *)
type private_state = {
  prov : Rows.prov_row Rows.Table.t;
  exec_links : Rows.link_row Rows.Table.t;
  htequi : (string, unit) Hashtbl.t;
  hmap : (string, (int * Sha1.t) list ref) Hashtbl.t;
  mutable hmap_refs : int;  (* total chain roots across hmap, for O(1) storage *)
  events : Side_store.t;  (* evid -> input event at ingress *)
}

type t = {
  cluster : Node.t array;
  shared_key : shared_state Node.key;
  mutable program_ids : string list;
  mutable program_storages : (unit -> Rows.storage) list;
  (* Signatures are interned to short ids so shared rows cost the same as
     single-program rows (which store rule names, not rule text). *)
  sig_ids : (string, string) Hashtbl.t;  (* signature -> "g<n>" *)
  sig_of_id : (string, string) Hashtbl.t;
}

type handle = {
  store : t;
  id : string;
  delp : Delp.t;
  keys : Dpc_analysis.Equi_keys.t;
  private_key : private_state Node.key;
  signatures : (string, Dpc_engine.Eval.plan) Hashtbl.t;
      (* signature -> this program's rule, compiled *)
}

let create ~nodes =
  {
    cluster = Node.cluster nodes;
    shared_key = Node.key ~name:"store.multi.shared" ();
    program_ids = [];
    program_storages = [];
    sig_ids = Hashtbl.create 16;
    sig_of_id = Hashtbl.create 16;
  }

let nodes t = t.cluster

let shared t node =
  Node.get_or_init t.cluster.(node) t.shared_key ~init:(fun () ->
    {
      exec_nodes = Rows.Table.create ~row_bytes:(Rows.rule_exec_row_bytes ~with_next:false) ();
      slow_tuples = Side_store.create ();
    })

let priv h node =
  Node.get_or_init h.store.cluster.(node) h.private_key ~init:(fun () ->
    {
      prov = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) ();
      exec_links = Rows.Table.create ~row_bytes:Rows.link_row_bytes ();
      htequi = Hashtbl.create 16;
      hmap = Hashtbl.create 16;
      hmap_refs = 0;
      events = Side_store.create ();
    })

let tick t node name = Metrics.incr (Node.metrics t.cluster.(node)) name

let intern_signature t signature =
  match Hashtbl.find_opt t.sig_ids signature with
  | Some id -> id
  | None ->
      let id = Printf.sprintf "g%d" (Hashtbl.length t.sig_ids) in
      Hashtbl.add t.sig_ids signature id;
      Hashtbl.add t.sig_of_id id signature;
      id

let program_storage h =
  let acc = ref Rows.empty_storage in
  Array.iteri
    (fun node _ ->
      let p = priv h node in
      let equi =
        (Hashtbl.length p.htequi * 20)
        + (Hashtbl.length p.hmap * 20)
        + (p.hmap_refs * Rows.ref_bytes)
      in
      acc :=
        Rows.add_storage !acc
          {
            Rows.prov_bytes = Rows.Table.bytes p.prov;
            rule_exec_bytes = Rows.Table.bytes p.exec_links;
            equi_bytes = equi;
            event_bytes = Side_store.bytes p.events;
            prov_rows = Rows.Table.rows p.prov;
            rule_exec_rows = Rows.Table.rows p.exec_links;
          })
    h.store.cluster;
  !acc

let add_program t ~id ~delp ~env =
  if List.mem id t.program_ids then
    invalid_arg (Printf.sprintf "Store_multi.add_program: duplicate program id %S" id);
  t.program_ids <- id :: t.program_ids;
  let signatures = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.rule) ->
      Hashtbl.replace signatures (rule_signature r) (Dpc_engine.Eval.plan ~env r))
    delp.Delp.program.rules;
  let handle =
    {
      store = t;
      id;
      delp;
      keys = Dpc_analysis.Equi_keys.compute delp;
      private_key = Node.key ~name:("store.multi." ^ id) ();
      signatures;
    }
  in
  t.program_storages <- (fun () -> program_storage handle) :: t.program_storages;
  handle

(* The shared rid: rule content (not name, not program), executing node,
   slow-changing tuples. *)
let node_rid ~signature ~node ~slow_vids =
  Sha1.digest_concat (signature :: string_of_int node :: List.map Rows.hex slow_vids)

let on_input h ~node event =
  let meta = Dpc_engine.Prov_hook.initial_meta event in
  let k = Dpc_analysis.Equi_keys.key_hash h.keys event in
  let k_key = Rows.key k in
  let p = priv h node in
  let exist_flag = Hashtbl.mem p.htequi k_key in
  tick h.store node (if exist_flag then "store.equi_hits" else "store.equi_misses");
  if not exist_flag then Hashtbl.add p.htequi k_key ();
  Side_store.put p.events ~key:meta.evid event;
  { meta with exist_flag; eqkey = Some k }

let on_fire h ~node ~(rule : Ast.rule) ~slow (meta : Dpc_engine.Prov_hook.meta) =
  if meta.exist_flag then meta
  else begin
    let slow_vids = List.map Rows.vid_of slow in
    let sh = shared h.store node in
    List.iter2
      (fun tuple vid -> Side_store.put sh.slow_tuples ~key:vid tuple)
      slow slow_vids;
    let signature = rule_signature rule in
    let rid = node_rid ~signature ~node ~slow_vids in
    let sig_id = intern_signature h.store signature in
    if
      Rows.Table.add sh.exec_nodes ~key:(Rows.key rid)
        { Rows.rloc = node; rid; rule = sig_id; vids = slow_vids; next = None }
    then tick h.store node "store.rule_exec_rows";
    if
      Rows.Table.add (priv h node).exec_links ~key:(Rows.key rid)
        { Rows.link_rloc = node; link_rid = rid; link_next = meta.prev }
    then tick h.store node "store.rule_exec_rows";
    { meta with prev = Some (node, rid) }
  end

let on_output h ~node output (meta : Dpc_engine.Prov_hook.meta) =
  let p = priv h node in
  let k_key =
    match meta.eqkey with
    | Some k -> Rows.key k
    | None -> invalid_arg "Store_multi.on_output: meta has no equivalence key"
  in
  (* hmap associations are per (equivalence class, output relation): with
     extra relations of interest one class has several recorded output
     relations, each with its own chain reference(s). *)
  let k_key = k_key ^ ":" ^ Tuple.rel output in
  let vid = Rows.vid_of output in
  let add_row rref =
    if
      Rows.Table.add p.prov ~key:(Rows.key vid)
        { Rows.loc = node; vid; rid = Some rref; evid = Some meta.evid }
    then tick h.store node "store.prov_rows"
  in
  if not meta.exist_flag then begin
    match meta.prev with
    | None -> invalid_arg "Store_multi.on_output: materializing execution has no chain"
    | Some rref ->
        let refs =
          match Hashtbl.find_opt p.hmap k_key with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add p.hmap k_key r;
              r
        in
        if not (List.mem rref !refs) then begin
          refs := !refs @ [ rref ];
          p.hmap_refs <- p.hmap_refs + 1
        end;
        add_row rref
  end
  else begin
    match Hashtbl.find_opt p.hmap k_key with
    | Some refs when !refs <> [] -> List.iter add_row !refs
    | Some _ | None -> ()
  end

let hook h =
  {
    Dpc_engine.Prov_hook.name = "multi:" ^ h.id;
    on_input = (fun ~node event -> on_input h ~node event);
    on_fire = (fun ~node ~rule ~event:_ ~slow ~head:_ meta -> on_fire h ~node ~rule ~slow meta);
    on_output = (fun ~node output meta -> on_output h ~node output meta);
    on_slow_update = (fun ~node ~op:_ _ -> Hashtbl.reset (priv h node).htequi);
    meta_bytes = (fun _ -> 1 + 20 + 20 + Rows.ref_bytes);
  }

(* ----------------------------------------------------------------- *)
(* Storage *)

let shared_storage t =
  let rule_exec_bytes = ref 0 and rule_exec_rows = ref 0 and slow_bytes = ref 0 in
  Array.iteri
    (fun node _ ->
      let s = shared t node in
      rule_exec_bytes := !rule_exec_bytes + Rows.Table.bytes s.exec_nodes;
      rule_exec_rows := !rule_exec_rows + Rows.Table.rows s.exec_nodes;
      slow_bytes := !slow_bytes + Side_store.bytes s.slow_tuples)
    t.cluster;
  {
    Rows.empty_storage with
    Rows.rule_exec_bytes = !rule_exec_bytes;
    rule_exec_rows = !rule_exec_rows;
    event_bytes = !slow_bytes;
  }

let total_storage t =
  List.fold_left
    (fun acc f -> Rows.add_storage acc (f ()))
    (shared_storage t) t.program_storages

(* ----------------------------------------------------------------- *)
(* Query: interclass-style chain collection over shared nodes and private
   links, then bottom-up re-derivation with this program's rules. *)

exception Broken of string

type acct = {
  cost : Query_cost.t;
  routing : Dpc_net.Routing.t;
  mutable latency : float;
  mutable entries : int;
  mutable bytes : int;
  mutable rederives : int;
  mutable hop_s : float;
}

let charge_entries acct n =
  acct.entries <- acct.entries + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_entry)

let charge_bytes acct n =
  acct.bytes <- acct.bytes + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_byte)

let charge_rederive acct n =
  acct.rederives <- acct.rederives + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_rederive)

let charge_hop acct ~src ~dst =
  let h = Query_cost.hop acct.cost acct.routing ~src ~dst in
  acct.hop_s <- acct.hop_s +. h;
  acct.latency <- acct.latency +. h

let find_plan h sig_id =
  match Hashtbl.find_opt h.store.sig_of_id sig_id with
  | None -> raise (Broken "unknown rule signature id")
  | Some signature -> begin
      match Hashtbl.find_opt h.signatures signature with
      | Some r -> r
      | None -> raise (Broken "rule signature not in this program")
    end

let max_chains = 64

let fetch_chains h acct ~start rref =
  let results = ref [] in
  let rec go at (rloc, rid) acc seen =
    if List.length !results >= max_chains then ()
    else begin
      charge_hop acct ~src:at ~dst:rloc;
      let key = (rloc, Rows.key rid) in
      if List.mem key seen then ()
      else begin
        let seen = key :: seen in
        match Rows.Table.find (shared h.store rloc).exec_nodes (Rows.key rid) with
        | [] -> raise (Broken "missing shared ruleExecNode")
        | _ :: _ :: _ -> raise (Broken "duplicate shared rid")
        | [ row ] ->
            charge_entries acct 1;
            charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false row);
            let links = Rows.Table.find (priv h rloc).exec_links (Rows.key rid) in
            charge_entries acct (List.length links);
            List.iter (fun l -> charge_bytes acct (Rows.link_row_bytes l)) links;
            if links = [] then raise (Broken "no link row for this program");
            List.iter
              (fun (l : Rows.link_row) ->
                match l.link_next with
                | None -> results := List.rev (row :: acc) :: !results
                | Some next -> go rloc next (row :: acc) seen)
              links
      end
    end
  in
  go start rref [] [];
  !results

let resolve_slow h acct ~node vid =
  match Side_store.get (shared h.store node).slow_tuples ~key:vid with
  | Some tuple ->
      charge_bytes acct (Tuple.wire_size tuple);
      tuple
  | None -> raise (Broken "slow tuple not materialized")

let rederive h acct ~evid chain =
  let rec build = function
    | [] -> raise (Broken "empty chain")
    | [ (leaf : Rows.rule_exec_row) ] ->
        let event =
          match Side_store.get (priv h leaf.rloc).events ~key:evid with
          | Some ev ->
              charge_bytes acct (Tuple.wire_size ev);
              ev
          | None -> raise (Broken "event not materialized")
        in
        let slow = List.map (resolve_slow h acct ~node:leaf.rloc) leaf.vids in
        let plan = find_plan h leaf.rule in
        charge_rederive acct 1;
        begin
          match Dpc_engine.Eval.fire_with_slow ~plan ~event ~slow with
          | Some head ->
              ( { Prov_tree.rule = (Dpc_engine.Eval.plan_rule plan).name; output = head;
                  trigger = Event event; slow },
                head )
          | None -> raise (Broken "re-derivation failed at leaf")
        end
    | (row : Rows.rule_exec_row) :: rest ->
        let sub, sub_head = build rest in
        if Tuple.loc sub_head <> row.rloc then raise (Broken "chain/location mismatch");
        let slow = List.map (resolve_slow h acct ~node:row.rloc) row.vids in
        let plan = find_plan h row.rule in
        charge_rederive acct 1;
        begin
          match Dpc_engine.Eval.fire_with_slow ~plan ~event:sub_head ~slow with
          | Some head ->
              ( { Prov_tree.rule = (Dpc_engine.Eval.plan_rule plan).name; output = head;
                  trigger = Derived sub; slow },
                head )
          | None -> raise (Broken "re-derivation failed")
        end
  in
  build chain

let query h ~cost ~routing ?evid output =
  let querier = Tuple.loc output in
  let acct = { cost; routing; latency = 0.0; entries = 0; bytes = 0; rederives = 0; hop_s = 0.0 } in
  let htp = Rows.vid_of output in
  let rows = Rows.Table.find (priv h querier).prov (Rows.key htp) in
  let rows =
    match evid with
    | None -> rows
    | Some e ->
        List.filter
          (fun (r : Rows.prov_row) ->
            match r.evid with Some re -> Sha1.equal re e | None -> false)
          rows
  in
  charge_entries acct (max 1 (List.length rows));
  let trees =
    List.concat_map
      (fun (r : Rows.prov_row) ->
        let row_evid =
          match r.evid with Some e -> e | None -> raise (Broken "prov row without evid")
        in
        match r.rid with
        | None -> []
        | Some rref -> begin
            match fetch_chains h acct ~start:querier rref with
            | chains ->
                List.filter_map
                  (fun chain ->
                    match rederive h acct ~evid:row_evid chain with
                    | tree, head when Tuple.equal head output -> Some tree
                    | _ -> None
                    | exception Broken _ -> None)
                  chains
            | exception Broken _ -> []
          end)
      rows
  in
  (match trees with
  | [] -> ()
  | tr :: _ -> charge_hop acct ~src:(Tuple.loc (Prov_tree.event_of tr)) ~dst:querier);
  (* Multi-program queries have no liveness predicate yet: the store is a
     storage-sharing experiment, not wired into the crash-fault runtime. *)
  { Query_result.trees = Query_result.dedup_trees trees; latency = acct.latency;
    entries = acct.entries; bytes = acct.bytes; rederives = acct.rederives;
    hop_s = acct.hop_s; downs = 0; complete = true }
