open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node

(* Rows and side entries first written since the node's last checkpoint
   cut, for O(changes) delta checkpoints (see [Store_exspan] for the
   contract; tables never delete, so "dirty" = "newly inserted"). *)
type dirty = {
  mutable d_prov : Rows.prov_row list;
  mutable d_exec : Rows.rule_exec_row list;
  mutable d_slow : (Sha1.t * Tuple.t) list;
  mutable d_events : (Sha1.t * Tuple.t) list;
}

type node_state = {
  prov : Rows.prov_row Rows.Table.t;  (* keyed by vid hex; outputs only *)
  rule_exec : Rows.rule_exec_row Rows.Table.t;  (* keyed by rid hex *)
  slow_tuples : Side_store.t;  (* vid -> slow tuple, at the executing node *)
  events : Side_store.t;  (* evid -> input event, at the ingress node *)
  dirty : dirty;
  (* Write generation: bumped on every accepted insert (rows and side
     entries). The query cache snapshots the generations of the nodes a
     walk read; a moved generation invalidates the memo entry. *)
  mutable gen : int;
}

type t = {
  delp : Delp.t;
  plans : Dpc_engine.Eval.plan list;  (* the rules, compiled once for re-derivation *)
  nodes : Node.t array;
  key : node_state Node.key;
  mutable track_dirty : bool;
  mutable degraded_sink : (int -> unit) option;
  mutable cache : Query_cache.t option;
  mutable reset_hooked : bool;
}

let fresh_state () =
  {
    prov = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:false) ();
    rule_exec = Rows.Table.create ~row_bytes:(Rows.rule_exec_row_bytes ~with_next:true) ();
    slow_tuples = Side_store.create ();
    events = Side_store.create ();
    dirty = { d_prov = []; d_exec = []; d_slow = []; d_events = [] };
    gen = 0;
  }

let create ~delp ~env ~nodes =
  { delp; plans = List.map (Dpc_engine.Eval.plan ~env) delp.program.rules;
    nodes = Node.cluster nodes; key = Node.key ~name:"store.basic" ();
    track_dirty = false; degraded_sink = None; cache = None; reset_hooked = false }

let set_track_dirty t on = t.track_dirty <- on

(* Degraded-query accounting. By default the tick lands in the querier's
   volatile registry and dies with it on a crash; a durable layer
   re-routes it through [set_degraded_sink] (see [Backend] / [Durable])
   so the count survives. *)
let set_degraded_sink t f = t.degraded_sink <- Some f

let degraded_for t querier () =
  match t.degraded_sink with
  | Some f -> f querier
  | None -> Dpc_util.Metrics.incr (Node.metrics t.nodes.(querier)) "crash.queries_degraded"

let nodes t = t.nodes
let state t node = Node.get_or_init t.nodes.(node) t.key ~init:fresh_state

(* Query-cache plumbing: the backend attaches one shared cache; the store
   invalidates by node on §5.5 sig flushes and on crash resets. The
   Node.on_reset hooks are registered once per store and survive the
   reset itself (see [Node]). *)
let invalidate_cache t node =
  match t.cache with None -> () | Some cache -> Query_cache.invalidate_node cache node

let set_query_cache t cache =
  t.cache <- cache;
  if cache <> None && not t.reset_hooked then begin
    t.reset_hooked <- true;
    Array.iteri
      (fun node n -> Node.on_reset n (fun () -> invalidate_cache t node))
      t.nodes
  end

let query_cache t = t.cache

let add_prov t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.prov ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_prov <- row :: st.dirty.d_prov;
    Metrics.incr (Node.metrics t.nodes.(node)) "store.prov_rows"
  end

let add_rule_exec t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.rule_exec ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_exec <- row :: st.dirty.d_exec;
    Metrics.incr (Node.metrics t.nodes.(node)) "store.rule_exec_rows"
  end

let slow_put t ~node ~key tuple =
  let st = state t node in
  if Side_store.put_new st.slow_tuples ~key tuple then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_slow <- (key, tuple) :: st.dirty.d_slow
  end

let event_put t ~node ~key tuple =
  let st = state t node in
  if Side_store.put_new st.events ~key tuple then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_events <- (key, tuple) :: st.dirty.d_events
  end

let rec put_slow t ~node = function
  | [] -> ()
  | tuple :: rest ->
      slow_put t ~node ~key:(Rows.vid_of tuple) tuple;
      put_slow t ~node rest

let on_fire t ~node ~(rule : Ast.rule) ~event ~slow ~head:_ (meta : Dpc_engine.Prov_hook.meta) =
  let event_vid = Rows.vid_of event in
  let slow_vids = List.map Rows.vid_of slow in
  (* Same rid as ExSPAN (Table 2 reuses Table 1's rids). *)
  let rid = Rows.rid ~rule:rule.name ~node slow_vids (Rows.Vid event_vid) in
  (* The input event's vid is kept in the leaf row (Table 2's rid1 row);
     intermediate event vids are dropped — that is the optimization. *)
  let vids = if meta.prev = None then slow_vids @ [ event_vid ] else slow_vids in
  add_rule_exec t ~node ~key:(Rows.key rid)
    { Rows.rloc = node; rid; rule = rule.name; vids; next = meta.prev };
  put_slow t ~node slow;
  { meta with prev = Some (node, rid) }

let on_output t ~node output (meta : Dpc_engine.Prov_hook.meta) =
  let vid = Rows.vid_of output in
  add_prov t ~node ~key:(Rows.key vid) { Rows.loc = node; vid; rid = meta.prev; evid = None }

let hook t =
  {
    Dpc_engine.Prov_hook.name = "basic";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        event_put t ~node ~key:meta.evid event;
        meta);
    on_fire = (fun ~node ~rule ~event ~slow ~head meta -> on_fire t ~node ~rule ~event ~slow ~head meta);
    on_output = (fun ~node output meta -> on_output t ~node output meta);
    (* Basic keeps no equivalence state to wipe, but a §5.5 sig still
       means the slow world changed under previously served trees: drop
       this node's memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> invalidate_cache t node);
    (* Ships the (NLoc, NRID) back-pointer. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

let node_storage t node =
  let st = state t node in
  {
    Rows.empty_storage with
    Rows.prov_bytes = Rows.Table.bytes st.prov;
    rule_exec_bytes = Rows.Table.bytes st.rule_exec;
    event_bytes = Side_store.bytes st.slow_tuples + Side_store.bytes st.events;
    prov_rows = Rows.Table.rows st.prov;
    rule_exec_rows = Rows.Table.rows st.rule_exec;
  }

let total_storage t =
  Array.to_list (Array.mapi (fun i _ -> node_storage t i) t.nodes)
  |> List.fold_left Rows.add_storage Rows.empty_storage

exception Broken of string

type acct = {
  cost : Query_cost.t;
  routing : Dpc_net.Routing.t;
  up : int -> bool;
  querier : int;
  degraded : unit -> unit;
  mutable latency : float;
  mutable entries : int;
  mutable bytes : int;
  mutable rederives : int;
  mutable hop_s : float;
  mutable downs : int;
  mutable complete : bool;
  (* Nodes whose state the walk read (or tried to), for the query cache's
     dependency snapshot. Reset around each memoizable unit of work. *)
  mutable touched : int list;
}

let fresh_acct ~cost ~routing ~up ~querier ~degraded =
  { cost; routing; up; querier; degraded; latency = 0.0; entries = 0; bytes = 0;
    rederives = 0; hop_s = 0.0; downs = 0; complete = true; touched = [] }

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

let touch acct node =
  if not (List.mem node acct.touched) then acct.touched <- node :: acct.touched

(* Call before reading any state at [node]: a down node costs the bounded
   retry budget, marks the result partial, and abandons the branch. *)
let require_up acct node =
  touch acct node;
  if not (acct.up node) then begin
    acct.downs <- acct.downs + 1;
    acct.latency <-
      acct.latency
      +. (float_of_int (acct.cost.Query_cost.down_retries + 1)
          *. acct.cost.Query_cost.down_timeout);
    if acct.complete then begin
      acct.complete <- false;
      acct.degraded ()
    end;
    raise (Broken (Printf.sprintf "node %d is down" node))
  end

(* Memoize one unit of reconstruction (everything reachable from [rref]
   for the context [ctx]) in the attached cache, if any. Only walks that
   never hit a down node are recorded; a hit charges one lookup entry and
   skips the hops/rederives entirely — that's the serving-tier win. *)
let with_cache t acct ~rref:(rloc, rid) ~ctx compute =
  match t.cache with
  | None -> compute ()
  | Some cache -> (
      let key = Query_cache.key ~loc:rloc ~rid ~ctx in
      let gen node = (state t node).gen in
      match Query_cache.find cache ~querier:acct.querier ~up:acct.up ~gen key with
      | Some trees ->
          charge_entries acct 1;
          trees
      | None ->
          let outer = acct.touched and downs0 = acct.downs in
          acct.touched <- [];
          let trees = compute () in
          if acct.downs = downs0 then
            Query_cache.add cache ~querier:acct.querier
              ~deps:(List.map (fun n -> (n, gen n)) acct.touched)
              key trees;
          acct.touched <- List.rev_append outer acct.touched;
          trees)

let find_plan t name =
  match
    List.find_opt (fun p -> String.equal (Dpc_engine.Eval.plan_rule p).name name) t.plans
  with
  | Some p -> p
  | None -> raise (Broken (Printf.sprintf "unknown rule %s" name))

let max_chains = 64

(* Step 1: fetch the optimized chain(s) root-to-leaf, charging hops. The
   rid hashes the rule, node, and body vids, so when an event tuple has
   several upstream derivations one rid carries several rows differing only
   in their back-pointer; the walk branches over them — each branch is one
   derivation, and §5.6's QUERY likewise returns a set. *)
let fetch_chains t acct ~start rref =
  let results = ref [] in
  let rec go at (rloc, rid) acc seen =
    if List.length !results >= max_chains then ()
    else begin
      charge_hop acct ~src:at ~dst:rloc;
      require_up acct rloc;
      let key = (rloc, Rows.key rid) in
      if List.mem key seen then ()
      else begin
        let seen = key :: seen in
        match Rows.Table.find (state t rloc).rule_exec (Rows.key rid) with
        | [] ->
            raise
              (Broken (Printf.sprintf "missing ruleExec %s at node %d" (Rows.hex rid) rloc))
        | rows ->
            List.iter
              (fun (row : Rows.rule_exec_row) ->
                charge_entries acct 1;
                charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:true row);
                match row.next with
                | None -> results := List.rev (row :: acc) :: !results
                | Some next -> go rloc next (row :: acc) seen)
              rows
      end
    end
  in
  go start rref [] [];
  !results

let resolve_slow t acct ~node vid =
  match Side_store.get (state t node).slow_tuples ~key:vid with
  | Some tuple ->
      charge_bytes acct (Tuple.wire_size tuple);
      tuple
  | None ->
      raise (Broken (Printf.sprintf "slow tuple %s not found at node %d" (Rows.hex vid) node))

(* Step 2: re-derive the intermediate events from the leaf upward,
   assembling the provenance tree. [chain] is root-to-leaf. *)
let rederive t acct chain =
  let rec build = function
    | [] -> raise (Broken "empty chain")
    | [ (leaf : Rows.rule_exec_row) ] ->
        (* Leaf row: vids = slow tuples then the input event. *)
        let slow_vids, event_vid =
          match List.rev leaf.vids with
          | ev :: rest -> (List.rev rest, ev)
          | [] -> raise (Broken "leaf ruleExec with no vids")
        in
        let event =
          match Side_store.get (state t leaf.rloc).events ~key:event_vid with
          | Some ev ->
              charge_bytes acct (Tuple.wire_size ev);
              ev
          | None ->
              raise
                (Broken
                   (Printf.sprintf "input event %s not materialized at node %d"
                      (Rows.hex event_vid) leaf.rloc))
        in
        let slow = List.map (resolve_slow t acct ~node:leaf.rloc) slow_vids in
        let plan = find_plan t leaf.rule in
        charge_rederive acct 1;
        begin
          match Dpc_engine.Eval.fire_with_slow ~plan ~event ~slow with
          | Some head ->
              ({ Prov_tree.rule = leaf.rule; output = head; trigger = Event event; slow }, head)
          | None -> raise (Broken "re-derivation failed at leaf")
        end
    | (row : Rows.rule_exec_row) :: rest ->
        let sub, sub_head = build rest in
        if Tuple.loc sub_head <> row.rloc then
          raise (Broken "re-derived event located at the wrong node");
        let slow = List.map (resolve_slow t acct ~node:row.rloc) row.vids in
        let plan = find_plan t row.rule in
        charge_rederive acct 1;
        begin
          match Dpc_engine.Eval.fire_with_slow ~plan ~event:sub_head ~slow with
          | Some head ->
              ( { Prov_tree.rule = row.rule; output = head; trigger = Derived sub; slow },
                head )
          | None -> raise (Broken "re-derivation failed")
        end
  in
  build chain

let query t ~cost ~routing ?evid ?(up = fun _ -> true) output =
  let querier = Tuple.loc output in
  let acct = fresh_acct ~cost ~routing ~up ~querier ~degraded:(degraded_for t querier) in
  let trees =
    match require_up acct querier with
    | exception Broken _ -> []
    | () ->
        let htp = Rows.vid_of output in
        let ctx = Sha1.to_raw htp in
        let rows = Rows.Table.find (state t querier).prov (Rows.key htp) in
        charge_entries acct (max 1 (List.length rows));
        List.concat_map
          (fun (r : Rows.prov_row) ->
            match r.rid with
            | None -> []
            | Some rref ->
                with_cache t acct ~rref ~ctx (fun () ->
                    match fetch_chains t acct ~start:querier rref with
                    | chains ->
                        List.filter_map
                          (fun chain ->
                            match rederive t acct chain with
                            | tree, head when Tuple.equal head output -> Some tree
                            | _ -> None
                            | exception Broken _ -> None)
                          chains
                    | exception Broken _ -> []))
          rows
  in
  let trees =
    match evid with
    | None -> trees
    | Some e -> List.filter (fun tr -> Sha1.equal (Prov_tree.event_id tr) e) trees
  in
  (match trees with
  | [] -> ()
  | tr :: _ -> charge_hop acct ~src:(Tuple.loc (Prov_tree.event_of tr)) ~dst:querier);
  { Query_result.trees = Query_result.dedup_trees trees; latency = acct.latency;
    entries = acct.entries; bytes = acct.bytes; rederives = acct.rederives;
    hop_s = acct.hop_s; downs = acct.downs; complete = acct.complete }

let dump t =
  let n = Array.length t.nodes in
  let prov_rows node =
    let acc = ref [] in
    Rows.Table.iter (state t node).prov (fun _ r -> acc := r :: !acc);
    !acc
  in
  let exec_rows node =
    let acc = ref [] in
    Rows.Table.iter (state t node).rule_exec (fun _ r -> acc := r :: !acc);
    !acc
  in
  let ph, pr = Rows.dump_prov ~with_evid:false prov_rows n in
  let rh, rr = Rows.dump_rule_exec ~with_next:true exec_rows n in
  [ ("prov", ph, pr); ("ruleExec", rh, rr) ]

(* Canonical (sorted) order so checkpoints are byte-stable. *)
let table_rows table =
  let acc = ref [] in
  Rows.Table.iter table (fun _ r -> acc := r :: !acc);
  List.sort compare !acc

(* (node, key, tuple) entries across the cluster in canonical order; the
   same wire shape as the old cluster-wide side store. *)
let side_entries t select =
  let acc = ref [] in
  Array.iteri
    (fun node _ ->
      Side_store.iter (select (state t node)) (fun ~key tuple -> acc := (node, key, tuple) :: !acc))
    t.nodes;
  List.sort (fun (n1, k1, _) (n2, k2, _) -> compare (n1, Sha1.to_raw k1) (n2, Sha1.to_raw k2)) !acc

let write_side w entries =
  let open Dpc_util.Serialize in
  write_list w
    (fun (node, key, tuple) ->
      write_varint w node;
      write_string w (Sha1.to_raw key);
      Tuple.serialize w tuple)
    entries

let read_side r t select =
  let open Dpc_util.Serialize in
  ignore
    (read_list r (fun () ->
       let node = read_varint r in
       let key = Sha1.of_raw (read_string r) in
       Side_store.put (select (state t node)) ~key (Tuple.deserialize r)))

let checkpoint t =
  let open Dpc_util.Serialize in
  let w = writer () in
  write_string w "dpc-basic-v1";
  write_varint w (Array.length t.nodes);
  Array.iteri
    (fun node _ ->
      let st = state t node in
      write_list w (Rows.write_prov_row w) (table_rows st.prov);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.rule_exec))
    t.nodes;
  write_side w (side_entries t (fun st -> st.slow_tuples));
  write_side w (side_entries t (fun st -> st.events));
  contents w

let restore ~delp ~env blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) "dpc-basic-v1") then
    raise (Corrupt "not a Basic checkpoint");
  let nodes = read_varint r in
  let t = create ~delp ~env ~nodes in
  for _ = 1 to nodes do
    List.iter
      (fun (row : Rows.prov_row) -> add_prov t ~node:row.loc ~key:(Rows.key row.vid) row)
      (read_list r (fun () -> Rows.read_prov_row r));
    List.iter
      (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node:row.rloc ~key:(Rows.key row.rid) row)
      (read_list r (fun () -> Rows.read_rule_exec_row r))
  done;
  read_side r t (fun st -> st.slow_tuples);
  read_side r t (fun st -> st.events);
  t

(* Per-node checkpoint: every Basic write is already node-local (the
   back-pointer travels in the meta; nobody writes across nodes), so one
   node's tables are exactly what it owns. *)

let node_magic = "dpc-basic-node-v1"
let delta_magic = "dpc-basic-delta-v1"

let clear_dirty (st : node_state) =
  st.dirty.d_prov <- [];
  st.dirty.d_exec <- [];
  st.dirty.d_slow <- [];
  st.dirty.d_events <- []

let write_side_list w entries =
  let open Dpc_util.Serialize in
  write_list w
    (fun (key, tuple) ->
      write_string w (Sha1.to_raw key);
      Tuple.serialize w tuple)
    (List.sort (fun (k1, _) (k2, _) -> compare (Sha1.to_raw k1) (Sha1.to_raw k2)) entries)

let write_node_side w store =
  let acc = ref [] in
  Side_store.iter store (fun ~key tuple -> acc := (key, tuple) :: !acc);
  write_side_list w !acc

let read_node_side r store =
  let open Dpc_util.Serialize in
  ignore
    (read_list r (fun () ->
       let key = Sha1.of_raw (read_string r) in
       Side_store.put store ~key (Tuple.deserialize r)))

(* The canonical node blob: byte-stable for a given table state however
   it was reached. [checkpoint_node] seals dirty tracking around it;
   [digest_node] deliberately does not. *)
let node_blob t node =
  let open Dpc_util.Serialize in
  let st = state t node in
  with_scratch (fun w ->
      write_string w node_magic;
      write_list w (Rows.write_prov_row w) (table_rows st.prov);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.rule_exec);
      write_node_side w st.slow_tuples;
      write_node_side w st.events)

let checkpoint_node t node =
  let blob = node_blob t node in
  clear_dirty (state t node);
  blob

let digest_node t node = Sha1.to_hex (Sha1.digest_string (node_blob t node))

(* O(changes) delta: the dirty rows/side entries only, same encodings as
   [checkpoint_node], canonically sorted. *)
let checkpoint_delta t node =
  let open Dpc_util.Serialize in
  let st = state t node in
  let blob =
    with_scratch (fun w ->
        write_string w delta_magic;
        write_list w (Rows.write_prov_row w) (List.sort compare st.dirty.d_prov);
        write_list w (Rows.write_rule_exec_row w) (List.sort compare st.dirty.d_exec);
        write_side_list w st.dirty.d_slow;
        write_side_list w st.dirty.d_events)
  in
  clear_dirty st;
  blob

let read_rows_into t node r =
  let open Dpc_util.Serialize in
  List.iter
    (fun (row : Rows.prov_row) -> add_prov t ~node ~key:(Rows.key row.vid) row)
    (read_list r (fun () -> Rows.read_prov_row r));
  List.iter
    (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node ~key:(Rows.key row.rid) row)
    (read_list r (fun () -> Rows.read_rule_exec_row r))

let apply_delta t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) delta_magic) then
    raise (Corrupt "not a Basic node delta");
  read_rows_into t node r;
  let st = state t node in
  read_node_side r st.slow_tuples;
  read_node_side r st.events;
  if not (at_end r) then raise (Corrupt "trailing bytes in Basic node delta");
  clear_dirty st

let restore_node t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) node_magic) then
    raise (Corrupt "not a Basic node checkpoint");
  read_rows_into t node r;
  let st = state t node in
  read_node_side r st.slow_tuples;
  read_node_side r st.events;
  clear_dirty st
