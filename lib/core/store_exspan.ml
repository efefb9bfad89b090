open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node

(* Rows and side entries first written since the node's last checkpoint
   cut, for O(changes) delta checkpoints. Only ever appended to when the
   store's [track_dirty] is on (the durable layer flips it at attach);
   each checkpoint/delta/restore operation clears it. Tables never delete,
   so "dirty" is exactly "newly inserted". *)
type dirty = {
  mutable d_prov : Rows.prov_row list;
  mutable d_exec : Rows.rule_exec_row list;
  mutable d_side : (Sha1.t * Tuple.t) list;
}

type node_state = {
  prov : Rows.prov_row Rows.Table.t;  (* keyed by vid hex *)
  rule_exec : Rows.rule_exec_row Rows.Table.t;  (* keyed by rid hex *)
  tuples : Side_store.t;  (* vid -> materialized tuple *)
  dirty : dirty;
  (* Write generation for the query cache's staleness check: bumped on
     every accepted insert (see [Store_basic.node_state]). *)
  mutable gen : int;
}

type t = {
  delp : Delp.t;
  env : Dpc_engine.Env.t;
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
    rule_exec = Rows.Table.create ~row_bytes:(Rows.rule_exec_row_bytes ~with_next:false) ();
    tuples = Side_store.create ();
    dirty = { d_prov = []; d_exec = []; d_side = [] };
    gen = 0;
  }

let create ~delp ~env ~nodes =
  { delp; env; nodes = Node.cluster nodes; key = Node.key ~name:"store.exspan" ();
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

(* Query-cache plumbing — see [Store_basic] for the contract. *)
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

let add_prov t ~node (row : Rows.prov_row) =
  let st = state t node in
  if Rows.Table.add st.prov ~key:(Rows.key row.vid) row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_prov <- row :: st.dirty.d_prov;
    Metrics.incr (Node.metrics t.nodes.(node)) "store.prov_rows"
  end

let add_rule_exec t ~node (row : Rows.rule_exec_row) =
  let st = state t node in
  if Rows.Table.add st.rule_exec ~key:(Rows.key row.rid) row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_exec <- row :: st.dirty.d_exec;
    Metrics.incr (Node.metrics t.nodes.(node)) "store.rule_exec_rows"
  end

let side_put t ~node ~key tuple =
  let st = state t node in
  if Side_store.put_new st.tuples ~key tuple then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_side <- (key, tuple) :: st.dirty.d_side
  end

(* The prov row of a derived tuple is written by the RECEIVER, from the
   (RLoc, RID) reference the tuple ships with — not by the sender reaching
   across into the receiver's tables. Same rows as the sender-writes
   formulation (§4 stores them at the derived tuple's location either
   way), but every write now happens at the node processing the arrival,
   which is what makes a node's store a function of its own journal. The
   one observable difference: an event no rule fires on (a dead end) no
   longer gets a row — it contributes to no output's provenance. *)
let record_arrival t ~node event (meta : Dpc_engine.Prov_hook.meta) =
  match meta.prev with
  | None -> ()
  | Some _ as rid ->
      let vid = Rows.vid_of event in
      add_prov t ~node { Rows.loc = node; vid; rid; evid = None };
      side_put t ~node ~key:vid event

(* Every prov row at a node is keyed by its vid and located there, and
   ExSPAN rows carry no evid, so a row without a rule reference under the
   key is exactly the base row. *)
let is_base (r : Rows.prov_row) = match r.rid with None -> true | Some _ -> false

(* A base row for a tuple at its executing node, built only when it is
   not stored yet. *)
let add_base t ~node tuple vid =
  if not (List.exists is_base (Rows.Table.find (state t node).prov (Rows.key vid))) then
    add_prov t ~node { Rows.loc = node; vid; rid = None; evid = None };
  side_put t ~node ~key:vid tuple

(* The body vids in rule-execution order: the slow tuples', then the
   event's. *)
let rec body_vids event_vid = function
  | [] -> [ event_vid ]
  | tuple :: rest -> Rows.vid_of tuple :: body_vids event_vid rest

let rec add_slow_bases t ~node = function
  | [] -> ()
  | tuple :: rest ->
      add_base t ~node tuple (Rows.vid_of tuple);
      add_slow_bases t ~node rest

let on_fire t ~node ~(rule : Ast.rule) ~event ~slow (meta : Dpc_engine.Prov_hook.meta) =
  record_arrival t ~node event meta;
  let event_vid = Rows.vid_of event in
  let vids = body_vids event_vid slow in
  let rid = Rows.rid ~rule:rule.name ~node vids Rows.No_tail in
  add_rule_exec t ~node { Rows.rloc = node; rid; rule = rule.name; vids; next = None };
  (* Base rows for the slow tuples (their location is the executing node). *)
  add_slow_bases t ~node slow;
  (* The input event is a base tuple; intermediate events get their prov
     row from [record_arrival]. *)
  if meta.prev = None then add_base t ~node event event_vid;
  { meta with prev = Some (node, rid) }

let hook t =
  {
    Dpc_engine.Prov_hook.name = "exspan";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        side_put t ~node ~key:(Rows.vid_of event) event;
        meta);
    on_fire = (fun ~node ~rule ~event ~slow ~head:_ meta -> on_fire t ~node ~rule ~event ~slow meta);
    on_output = (fun ~node event meta -> record_arrival t ~node event meta);
    (* §5.5 sig delivery: the slow world changed; drop this node's
       memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> invalidate_cache t node);
    (* ExSPAN ships the (RID, RLoc) reference so the receiver can store the
       prov row of the derived tuple. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

let node_storage t node =
  let st = state t node in
  {
    Rows.empty_storage with
    Rows.prov_bytes = Rows.Table.bytes st.prov;
    rule_exec_bytes = Rows.Table.bytes st.rule_exec;
    event_bytes = Side_store.bytes st.tuples;
    prov_rows = Rows.Table.rows st.prov;
    rule_exec_rows = Rows.Table.rows st.rule_exec;
  }

let total_storage t =
  Array.to_list (Array.mapi (fun i _ -> node_storage t i) t.nodes)
  |> List.fold_left Rows.add_storage Rows.empty_storage

exception Broken of string

(* Mutable accounting threaded through a query. [up] is the liveness
   predicate: touching a down node charges the full bounded retry budget
   ((down_retries + 1) tries of down_timeout each), marks the result
   partial, and abandons the branch — the query never hangs on a dead
   node, it degrades. *)
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
  mutable touched : int list;  (* nodes read, for the cache dep snapshot *)
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

let charge_hop acct ~src ~dst =
  let h = Query_cost.hop acct.cost acct.routing ~src ~dst in
  acct.hop_s <- acct.hop_s +. h;
  acct.latency <- acct.latency +. h

let touch acct node =
  if not (List.mem node acct.touched) then acct.touched <- node :: acct.touched

(* Call before reading any state at [node]. *)
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

(* Memoize one root reference's reconstruction — see [Store_basic.with_cache]. *)
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

let resolve_tuple t ~node vid =
  match Side_store.get (state t node).tuples ~key:vid with
  | Some tuple -> tuple
  | None -> raise (Broken (Printf.sprintf "tuple %s not materialized at node %d" (Rows.hex vid) node))

let find_rule t name =
  match List.find_opt (fun (r : Ast.rule) -> String.equal r.name name) t.delp.program.rules with
  | Some r -> r
  | None -> raise (Broken (Printf.sprintf "unknown rule %s" name))

let max_derivations = 64

(* Reconstruct every derivation rooted at rule execution (rloc, rid), which
   derived [output]. An intermediate event tuple can itself have several
   derivations (several prov rows with distinct rule references — e.g. two
   equal-cost routes producing the identical tuple), so the result is a
   list, capped at [max_derivations]. [at] is the node the query currently
   sits on. *)
let rec fetch_trees t acct ~at ~output (rloc, rid) =
  charge_hop acct ~src:at ~dst:rloc;
  require_up acct rloc;
  let exec =
    match Rows.Table.find (state t rloc).rule_exec (Rows.key rid) with
    | [ row ] -> row
    | [] -> raise (Broken (Printf.sprintf "missing ruleExec %s at node %d" (Rows.hex rid) rloc))
    | _ :: _ :: _ -> raise (Broken "duplicate ruleExec rid")
  in
  charge_entries acct 1;
  charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false exec);
  ignore (find_rule t exec.rule);
  (* vids = slow tuples followed by the event. *)
  let slow_vids, event_vid =
    match List.rev exec.vids with
    | ev :: rest -> (List.rev rest, ev)
    | [] -> raise (Broken "ruleExec with no body vids")
  in
  let resolve_body vid =
    (* Each body tuple's prov row lives at the executing node. *)
    let rows = Rows.Table.find (state t rloc).prov (Rows.key vid) in
    charge_entries acct (max 1 (List.length rows));
    let tuple = resolve_tuple t ~node:rloc vid in
    charge_bytes acct (Tuple.wire_size tuple);
    (rows, tuple)
  in
  let slow = List.map (fun vid -> snd (resolve_body vid)) slow_vids in
  let event_rows, event_tuple = resolve_body event_vid in
  let derived_refs = List.filter_map (fun (r : Rows.prov_row) -> r.rid) event_rows in
  let triggers =
    if derived_refs = [] then [ Prov_tree.Event event_tuple ]
    else
      List.concat_map
        (fun rref ->
          List.map
            (fun sub -> Prov_tree.Derived sub)
            (fetch_trees t acct ~at:rloc ~output:event_tuple rref))
        derived_refs
  in
  List.filteri (fun i _ -> i < max_derivations) triggers
  |> List.map (fun trigger -> { Prov_tree.rule = exec.rule; output; trigger; slow })

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
                    match fetch_trees t acct ~at:querier ~output rref with
                    | trees -> trees
                    | exception Broken _ -> []))
          rows
  in
  let trees =
    match evid with
    | None -> trees
    | Some e -> List.filter (fun tr -> Sha1.equal (Prov_tree.event_id tr) e) trees
  in
  (* Return trip: ship the collected data back to the querier. *)
  (match trees with
  | [] -> ()
  | tr :: _ ->
      let leaf_event = Prov_tree.event_of tr in
      charge_hop acct ~src:(Tuple.loc leaf_event) ~dst:querier);
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
  let rh, rr = Rows.dump_rule_exec ~with_next:false exec_rows n in
  [ ("prov", ph, pr); ("ruleExec", rh, rr) ]

(* Canonical (sorted) order so checkpoints are byte-stable. *)
let table_rows table =
  let acc = ref [] in
  Rows.Table.iter table (fun _ r -> acc := r :: !acc);
  List.sort compare !acc

(* Side entries across all nodes as (node, key, tuple), in canonical
   order — the same wire shape as when the side store spanned the whole
   cluster, so checkpoints stay byte-identical. *)
let side_entries t =
  let acc = ref [] in
  Array.iteri
    (fun node _ ->
      Side_store.iter (state t node).tuples (fun ~key tuple -> acc := (node, key, tuple) :: !acc))
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

let read_side r put =
  let open Dpc_util.Serialize in
  List.iter
    (fun () -> ())
    (read_list r (fun () ->
       let node = read_varint r in
       let key = Sha1.of_raw (read_string r) in
       let tuple = Tuple.deserialize r in
       put ~node ~key tuple))

let checkpoint t =
  let open Dpc_util.Serialize in
  let w = writer () in
  write_string w "dpc-exspan-v1";
  write_varint w (Array.length t.nodes);
  Array.iteri
    (fun node _ ->
      let st = state t node in
      write_list w (Rows.write_prov_row w) (table_rows st.prov);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.rule_exec))
    t.nodes;
  write_side w (side_entries t);
  contents w

let restore ~delp ~env blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) "dpc-exspan-v1") then
    raise (Corrupt "not an ExSPAN checkpoint");
  let nodes = read_varint r in
  let t = create ~delp ~env ~nodes in
  for node = 0 to nodes - 1 do
    List.iter (fun (row : Rows.prov_row) -> add_prov t ~node:row.loc row)
      (read_list r (fun () -> Rows.read_prov_row r));
    List.iter (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node:row.rloc row)
      (read_list r (fun () -> Rows.read_rule_exec_row r));
    ignore node
  done;
  read_side r (fun ~node ~key tuple -> Side_store.put (state t node).tuples ~key tuple);
  t

(* Per-node checkpoint: one node's three tables, nothing else. Receiver-
   side writes guarantee this really is the whole of what the node owns —
   no other node ever wrote into it. Restoring goes through the add_*
   paths so the store.* counters (wiped with the node) are rebuilt. *)

let node_magic = "dpc-exspan-node-v1"
let delta_magic = "dpc-exspan-delta-v1"

let clear_dirty (st : node_state) =
  st.dirty.d_prov <- [];
  st.dirty.d_exec <- [];
  st.dirty.d_side <- []

let write_node_side w entries =
  let open Dpc_util.Serialize in
  write_list w
    (fun (key, tuple) ->
      write_string w (Sha1.to_raw key);
      Tuple.serialize w tuple)
    (List.sort (fun (k1, _) (k2, _) -> compare (Sha1.to_raw k1) (Sha1.to_raw k2)) entries)

let read_node_side r put =
  let open Dpc_util.Serialize in
  List.iter
    (fun () -> ())
    (read_list r (fun () ->
       let key = Sha1.of_raw (read_string r) in
       let tuple = Tuple.deserialize r in
       put ~key tuple))

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
      let side = ref [] in
      Side_store.iter st.tuples (fun ~key tuple -> side := (key, tuple) :: !side);
      write_node_side w !side)

let checkpoint_node t node =
  let blob = node_blob t node in
  clear_dirty (state t node);
  blob

let digest_node t node = Sha1.to_hex (Sha1.digest_string (node_blob t node))

(* A delta covers exactly the rows/side entries first inserted since the
   last cut (tables never delete, so that is the whole state change).
   Same row/side encodings as [checkpoint_node], canonically sorted so
   deltas are byte-stable for a given dirty set. *)
let checkpoint_delta t node =
  let open Dpc_util.Serialize in
  let st = state t node in
  let blob =
    with_scratch (fun w ->
        write_string w delta_magic;
        write_list w (Rows.write_prov_row w) (List.sort compare st.dirty.d_prov);
        write_list w (Rows.write_rule_exec_row w) (List.sort compare st.dirty.d_exec);
        write_node_side w st.dirty.d_side)
  in
  clear_dirty st;
  blob

let apply_delta t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) delta_magic) then
    raise (Corrupt "not an ExSPAN node delta");
  List.iter
    (fun (row : Rows.prov_row) -> add_prov t ~node row)
    (read_list r (fun () -> Rows.read_prov_row r));
  List.iter
    (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node row)
    (read_list r (fun () -> Rows.read_rule_exec_row r));
  let st = state t node in
  read_node_side r (fun ~key tuple -> Side_store.put st.tuples ~key tuple);
  if not (at_end r) then raise (Corrupt "trailing bytes in ExSPAN node delta");
  clear_dirty st

let restore_node t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) node_magic) then
    raise (Corrupt "not an ExSPAN node checkpoint");
  List.iter
    (fun (row : Rows.prov_row) -> add_prov t ~node row)
    (read_list r (fun () -> Rows.read_prov_row r));
  List.iter
    (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node row)
    (read_list r (fun () -> Rows.read_rule_exec_row r));
  let st = state t node in
  read_node_side r (fun ~key tuple -> Side_store.put st.tuples ~key tuple);
  clear_dirty st
