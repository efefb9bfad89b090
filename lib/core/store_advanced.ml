open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node

(* State changes since the node's last checkpoint cut, for O(changes)
   delta checkpoints. Row tables and side stores never delete, so their
   dirty sets are plain "newly inserted" lists. The equivalence state
   does mutate: [htequi] can be wiped wholesale by a slow update
   ([htequi_cleared] records that; [d_htequi] then holds only post-wipe
   insertions), and an [hmap] entry's ref list can grow ([d_hmap] keys
   the touched classes; the delta ships their CURRENT full ref lists,
   which replay replace-wise like [restore_node]). *)
type dirty = {
  mutable d_prov : Rows.prov_row list;
  mutable d_exec : Rows.rule_exec_row list;
  mutable d_exec_nodes : Rows.rule_exec_row list;
  mutable d_exec_links : Rows.link_row list;
  mutable d_htequi : string list;
  mutable htequi_cleared : bool;
  d_hmap : (string, unit) Hashtbl.t;
  mutable d_slow : (Sha1.t * Tuple.t) list;
  mutable d_events : (Sha1.t * Tuple.t) list;
}

type node_state = {
  prov : Rows.prov_row Rows.Table.t;  (* keyed by vid hex *)
  rule_exec : Rows.rule_exec_row Rows.Table.t;  (* plain layout, keyed by rid hex *)
  exec_nodes : Rows.rule_exec_row Rows.Table.t;  (* §5.4 ruleExecNode *)
  exec_links : Rows.link_row Rows.Table.t;  (* §5.4 ruleExecLink, keyed by rid hex *)
  htequi : (string, unit) Hashtbl.t;  (* equivalence keys seen at this ingress *)
  hmap : (string, (int * Sha1.t) list ref) Hashtbl.t;  (* class -> chain roots *)
  mutable hmap_refs : int;  (* total chain roots across hmap, for O(1) equi_bytes *)
  slow_tuples : Side_store.t;
  events : Side_store.t;  (* evid -> input event at ingress *)
  dirty : dirty;
  (* Write generation for the query cache's staleness check: bumped on
     every accepted insert (see [Store_basic.node_state]). *)
  mutable gen : int;
}

type t = {
  delp : Delp.t;
  plans : Dpc_engine.Eval.plan list;  (* the rules, compiled once for re-derivation *)
  keys : Dpc_analysis.Equi_keys.t;
  interclass : bool;
  nodes : Node.t array;
  key : node_state Node.key;
  orphans : int Atomic.t;
  mutable track_dirty : bool;
  mutable degraded_sink : (int -> unit) option;
  mutable cache : Query_cache.t option;
  mutable reset_hooked : bool;
}

let fresh_state () =
  {
    prov = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) ();
    rule_exec = Rows.Table.create ~row_bytes:(Rows.rule_exec_row_bytes ~with_next:true) ();
    exec_nodes = Rows.Table.create ~row_bytes:(Rows.rule_exec_row_bytes ~with_next:false) ();
    exec_links = Rows.Table.create ~row_bytes:Rows.link_row_bytes ();
    htequi = Hashtbl.create 32;
    hmap = Hashtbl.create 32;
    hmap_refs = 0;
    slow_tuples = Side_store.create ();
    events = Side_store.create ();
    dirty =
      {
        d_prov = [];
        d_exec = [];
        d_exec_nodes = [];
        d_exec_links = [];
        d_htequi = [];
        htequi_cleared = false;
        d_hmap = Hashtbl.create 8;
        d_slow = [];
        d_events = [];
      };
    gen = 0;
  }

let create ~delp ~env ~keys ?(interclass = false) ~nodes () =
  {
    delp;
    plans = List.map (Dpc_engine.Eval.plan ~env) delp.program.rules;
    keys;
    interclass;
    nodes = Node.cluster nodes;
    key = Node.key ~name:"store.advanced" ();
    orphans = Atomic.make 0;
    track_dirty = false;
    degraded_sink = None;
    cache = None;
    reset_hooked = false;
  }

let set_track_dirty t on = t.track_dirty <- on

let nodes t = t.nodes
let state t node = Node.get_or_init t.nodes.(node) t.key ~init:fresh_state
let tick t node name = Metrics.incr (Node.metrics t.nodes.(node)) name

(* Degraded-query accounting. By default the tick lands in the querier's
   volatile registry and dies with it on a crash; a durable layer
   re-routes it through [set_degraded_sink] (see [Backend] / [Durable])
   so the count survives. *)
let set_degraded_sink t f = t.degraded_sink <- Some f

let degraded_for t querier () =
  match t.degraded_sink with
  | Some f -> f querier
  | None -> Dpc_util.Metrics.incr (Node.metrics t.nodes.(querier)) "crash.queries_degraded"

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

let add_prov t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.prov ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_prov <- row :: st.dirty.d_prov;
    tick t node "store.prov_rows"
  end

let add_rule_exec t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.rule_exec ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_exec <- row :: st.dirty.d_exec;
    tick t node "store.rule_exec_rows"
  end

let add_exec_node t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.exec_nodes ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_exec_nodes <- row :: st.dirty.d_exec_nodes;
    tick t node "store.rule_exec_rows"
  end

let add_exec_link t ~node ~key row =
  let st = state t node in
  if Rows.Table.add st.exec_links ~key row then begin
    st.gen <- st.gen + 1;
    if t.track_dirty then st.dirty.d_exec_links <- row :: st.dirty.d_exec_links;
    tick t node "store.rule_exec_rows"
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

let on_input t ~node event =
  let evid = Tuple.digest event in
  let k = Dpc_analysis.Equi_keys.key_hash t.keys event in
  let k_key = Rows.key k in
  let st = state t node in
  let exist_flag = Hashtbl.mem st.htequi k_key in
  tick t node (if exist_flag then "store.equi_hits" else "store.equi_misses");
  if not exist_flag then begin
    Hashtbl.add st.htequi k_key ();
    (* No dupes possible: once present, [mem] short-circuits until the
       next wipe, and the wipe empties this list too. *)
    if t.track_dirty then st.dirty.d_htequi <- k_key :: st.dirty.d_htequi
  end;
  event_put t ~node ~key:evid event;
  { Dpc_engine.Prov_hook.evid; exist_flag; eqkey = Some k; prev = None }

let rec put_slow t ~node = function
  | [] -> ()
  | tuple :: rest ->
      slow_put t ~node ~key:(Rows.vid_of tuple) tuple;
      put_slow t ~node rest

let on_fire t ~node ~(rule : Ast.rule) ~event:_ ~slow ~head:_
    (meta : Dpc_engine.Prov_hook.meta) =
  if meta.exist_flag then meta
  else begin
    let slow_vids = List.map Rows.vid_of slow in
    put_slow t ~node slow;
    if t.interclass then begin
      (* §5.4 layout: the node rid is shared across classes. *)
      let rid = Rows.rid ~rule:rule.name ~node slow_vids Rows.No_tail in
      add_exec_node t ~node ~key:(Rows.key rid)
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = None };
      add_exec_link t ~node ~key:(Rows.key rid)
        { Rows.link_rloc = node; link_rid = rid; link_next = meta.prev };
      { meta with prev = Some (node, rid) }
    end
    else begin
      (* Plain layout: the rid must identify the whole chain suffix, so it
         hashes the back-pointer too (Table 3's sha1(rule, vids) is
         ambiguous as soon as two classes share a final rule execution
         node). *)
      let rid = Rows.rid ~rule:rule.name ~node slow_vids (Rows.Chain meta.prev) in
      add_rule_exec t ~node ~key:(Rows.key rid)
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = meta.prev };
      { meta with prev = Some (node, rid) }
    end
  end

let add_output_row t ~node vid evid rref =
  add_prov t ~node ~key:(Rows.key vid) { Rows.loc = node; vid; rid = Some rref; evid }

let rec add_output_rows t ~node vid evid = function
  | [] -> ()
  | rref :: rest ->
      add_output_row t ~node vid evid rref;
      add_output_rows t ~node vid evid rest

let on_output t ~node output (meta : Dpc_engine.Prov_hook.meta) =
  let st = state t node in
  let k_key =
    match meta.eqkey with
    | Some k -> Rows.key k
    | None -> invalid_arg "Store_advanced.on_output: meta has no equivalence key"
  in
  (* hmap associations are per (equivalence class, output relation): with
     extra relations of interest one class has several recorded output
     relations, each with its own chain reference(s). *)
  let k_key = k_key ^ ":" ^ Tuple.rel output in
  let vid = Rows.vid_of output in
  let evid = Some meta.evid in
  if not meta.exist_flag then begin
    match meta.prev with
    | None -> invalid_arg "Store_advanced.on_output: materializing execution has no chain"
    | Some rref ->
        let refs =
          match Hashtbl.find st.hmap k_key with
          | r -> r
          | exception Not_found ->
              let r = ref [] in
              Hashtbl.add st.hmap k_key r;
              r
        in
        if not (List.mem rref !refs) then begin
          refs := !refs @ [ rref ];
          st.hmap_refs <- st.hmap_refs + 1;
          if t.track_dirty then Hashtbl.replace st.dirty.d_hmap k_key ()
        end;
        add_output_row t ~node vid evid rref
  end
  else begin
    match Hashtbl.find st.hmap k_key with
    | { contents = _ :: _ as refs } -> add_output_rows t ~node vid evid refs
    | { contents = [] } | (exception Not_found) -> Atomic.incr t.orphans
  end

(* §5.5: any slow-table update — insert or delete — invalidates the
   equivalence classes observed so far; incoming events re-materialize.
   The delta records the wipe so replay reproduces it, and post-wipe
   insertions start a fresh dirty list. *)
let on_slow_update t ~node ~op:_ _tuple =
  let st = state t node in
  Hashtbl.reset st.htequi;
  if t.track_dirty then begin
    st.dirty.htequi_cleared <- true;
    st.dirty.d_htequi <- []
  end;
  (* The flush means re-materialization is coming: trees served from this
     node's pre-flush state must not be replayed from the memo cache. *)
  invalidate_cache t node

let hook t =
  {
    Dpc_engine.Prov_hook.name = (if t.interclass then "advanced+interclass" else "advanced");
    on_input = (fun ~node event -> on_input t ~node event);
    on_fire = (fun ~node ~rule ~event ~slow ~head meta -> on_fire t ~node ~rule ~event ~slow ~head meta);
    on_output = (fun ~node output meta -> on_output t ~node output meta);
    on_slow_update = (fun ~node ~op tuple -> on_slow_update t ~node ~op tuple);
    (* existFlag + equivalence-key hash + event hash + back-pointer. *)
    meta_bytes = (fun _ -> 1 + 20 + 20 + Rows.ref_bytes);
  }

(* O(1): hash-table lengths plus the maintained chain-root count; no fold
   over hmap on the snapshot path. *)
let equi_bytes st =
  (Hashtbl.length st.htequi * 20)
  + (Hashtbl.length st.hmap * 20)
  + (st.hmap_refs * Rows.ref_bytes)

let node_storage t node =
  let st = state t node in
  {
    Rows.prov_bytes = Rows.Table.bytes st.prov;
    rule_exec_bytes =
      Rows.Table.bytes st.rule_exec + Rows.Table.bytes st.exec_nodes
      + Rows.Table.bytes st.exec_links;
    equi_bytes = equi_bytes st;
    event_bytes = Side_store.bytes st.slow_tuples + Side_store.bytes st.events;
    prov_rows = Rows.Table.rows st.prov;
    rule_exec_rows =
      Rows.Table.rows st.rule_exec + Rows.Table.rows st.exec_nodes
      + Rows.Table.rows st.exec_links;
  }

let total_storage t =
  Array.to_list (Array.mapi (fun i _ -> node_storage t i) t.nodes)
  |> List.fold_left Rows.add_storage Rows.empty_storage

let classes_seen t =
  Array.fold_left (fun acc node -> acc + Hashtbl.length (state t (Node.id node)).htequi) 0 t.nodes

let orphan_outputs t = Atomic.get t.orphans

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

(* Memoize one root reference's reconstruction — see [Store_basic.with_cache].
   Advanced's context must also cover the event id: the same shared chain
   serves every event of the equivalence class, and each (rref, evid) pair
   re-derives a different tree. *)
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

(* QR (Fig 18): collect the shared chain root-to-leaf. The plain layout has
   a unique successor per row; the §5.4 layout may branch on link rows, so
   this returns every acyclic chain. *)
let fetch_chains t acct ~start rref =
  let max_chains = 64 in
  let results = ref [] in
  let rec go at (rloc, rid) acc seen =
    if List.length !results >= max_chains then ()
    else begin
      charge_hop acct ~src:at ~dst:rloc;
      require_up acct rloc;
      let key = (rloc, Rows.key rid) in
      if List.mem key seen then () (* cycle through shared §5.4 rows *)
      else begin
        let seen = key :: seen in
        if t.interclass then begin
          match Rows.Table.find (state t rloc).exec_nodes (Rows.key rid) with
          | [] -> raise (Broken "missing ruleExecNode")
          | _ :: _ :: _ -> raise (Broken "duplicate ruleExecNode rid")
          | [ row ] ->
              charge_entries acct 1;
              charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false row);
              let links = Rows.Table.find (state t rloc).exec_links (Rows.key rid) in
              charge_entries acct (List.length links);
              List.iter (fun l -> charge_bytes acct (Rows.link_row_bytes l)) links;
              if links = [] then raise (Broken "ruleExecNode with no link row");
              List.iter
                (fun (l : Rows.link_row) ->
                  match l.link_next with
                  | None -> results := List.rev (row :: acc) :: !results
                  | Some next -> go rloc next (row :: acc) seen)
                links
        end
        else begin
          match Rows.Table.find (state t rloc).rule_exec (Rows.key rid) with
          | [] -> raise (Broken "missing ruleExec")
          | _ :: _ :: _ -> raise (Broken "duplicate ruleExec rid")
          | [ row ] -> begin
              charge_entries acct 1;
              charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:true row);
              match row.next with
              | None -> results := List.rev (row :: acc) :: !results
              | Some next -> go rloc next (row :: acc) seen
            end
        end
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
  | None -> raise (Broken "slow tuple not materialized")

(* TRANSFORM_TO_D: re-derive the tree from a chain (root-to-leaf) and the
   event retrieved by evid at the leaf's node. *)
let rederive t acct ~evid chain =
  let rec build = function
    | [] -> raise (Broken "empty chain")
    | [ (leaf : Rows.rule_exec_row) ] ->
        let event =
          match Side_store.get (state t leaf.rloc).events ~key:evid with
          | Some ev ->
              charge_bytes acct (Tuple.wire_size ev);
              ev
          | None -> raise (Broken "event not materialized at the leaf's node")
        in
        if Tuple.loc event <> leaf.rloc then raise (Broken "event at wrong ingress");
        let slow = List.map (resolve_slow t acct ~node:leaf.rloc) leaf.vids in
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
        if Tuple.loc sub_head <> row.rloc then raise (Broken "chain/location mismatch");
        let slow = List.map (resolve_slow t acct ~node:row.rloc) row.vids in
        let plan = find_plan t row.rule in
        charge_rederive acct 1;
        begin
          match Dpc_engine.Eval.fire_with_slow ~plan ~event:sub_head ~slow with
          | Some head ->
              ({ Prov_tree.rule = row.rule; output = head; trigger = Derived sub; slow }, head)
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
        let rows = Rows.Table.find (state t querier).prov (Rows.key htp) in
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
        List.concat_map
          (fun (r : Rows.prov_row) ->
            let row_evid =
              match r.evid with
              | Some e -> e
              | None -> raise (Broken "advanced prov row without evid")
            in
            match r.rid with
            | None -> []
            | Some rref ->
                let ctx = Sha1.to_raw row_evid ^ Sha1.to_raw htp in
                with_cache t acct ~rref ~ctx (fun () ->
                    match fetch_chains t acct ~start:querier rref with
                    | chains ->
                        List.filter_map
                          (fun chain ->
                            match rederive t acct ~evid:row_evid chain with
                            | tree, head when Tuple.equal head output -> Some tree
                            | _ -> None
                            | exception Broken _ -> None)
                          chains
                    | exception Broken _ -> []))
          rows
  in
  (match trees with
  | [] -> ()
  | tr :: _ -> charge_hop acct ~src:(Tuple.loc (Prov_tree.event_of tr)) ~dst:querier);
  { Query_result.trees = Query_result.dedup_trees trees; latency = acct.latency;
    entries = acct.entries; bytes = acct.bytes; rederives = acct.rederives;
    hop_s = acct.hop_s; downs = acct.downs; complete = acct.complete }

let dump t =
  let n = Array.length t.nodes in
  let collect table_of node =
    let acc = ref [] in
    Rows.Table.iter (table_of (state t node)) (fun _ r -> acc := r :: !acc);
    !acc
  in
  let ph, pr = Rows.dump_prov ~with_evid:true (collect (fun st -> st.prov)) n in
  if t.interclass then begin
    let nh, nr =
      Rows.dump_rule_exec ~with_next:false (collect (fun st -> st.exec_nodes)) n
    in
    let link_rows =
      List.concat_map
        (fun node ->
          List.map
            (fun (l : Rows.link_row) ->
              [
                Printf.sprintf "n%d" l.link_rloc;
                Rows.show_digest l.link_rid;
                Rows.show_ref l.link_next;
              ])
            (collect (fun st -> st.exec_links) node))
        (List.init n (fun i -> i))
      |> List.sort compare
    in
    [
      ("prov", ph, pr);
      ("ruleExecNode", nh, nr);
      ("ruleExecLink", [ "RLoc"; "RID"; "(NLoc,NRID)" ], link_rows);
    ]
  end
  else begin
    let rh, rr = Rows.dump_rule_exec ~with_next:true (collect (fun st -> st.rule_exec)) n in
    [ ("prov", ph, pr); ("ruleExec", rh, rr) ]
  end

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
  write_string w "dpc-advanced-v1";
  write_bool w t.interclass;
  write_varint w (Array.length t.nodes);
  Array.iteri
    (fun node _ ->
      let st = state t node in
      write_list w (Rows.write_prov_row w) (table_rows st.prov);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.rule_exec);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.exec_nodes);
      write_list w (Rows.write_link_row w) (table_rows st.exec_links);
      write_list w (write_string w)
        (Hashtbl.fold (fun k () acc -> k :: acc) st.htequi [] |> List.sort compare);
      write_list w
        (fun (k, refs) ->
          write_string w k;
          write_list w
            (fun (node, d) ->
              write_varint w node;
              write_string w (Sha1.to_raw d))
            refs)
        (Hashtbl.fold (fun k refs acc -> (k, !refs) :: acc) st.hmap []
        |> List.sort compare))
    t.nodes;
  write_side w (side_entries t (fun st -> st.slow_tuples));
  write_side w (side_entries t (fun st -> st.events));
  write_varint w (Atomic.get t.orphans);
  contents w

let restore ~delp ~env ~keys blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) "dpc-advanced-v1") then
    raise (Corrupt "not an Advanced checkpoint");
  let interclass = read_bool r in
  let nodes = read_varint r in
  let t = create ~delp ~env ~keys ~interclass ~nodes () in
  for node = 0 to nodes - 1 do
    let st = state t node in
    List.iter
      (fun (row : Rows.prov_row) -> add_prov t ~node:row.loc ~key:(Rows.key row.vid) row)
      (read_list r (fun () -> Rows.read_prov_row r));
    List.iter
      (fun (row : Rows.rule_exec_row) -> add_rule_exec t ~node:row.rloc ~key:(Rows.key row.rid) row)
      (read_list r (fun () -> Rows.read_rule_exec_row r));
    List.iter
      (fun (row : Rows.rule_exec_row) -> add_exec_node t ~node:row.rloc ~key:(Rows.key row.rid) row)
      (read_list r (fun () -> Rows.read_rule_exec_row r));
    List.iter
      (fun (row : Rows.link_row) ->
        add_exec_link t ~node:row.link_rloc ~key:(Rows.key row.link_rid) row)
      (read_list r (fun () -> Rows.read_link_row r));
    ignore (read_list r (fun () -> Hashtbl.replace st.htequi (read_string r) ()));
    ignore
      (read_list r (fun () ->
         let k = read_string r in
         let refs =
           read_list r (fun () ->
             let node = read_varint r in
             (node, Sha1.of_raw (read_string r)))
         in
         st.hmap_refs <- st.hmap_refs + List.length refs;
         Hashtbl.replace st.hmap k (ref refs)))
  done;
  read_side r t (fun st -> st.slow_tuples);
  read_side r t (fun st -> st.events);
  Atomic.set t.orphans (read_varint r);
  t

(* Per-node checkpoint: the node's row tables, its equivalence state
   (htequi + hmap — §5.5 makes both strictly ingress-local), and its side
   stores. The [orphans] counter is store-global bookkeeping, not node
   state, so it is not part of the blob. *)

let node_magic = "dpc-advanced-node-v1"
let delta_magic = "dpc-advanced-delta-v1"

let clear_dirty (st : node_state) =
  st.dirty.d_prov <- [];
  st.dirty.d_exec <- [];
  st.dirty.d_exec_nodes <- [];
  st.dirty.d_exec_links <- [];
  st.dirty.d_htequi <- [];
  st.dirty.htequi_cleared <- false;
  Hashtbl.reset st.dirty.d_hmap;
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

let write_hmap_assocs w assocs =
  let open Dpc_util.Serialize in
  write_list w
    (fun (k, refs) ->
      write_string w k;
      write_list w
        (fun (n, d) ->
          write_varint w n;
          write_string w (Sha1.to_raw d))
        refs)
    (List.sort compare assocs)

(* Replace-wise hmap load shared by full restore and delta replay: the
   blob carries each touched class's FULL ref list, so installing it
   means subtracting whatever list was there before. *)
let read_hmap_assocs r (st : node_state) =
  let open Dpc_util.Serialize in
  ignore
    (read_list r (fun () ->
       let k = read_string r in
       let refs =
         read_list r (fun () ->
           let n = read_varint r in
           (n, Sha1.of_raw (read_string r)))
       in
       (match Hashtbl.find_opt st.hmap k with
       | Some existing -> st.hmap_refs <- st.hmap_refs - List.length !existing
       | None -> ());
       st.hmap_refs <- st.hmap_refs + List.length refs;
       Hashtbl.replace st.hmap k (ref refs)))

(* The canonical node blob: byte-stable for a given table state however
   it was reached. [checkpoint_node] seals dirty tracking around it;
   [digest_node] deliberately does not. *)
let node_blob t node =
  let open Dpc_util.Serialize in
  let st = state t node in
  with_scratch (fun w ->
      write_string w node_magic;
      write_bool w t.interclass;
      write_list w (Rows.write_prov_row w) (table_rows st.prov);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.rule_exec);
      write_list w (Rows.write_rule_exec_row w) (table_rows st.exec_nodes);
      write_list w (Rows.write_link_row w) (table_rows st.exec_links);
      write_list w (write_string w)
        (Hashtbl.fold (fun k () acc -> k :: acc) st.htequi [] |> List.sort compare);
      write_hmap_assocs w (Hashtbl.fold (fun k refs acc -> (k, !refs) :: acc) st.hmap []);
      write_node_side w st.slow_tuples;
      write_node_side w st.events)

let checkpoint_node t node =
  let blob = node_blob t node in
  clear_dirty (state t node);
  blob

let digest_node t node = Sha1.to_hex (Sha1.digest_string (node_blob t node))

(* O(changes) delta: dirty rows and side entries plus the equivalence-
   state change record — whether htequi was wiped, the keys added since
   (the wipe, or the last cut), and the full current ref list of every
   hmap class that grew. Same encodings as [checkpoint_node], canonically
   sorted. *)
let checkpoint_delta t node =
  let open Dpc_util.Serialize in
  let st = state t node in
  let blob =
    with_scratch (fun w ->
        write_string w delta_magic;
        write_bool w t.interclass;
        write_list w (Rows.write_prov_row w) (List.sort compare st.dirty.d_prov);
        write_list w (Rows.write_rule_exec_row w) (List.sort compare st.dirty.d_exec);
        write_list w (Rows.write_rule_exec_row w) (List.sort compare st.dirty.d_exec_nodes);
        write_list w (Rows.write_link_row w) (List.sort compare st.dirty.d_exec_links);
        write_bool w st.dirty.htequi_cleared;
        write_list w (write_string w) (List.sort compare st.dirty.d_htequi);
        write_hmap_assocs w
          (Hashtbl.fold
             (fun k () acc ->
               match Hashtbl.find_opt st.hmap k with
               | Some refs -> (k, !refs) :: acc
               | None -> acc)
             st.dirty.d_hmap []);
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
    (read_list r (fun () -> Rows.read_rule_exec_row r));
  List.iter
    (fun (row : Rows.rule_exec_row) -> add_exec_node t ~node ~key:(Rows.key row.rid) row)
    (read_list r (fun () -> Rows.read_rule_exec_row r));
  List.iter
    (fun (row : Rows.link_row) -> add_exec_link t ~node ~key:(Rows.key row.link_rid) row)
    (read_list r (fun () -> Rows.read_link_row r))

let apply_delta t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) delta_magic) then
    raise (Corrupt "not an Advanced node delta");
  let interclass = read_bool r in
  if interclass <> t.interclass then raise (Corrupt "node delta layout mismatch");
  read_rows_into t node r;
  let st = state t node in
  if read_bool r then Hashtbl.reset st.htequi;
  ignore (read_list r (fun () -> Hashtbl.replace st.htequi (read_string r) ()));
  read_hmap_assocs r st;
  read_node_side r st.slow_tuples;
  read_node_side r st.events;
  if not (at_end r) then raise (Corrupt "trailing bytes in Advanced node delta");
  clear_dirty st

let restore_node t node blob =
  let open Dpc_util.Serialize in
  let r = reader blob in
  if not (String.equal (read_string r) node_magic) then
    raise (Corrupt "not an Advanced node checkpoint");
  let interclass = read_bool r in
  if interclass <> t.interclass then raise (Corrupt "node checkpoint layout mismatch");
  read_rows_into t node r;
  let st = state t node in
  ignore (read_list r (fun () -> Hashtbl.replace st.htequi (read_string r) ()));
  read_hmap_assocs r st;
  read_node_side r st.slow_tuples;
  read_node_side r st.events;
  clear_dirty st
