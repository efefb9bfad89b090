open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node
module S = Serialize

(* ------------------------------------------------------------------ *)
(* Tracked tables and side stores *)

type 'a codec = {
  metric : string;
  key : 'a -> string;
  compare : 'a -> 'a -> int;  (* the cut order *)
  write : S.writer -> 'a -> unit;
  read : S.reader -> 'a;
}

(* Rows first written since the node's last checkpoint cut sit in [dirty]
   too, for O(changes) delta checkpoints. Only ever appended to while the
   store's dirty tracking is on (the durable layer turns it on at attach);
   every cut clears it. Tables never delete, so "dirty" is exactly "newly
   inserted". *)
type 'a table = { rows : 'a Rows.Table.t; mutable dirty : 'a list; codec : 'a codec }
type exec = Exec : 'a table -> exec [@@unboxed]
type side = { entries : Side_store.t; mutable added : Tuple.t list }

let prov_codec =
  { metric = "store.prov_rows"; key = (fun (r : Rows.prov_row) -> Rows.key r.vid);
    compare = Rows.compare_prov_row; write = Rows.write_prov_row; read = Rows.read_prov_row }

let exec_codec =
  { metric = "store.rule_exec_rows"; key = (fun (r : Rows.rule_exec_row) -> Rows.key r.rid);
    compare = Rows.compare_rule_exec_row; write = Rows.write_rule_exec_row;
    read = Rows.read_rule_exec_row }

let link_codec =
  { metric = "store.rule_exec_rows"; key = (fun (r : Rows.link_row) -> Rows.key r.link_rid);
    compare = Rows.compare_link_row; write = Rows.write_link_row; read = Rows.read_link_row }

let table codec row_bytes =
  { rows = Rows.Table.create ~key:codec.key ~row_bytes (); dirty = []; codec }
let prov_table ~with_evid = table prov_codec (Rows.prov_row_bytes ~with_evid)
let exec_table ~with_next = table exec_codec (Rows.rule_exec_row_bytes ~with_next)
let link_table () = table link_codec Rows.link_row_bytes
let side () = { entries = Side_store.create (); added = [] }
let exec table = Exec table
let count table digest = Rows.Table.count table.rows (Rows.key digest)

let only ~what table digest =
  match Rows.Table.only table.rows (Rows.key digest) with
  | row -> row
  | exception Not_found ->
      raise
        (Query_acct.Broken
           (if count table digest = 0 then "missing " ^ what else "duplicate " ^ what ^ " rid"))

let exists table digest p = Rows.Table.exists table.rows (Rows.key digest) p
let iter_rows table digest f = Rows.Table.iter_key table.rows (Rows.key digest) f
let concat_map table digest f = Rows.Table.concat_map table.rows (Rows.key digest) f
let entries side = side.entries

(* ------------------------------------------------------------------ *)
(* The store *)

type 'x node = {
  x : 'x;
  (* Write generation: bumped on every accepted insert (rows and side
     entries). The query cache snapshots the generations of the nodes a
     walk read; a moved generation invalidates the memo entry. *)
  mutable gen : int;
}

type 'x layout = {
  name : string;
  tag : string;
  fresh : unit -> 'x;
  prov : 'x -> Rows.prov_row table;
  (* The ruleExec tables and side stores, in format order. [Exec] is
     unboxed, so reaching a table through these allocates nothing. *)
  execs : ('x -> exec) array;
  sides : ('x -> side) array;
  extra : 'x extra option;
}

and 'x extra = {
  flag : bool;
  write_extra : S.writer -> 'x -> delta:bool -> unit;
  read_extra : S.reader -> 'x -> delta:bool -> unit;
  clear_extra : 'x -> unit;
  extra_bytes : 'x -> int;
  tally : int Atomic.t;
}

type 'x t = {
  nodes : Node.t array;
  key : 'x node Node.key;
  layout : 'x layout;
  init : unit -> 'x node;
  magics : string * string * string;  (* whole-store, node, delta *)
  mutable track_dirty : bool;
  mutable degraded_sink : (int -> unit) option;
  mutable cache : Query_cache.t option;
  mutable reset_hooked : bool;
}

let magic tag format = "dpc-" ^ tag ^ format ^ "-v1"

let create nodes layout =
  let init () = { x = layout.fresh (); gen = 0 } in
  { nodes; key = Node.key (); layout; init;
    magics = (magic layout.tag "", magic layout.tag "-node", magic layout.tag "-delta");
    track_dirty = false; degraded_sink = None; cache = None; reset_hooked = false }

let nodes k = k.nodes
let state k node = Node.get_or_init k.nodes.(node) k.key ~init:k.init
let tracking k = k.track_dirty
let set_track_dirty k on = k.track_dirty <- on
let tick k node name = Metrics.incr (Node.metrics k.nodes.(node)) name

let add k nd ~node table row =
  if Rows.Table.add table.rows row then begin
    nd.gen <- nd.gen + 1;
    if k.track_dirty then table.dirty <- row :: table.dirty;
    tick k node table.codec.metric
  end

let put k nd side tuple =
  if Side_store.put_new side.entries tuple then begin
    nd.gen <- nd.gen + 1;
    if k.track_dirty then side.added <- tuple :: side.added
  end

let rec put_tuples k nd side = function
  | [] -> ()
  | tuple :: rest ->
      put k nd side tuple;
      put_tuples k nd side rest

(* Degraded-query accounting. By default the tick lands in the querier's
   volatile registry and dies with it on a crash; a durable layer
   re-routes it through [set_degraded_sink] (see [Backend] / [Durable])
   so the count survives. *)
let set_degraded_sink k f = k.degraded_sink <- Some f

let degraded_for k querier () =
  match k.degraded_sink with Some f -> f querier | None -> tick k querier "crash.queries_degraded"

(* Query-cache plumbing: the backend attaches one shared cache; the store
   invalidates by node on §5.5 sig flushes and on crash resets. The
   Node.on_reset hooks are registered once per store and survive the
   reset itself (see [Node]). *)
let invalidate_cache k node =
  match k.cache with None -> () | Some cache -> Query_cache.invalidate_node cache node

let set_query_cache k cache =
  k.cache <- cache;
  if cache <> None && not k.reset_hooked then begin
    k.reset_hooked <- true;
    Array.iteri (fun node n -> Node.on_reset n (fun () -> invalidate_cache k node)) k.nodes
  end

let query_cache k = k.cache

let node_storage k node =
  let x = (state k node).x and l = k.layout in
  let prov = (l.prov x).rows in
  let exec_bytes = ref 0 and exec_rows = ref 0 and side_bytes = ref 0 in
  for i = 0 to Array.length l.execs - 1 do
    let (Exec t) = l.execs.(i) x in
    exec_bytes := !exec_bytes + Rows.Table.bytes t.rows;
    exec_rows := !exec_rows + Rows.Table.rows t.rows
  done;
  for i = 0 to Array.length l.sides - 1 do
    side_bytes := !side_bytes + Side_store.bytes (l.sides.(i) x).entries
  done;
  {
    Rows.prov_bytes = Rows.Table.bytes prov;
    rule_exec_bytes = !exec_bytes;
    equi_bytes = (match l.extra with Some e -> e.extra_bytes x | None -> 0);
    event_bytes = !side_bytes;
    prov_rows = Rows.Table.rows prov;
    rule_exec_rows = !exec_rows;
  }

let total_storage k =
  Array.to_list (Array.mapi (fun i _ -> node_storage k i) k.nodes)
  |> List.fold_left Rows.add_storage Rows.empty_storage

let rows table =
  let acc = ref [] in
  Rows.Table.iter table.rows (fun r -> acc := r :: !acc);
  !acc

(* [select]'s rows at [node], for the scheme's table dumps. *)
let rows_at k select node = rows (select (state k node).x)

type dump = (string * string list * string list list) list

(* The prov table and one ruleExec table, as the paper's Tables 1-3 show
   them. *)
let dump_tables k ~with_evid ~with_next exec =
  let n = Array.length k.nodes in
  let ph, pr = Rows.dump_prov ~with_evid (rows_at k k.layout.prov) n in
  let rh, rr = Rows.dump_rule_exec ~with_next (rows_at k exec) n in
  [ ("prov", ph, pr); ("ruleExec", rh, rr) ]

(* ------------------------------------------------------------------ *)
(* The query frame *)

type walk = Query_acct.t -> querier:int -> output:Tuple.t -> Rows.prov_row -> Prov_tree.t list

(* Fetch the queried tuple's prov rows at the querier, walk each row's
   rule reference (memoized per reference and context), then ship the
   result back. Rows that carry an evid (Advanced) are filtered by it
   before the walk, which keeps their charges as they were; then every
   tree is filtered by its event (a no-op for those rows' trees). *)
let kept e (r : Rows.prov_row) = match r.evid with Some re -> Sha1.equal re e | None -> true

let query k ~walk ~cost ~routing ?evid ?(up = fun _ -> true) output =
  let querier = Tuple.loc output in
  let acct =
    Query_acct.create ~cost ~routing ~up ~querier ~degraded:(degraded_for k querier)
  in
  let trees =
    match Query_acct.require_up acct querier with
    | exception Query_acct.Broken _ -> []
    | () ->
        let htp = Rows.vid_of output in
        let prov = k.layout.prov (state k querier).x in
        let n =
          match evid with
          | None -> count prov htp
          | Some e ->
              let n = ref 0 in
              iter_rows prov htp (fun r -> if kept e r then incr n);
              !n
        in
        Query_acct.charge_entries acct (max 1 n);
        let gen node = (state k node).gen in
        let walk_row (r : Rows.prov_row) =
          match r.rid with
          | No_back -> []
          | Back { node = rloc; rid } ->
              (* Advanced's context also covers the event: the same shared
                 chain serves every event of its class. *)
              let ctx =
                match r.evid with
                | Some e -> Sha1.to_raw e ^ Sha1.to_raw htp
                | None -> Sha1.to_raw htp
              in
              Query_acct.memo k.cache acct ~gen ~rloc ~rid ~ctx (fun () ->
                  try walk acct ~querier ~output r with Query_acct.Broken _ -> [])
        in
        match evid with
        | None -> concat_map prov htp walk_row
        | Some e -> concat_map prov htp (fun r -> if kept e r then walk_row r else [])
  in
  let trees =
    match evid with
    | None -> trees
    | Some e -> List.filter (fun tr -> Sha1.equal (Prov_tree.event_id tr) e) trees
  in
  (* Return trip: ship the collected data back to the querier. *)
  (match trees with
  | [] -> ()
  | tr :: _ -> Query_acct.charge_hop acct ~src:(Tuple.loc (Prov_tree.event_of tr)) ~dst:querier);
  Query_acct.result acct trees

(* One store behind one interface: the typed kit, and what its scheme
   plugs in. *)
type store =
  | Store : {
      kit : 'x t;
      hook : Dpc_engine.Prov_hook.t;
      walk : walk;
      dump : unit -> dump;
    }
      -> store

(* ------------------------------------------------------------------ *)
(* Persistence: the whole-store ([dpc-<tag>-v1]), node
   ([dpc-<tag>-node-v1]) and delta ([dpc-<tag>-delta-v1]) formats.

   A node section is the prov table, the ruleExec tables in layout order
   (each canonically sorted, so blobs are byte-stable however the state
   was reached) and the layout's extra section. The node and delta
   formats follow it with the node's side stores; the whole-store format
   writes every node's section, then each side store across the cluster
   as (node, key, tuple) entries, then the extra's tally. A delta is the
   same shape over only what was inserted since the last cut. Restoring
   goes through [add], so the store.* counters (wiped with the node) are
   rebuilt. *)

let article name = (if String.contains "AEIOU" name.[0] then "an " else "a ") ^ name

(* Cuts run on the ingest path: each table goes through
   [Serialize.write_sorted], rows in their codec's order and side entries
   by key. *)
let rec each_row f = function
  | [] -> ()
  | row :: rest ->
      f row ();
      each_row f rest

let write_rows w table ~delta =
  S.write_sorted w table.codec.compare
    (if delta then fun f -> each_row f table.dirty
     else fun f -> Rows.Table.iter table.rows (fun row -> f row ()))
    (fun row () -> table.codec.write w row)

let write_section w k x ~delta =
  let l = k.layout in
  write_rows w (l.prov x) ~delta;
  for i = 0 to Array.length l.execs - 1 do
    let (Exec t) = l.execs.(i) x in
    write_rows w t ~delta
  done;
  match l.extra with Some e -> e.write_extra w x ~delta | None -> ()

let write_sides w k x ~delta =
  let sides = k.layout.sides in
  for i = 0 to Array.length sides - 1 do
    let s = sides.(i) x in
    S.write_sorted w Sha1.compare
      (if delta then fun f -> List.iter (fun tuple -> f (Tuple.digest tuple) tuple) s.added
       else fun f -> Side_store.iter s.entries (fun ~key tuple -> f key tuple))
      (fun key tuple ->
        S.write_digest w key;
        Tuple.serialize w tuple)
  done

let read_rows k nd ~node r table =
  List.iter (fun row -> add k nd ~node table row) (S.read_list r (fun () -> table.codec.read r))

let read_section k nd ~node r ~delta =
  let l = k.layout in
  read_rows k nd ~node r (l.prov nd.x);
  for i = 0 to Array.length l.execs - 1 do
    let (Exec t) = l.execs.(i) nd.x in
    read_rows k nd ~node r t
  done;
  match l.extra with Some e -> e.read_extra r nd.x ~delta | None -> ()

(* A side entry is keyed by its tuple's digest, which the table reads
   from the tuple: an entry under any other key is corrupt. *)
let read_entry r =
  let key = S.read_digest r in
  let tuple = Tuple.deserialize r in
  if not (Sha1.equal key (Tuple.digest tuple)) then
    raise (S.Corrupt "side entry under another tuple's digest");
  tuple

let read_side r side = ignore (S.read_list r (fun () -> Side_store.put side.entries (read_entry r)))

let clear_dirty k x =
  let l = k.layout in
  (l.prov x).dirty <- [];
  for i = 0 to Array.length l.execs - 1 do
    let (Exec t) = l.execs.(i) x in
    t.dirty <- []
  done;
  for i = 0 to Array.length l.sides - 1 do
    (l.sides.(i) x).added <- []
  done;
  match l.extra with Some e -> e.clear_extra x | None -> ()

let write_flag w k = match k.layout.extra with Some e -> S.write_bool w e.flag | None -> ()

let write_node w k x ~delta =
  let _, node_magic, delta_magic = k.magics in
  S.write_string w (if delta then delta_magic else node_magic);
  write_flag w k;
  write_section w k x ~delta;
  write_sides w k x ~delta

(* [checkpoint_node] and [checkpoint_delta] seal dirty tracking around
   their blob; [digest_node] deliberately does not, and hashes the node
   blob in the scratch arena instead of copying it out. *)
let checkpoint_node k node =
  let x = (state k node).x in
  let blob = S.with_scratch (fun w -> write_node w k x ~delta:false) in
  clear_dirty k x;
  blob

let checkpoint_delta k node =
  let x = (state k node).x in
  let blob = S.with_scratch (fun w -> write_node w k x ~delta:true) in
  clear_dirty k x;
  blob

let digest_node k node =
  let x = (state k node).x in
  Sha1.to_hex (S.digest_scratch (fun w -> write_node w k x ~delta:false))

let expect_magic r ~name magic what =
  if not (String.equal (S.read_string r) magic) then
    raise (S.Corrupt (Printf.sprintf "not %s %s" (article name) what))

let read_node k node blob ~delta =
  let r = S.reader blob in
  let what = if delta then "node delta" else "node checkpoint" in
  let l = k.layout and _, node_magic, delta_magic = k.magics in
  expect_magic r ~name:l.name (if delta then delta_magic else node_magic) what;
  (match l.extra with
  | Some e -> if S.read_bool r <> e.flag then raise (S.Corrupt (what ^ " layout mismatch"))
  | None -> ());
  let nd = state k node in
  read_section k nd ~node r ~delta;
  for i = 0 to Array.length l.sides - 1 do
    read_side r (l.sides.(i) nd.x)
  done;
  S.expect_end r what;
  clear_dirty k nd.x

let restore_node k node blob = read_node k node blob ~delta:false
let apply_delta k node blob = read_node k node blob ~delta:true

let checkpoint k =
  let w = S.writer () in
  let magic, _, _ = k.magics in
  S.write_string w magic;
  write_flag w k;
  S.write_varint w (Array.length k.nodes);
  Array.iteri (fun node _ -> write_section w k (state k node).x ~delta:false) k.nodes;
  Array.iter
    (fun get ->
      S.write_sorted w compare
        (fun f ->
          for node = 0 to Array.length k.nodes - 1 do
            Side_store.iter (get (state k node).x).entries (fun ~key tuple -> f (node, key) tuple)
          done)
        (fun (node, key) tuple ->
          S.write_varint w node;
          S.write_digest w key;
          Tuple.serialize w tuple))
    k.layout.sides;
  Option.iter (fun e -> S.write_varint w (Atomic.get e.tally)) k.layout.extra;
  S.contents w

let read_store k r ~nodes =
  for node = 0 to nodes - 1 do
    read_section k (state k node) ~node r ~delta:false
  done;
  Array.iter
    (fun get ->
      ignore (S.read_list r (fun () ->
         let node = S.read_varint r in
         if node >= nodes then raise (S.Corrupt "side entry past the cluster");
         Side_store.put (get (state k node).x).entries (read_entry r))))
    k.layout.sides;
  Option.iter (fun e -> Atomic.set e.tally (S.read_varint r)) k.layout.extra

(* Reads a whole-store checkpoint into the store [create] builds from the
   scheme's header (Advanced's layout flag) and the node count. *)
let restore ~tag ~name blob create =
  let r = S.reader blob in
  expect_magic r ~name (magic tag "") "checkpoint";
  let create = create r in
  let nodes = S.read_count r in
  if nodes < 1 then raise (S.Corrupt "checkpoint of no nodes");
  match create ~nodes with
  | Store s as store ->
      read_store s.kit r ~nodes;
      S.expect_end r "checkpoint";
      store
