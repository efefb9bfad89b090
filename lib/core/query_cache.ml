(* An entry's dependency snapshot holds one int per node the walk read:
   the node in the high [node_bits] bits, its generation when read in the
   low [gen_bits]. *)
let node_bits = 22
let gen_bits = Sys.int_size - 1 - node_bits
let max_node = (1 lsl node_bits) - 1
let max_gen = (1 lsl gen_bits) - 1
let node_of dep = dep lsr gen_bits

(* [Array.exists] without the closure it allocates per call. *)
let rec exists_dep p deps i = i < Array.length deps && (p deps.(i) || exists_dep p deps (i + 1))

let rec reads deps node i = i < Array.length deps && (node_of deps.(i) = node || reads deps node (i + 1))

type entry = {
  trees : Prov_tree.t list;
  deps : int array;
  mutable last_use : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  capacity : int;
  tick : node:int -> string -> int -> unit;
  mutable clock : int;  (* monotone use counter driving LRU eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  lock : Mutex.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ~tick () =
  if capacity < 1 then invalid_arg "Query_cache.create: capacity must be positive";
  {
    table = Hashtbl.create 256;
    capacity;
    tick;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    lock = Mutex.create ();
  }

let key ~loc ~rid ~ctx =
  let b = Buffer.create (8 + 20 + String.length ctx) in
  Buffer.add_string b (string_of_int loc);
  Buffer.add_char b '|';
  Buffer.add_string b (Dpc_util.Sha1.to_raw rid);
  Buffer.add_string b ctx;
  Buffer.contents b

let find t ~querier ~up ~gen key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
          t.misses <- t.misses + 1;
          t.tick ~node:querier "query.cache.miss" 1;
          None
      | Some entry ->
          if exists_dep (fun dep -> not (up (node_of dep))) entry.deps 0 then begin
            (* A dep is down: the real walk degrades exactly as it would
               cache-off, so this must be a miss — but the entry itself is
               still valid once the node is back, so keep it. *)
            t.misses <- t.misses + 1;
            t.tick ~node:querier "query.cache.miss" 1;
            None
          end
          else if exists_dep (fun dep -> gen (node_of dep) <> dep land max_gen) entry.deps 0
          then begin
            Hashtbl.remove t.table key;
            t.invalidations <- t.invalidations + 1;
            t.tick ~node:querier "query.cache.invalidate" 1;
            t.misses <- t.misses + 1;
            t.tick ~node:querier "query.cache.miss" 1;
            None
          end
          else begin
            t.clock <- t.clock + 1;
            entry.last_use <- t.clock;
            t.hits <- t.hits + 1;
            t.tick ~node:querier "query.cache.hit" 1;
            Some entry.trees
          end)

(* Over capacity: drop the least-recently-used half in one sweep. Cheaper
   than a per-hit ordering structure, and the cache is consulted far more
   often than it overflows. *)
let evict_locked t ~querier =
  let uses = Hashtbl.fold (fun _ e acc -> e.last_use :: acc) t.table [] in
  let sorted = List.sort compare uses in
  let keep = max 1 (t.capacity / 2) in
  let cutoff = List.nth sorted (List.length sorted - keep) in
  let doomed =
    Hashtbl.fold (fun k e acc -> if e.last_use < cutoff then k :: acc else acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  let n = List.length doomed in
  t.evictions <- t.evictions + n;
  if n > 0 then t.tick ~node:querier "query.cache.evict" n

(* Pack [nodes] with their generations into [deps] from index [i]; false
   if a node or a generation is outside its field. *)
let rec pack deps ~gen i = function
  | [] -> true
  | node :: rest ->
      let g = gen node in
      node >= 0 && node <= max_node && g >= 0 && g <= max_gen
      && begin
        deps.(i) <- (node lsl gen_bits) lor g;
        pack deps ~gen (i + 1) rest
      end

let add t ~querier ~gen ~touched key trees =
  let deps = Array.make (List.length touched) 0 in
  if pack deps ~gen 0 touched then
    Mutex.protect t.lock (fun () ->
        t.clock <- t.clock + 1;
        Hashtbl.replace t.table key { trees; deps; last_use = t.clock };
        if Hashtbl.length t.table > t.capacity then evict_locked t ~querier)

let invalidate_node t node =
  Mutex.protect t.lock (fun () ->
      let doomed =
        Hashtbl.fold (fun k e acc -> if reads e.deps node 0 then k :: acc else acc) t.table []
      in
      List.iter (Hashtbl.remove t.table) doomed;
      let n = List.length doomed in
      t.invalidations <- t.invalidations + n;
      if n > 0 then t.tick ~node "query.cache.invalidate" n)

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        size = Hashtbl.length t.table;
      })

module For_testing = struct
  let max_node = max_node
  let max_gen = max_gen
  let clear = clear
end
