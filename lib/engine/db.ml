open Dpc_ndlog

module Tuple_tbl = Hashtbl.Make (Tuple)

(* Per-relation state: the primary table, mapping each tuple to its
   insertion stamp; an incrementally-maintained serialized-byte counter;
   and any secondary indexes built so far.

   An index on [positions] groups the tuples that agree on the values at
   those positions into one bucket, newest insert first. Buckets hang off
   an array of chains by the hash of their key values, so a probe whose
   key is read from a register file and constants allocates nothing. An
   index on no position has a single bucket: the whole relation. *)
type key_part = Reg of int | Lit of Value.t

type bucket = { hash : int; mutable members : Tuple.t list (* never empty *) }

type index = {
  positions : int array;
  mutable chains : bucket list array;  (* length a power of two *)
  mutable buckets : int;
}

type rel_state = {
  tuples : int Tuple_tbl.t;
  mutable next_stamp : int;
  mutable bytes : int;
  mutable indexes : index list;
}

type t = {
  tables : (string, rel_state) Hashtbl.t;
  (* Dirty op log for delta snapshots: every effective insert/remove
     since the last cut, oldest first ([true] = insert). Chronological
     order matters — a tuple removed and re-added must end up present —
     so this is a log, not a pair of sets. *)
  mutable track_dirty : bool;
  dirty : (bool * Tuple.t) Queue.t;
}

let create () = { tables = Hashtbl.create 8; track_dirty = false; dirty = Queue.create () }

let set_dirty_tracking t b = t.track_dirty <- b

let debug_recount = ref false
let set_debug_recount b = debug_recount := b

let rel_state t rel =
  match Hashtbl.find t.tables rel with
  | rs -> rs
  | exception Not_found ->
      let rs = { tuples = Tuple_tbl.create 16; next_stamp = 0; bytes = 0; indexes = [] } in
      Hashtbl.add t.tables rel rs;
      rs

let part_value regs = function Reg r -> regs.(r) | Lit v -> v

let mix h v = (h * 31) + Value.hash v

let hash_tuple positions tuple =
  let args = Tuple.args tuple in
  let h = ref 0 in
  for i = 0 to Array.length positions - 1 do
    h := mix !h args.(positions.(i))
  done;
  !h

let hash_key key regs =
  let h = ref 0 in
  for i = 0 to Array.length key - 1 do
    h := mix !h (part_value regs key.(i))
  done;
  !h

let key_matches ~positions ~key regs tuple =
  let args = Tuple.args tuple in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length positions do
    ok := Value.equal args.(positions.(!i)) (part_value regs key.(!i));
    incr i
  done;
  !ok

let same_key positions a b =
  let a = Tuple.args a and b = Tuple.args b in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length positions do
    ok := Value.equal a.(positions.(!i)) b.(positions.(!i));
    incr i
  done;
  !ok

let chain idx h = h land (Array.length idx.chains - 1)

let rec probe_chain positions key regs h = function
  | [] -> []
  | b :: rest ->
      if b.hash = h && key_matches ~positions ~key regs (List.hd b.members) then b.members
      else probe_chain positions key regs h rest

let rec bucket_of positions h tuple = function
  | [] -> raise Not_found
  | b :: rest ->
      if b.hash = h && same_key positions tuple (List.hd b.members) then b
      else bucket_of positions h tuple rest

let grow idx =
  let chains = Array.make (2 * Array.length idx.chains) [] in
  let mask = Array.length chains - 1 in
  Array.iter
    (List.iter (fun b -> chains.(b.hash land mask) <- b :: chains.(b.hash land mask)))
    idx.chains;
  idx.chains <- chains

let bucket_add idx tuple =
  let h = hash_tuple idx.positions tuple in
  let c = chain idx h in
  match bucket_of idx.positions h tuple idx.chains.(c) with
  | b -> b.members <- tuple :: b.members
  | exception Not_found ->
      idx.chains.(c) <- { hash = h; members = [ tuple ] } :: idx.chains.(c);
      idx.buckets <- idx.buckets + 1;
      if idx.buckets > 2 * Array.length idx.chains then grow idx

let bucket_remove idx tuple =
  let h = hash_tuple idx.positions tuple in
  let c = chain idx h in
  match bucket_of idx.positions h tuple idx.chains.(c) with
  | exception Not_found -> ()
  | b -> (
      b.members <- List.filter (fun u -> not (Tuple.equal u tuple)) b.members;
      match b.members with
      | [] ->
          idx.chains.(c) <- List.filter (fun b' -> b' != b) idx.chains.(c);
          idx.buckets <- idx.buckets - 1
      | _ :: _ -> ())

let insert t tuple =
  let rs = rel_state t (Tuple.rel tuple) in
  if Tuple_tbl.mem rs.tuples tuple then false
  else begin
    Tuple_tbl.add rs.tuples tuple rs.next_stamp;
    rs.next_stamp <- rs.next_stamp + 1;
    rs.bytes <- rs.bytes + Tuple.serialized_size tuple;
    List.iter (fun idx -> bucket_add idx tuple) rs.indexes;
    if t.track_dirty then Queue.add (true, tuple) t.dirty;
    true
  end

let remove t tuple =
  match Hashtbl.find t.tables (Tuple.rel tuple) with
  | exception Not_found -> false
  | rs ->
      if Tuple_tbl.mem rs.tuples tuple then begin
        Tuple_tbl.remove rs.tuples tuple;
        rs.bytes <- rs.bytes - Tuple.serialized_size tuple;
        List.iter (fun idx -> bucket_remove idx tuple) rs.indexes;
        if t.track_dirty then Queue.add (false, tuple) t.dirty;
        true
      end
      else false

let mem t tuple =
  match Hashtbl.find t.tables (Tuple.rel tuple) with
  | exception Not_found -> false
  | rs -> Tuple_tbl.mem rs.tuples tuple

let scan t rel =
  match Hashtbl.find t.tables rel with
  | exception Not_found -> []
  | rs -> List.sort Tuple.compare (Tuple_tbl.fold (fun tuple _ acc -> tuple :: acc) rs.tuples [])

(* Built on the first probe on [positions], from the tuples present in
   insertion order (so each bucket holds its newest insert first, as if
   the index had existed all along), then kept current by insert/remove. *)
let build_index rs positions =
  let n = Tuple_tbl.length rs.tuples in
  let size = ref 16 in
  while !size < n do
    size := 2 * !size
  done;
  let idx = { positions; chains = Array.make !size []; buckets = 0 } in
  Tuple_tbl.fold (fun tuple stamp acc -> (stamp, tuple) :: acc) rs.tuples []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, tuple) -> bucket_add idx tuple);
  rs.indexes <- idx :: rs.indexes;
  idx

let rec find_index positions = function
  | [] -> raise Not_found
  | idx :: rest ->
      if idx.positions == positions || idx.positions = positions then idx
      else find_index positions rest

let probe t ~rel ~positions ~key regs =
  match Hashtbl.find t.tables rel with
  | exception Not_found -> []
  | rs ->
      let idx =
        match find_index positions rs.indexes with
        | idx -> idx
        | exception Not_found -> build_index rs positions
      in
      let h = hash_key key regs in
      probe_chain idx.positions key regs h idx.chains.(chain idx h)

let lookup t ~rel ~positions ~key =
  probe t ~rel ~positions:(Array.of_list positions)
    ~key:(Array.of_list (List.map (fun v -> Lit v) key))
    [||]

let relations t =
  Hashtbl.fold
    (fun rel rs acc -> if Tuple_tbl.length rs.tuples > 0 then rel :: acc else acc)
    t.tables []
  |> List.sort String.compare

let cardinality t rel =
  match Hashtbl.find t.tables rel with
  | exception Not_found -> 0
  | rs -> Tuple_tbl.length rs.tuples

let total_tuples t = Hashtbl.fold (fun _ rs acc -> acc + Tuple_tbl.length rs.tuples) t.tables 0

let clear t =
  Hashtbl.reset t.tables;
  Queue.clear t.dirty

module S = Dpc_util.Serialize

(* The canonical serialization: relations sorted by name, tuples in scan
   order — byte-stable for a given store state. [snapshot] SEALS a cut
   around it (the dirty log restarts, so the next [snapshot_delta]
   carries exactly the changes since here); [canonical] is the pure
   observation the digest oracles take between cuts. *)
let canonical t =
  S.with_scratch (fun w ->
    S.write_sorted w String.compare
      (fun f -> Hashtbl.iter (fun rel rs -> if Tuple_tbl.length rs.tuples > 0 then f rel rs) t.tables)
      (fun rel rs ->
        S.write_string w rel;
        S.write_sorted w Tuple.compare
          (fun f -> Tuple_tbl.iter f rs.tuples)
          (fun tuple _ -> Tuple.serialize w tuple)))

let snapshot t =
  let blob = canonical t in
  Queue.clear t.dirty;
  blob

let snapshot_delta t =
  let blob =
    S.with_scratch (fun w ->
      S.write_varint w (Queue.length t.dirty);
      Queue.iter
        (fun (add, tuple) ->
          S.write_bool w add;
          Tuple.serialize w tuple)
        t.dirty)
  in
  Queue.clear t.dirty;
  blob

(* Restores clear the dirty log: the loaded state IS the cut, not a
   change since it. *)
let load t blob =
  let r = Dpc_util.Serialize.reader blob in
  ignore
    (Dpc_util.Serialize.read_list r (fun () ->
       let _rel = Dpc_util.Serialize.read_string r in
       ignore
         (Dpc_util.Serialize.read_list r (fun () -> ignore (insert t (Tuple.deserialize r))))));
  Queue.clear t.dirty

let apply_delta t blob =
  let r = Dpc_util.Serialize.reader blob in
  ignore
    (Dpc_util.Serialize.read_list r (fun () ->
       let add = Dpc_util.Serialize.read_bool r in
       let tuple = Tuple.deserialize r in
       if add then ignore (insert t tuple) else ignore (remove t tuple)));
  Queue.clear t.dirty

let recount_bytes t =
  let w = Dpc_util.Serialize.writer () in
  List.iter
    (fun rel -> List.iter (fun tuple -> Tuple.serialize w tuple) (scan t rel))
    (relations t);
  Dpc_util.Serialize.size w

let size_bytes t =
  let n = Hashtbl.fold (fun _ rs acc -> acc + rs.bytes) t.tables 0 in
  if !debug_recount then begin
    let full = recount_bytes t in
    if n <> full then
      invalid_arg
        (Printf.sprintf "Db.size_bytes: incremental counter %d <> recount %d" n full)
  end;
  n
