open Dpc_ndlog

type entry =
  | Input of Tuple.t
  | Arrival of { event : Tuple.t; meta : Prov_hook.meta }
  | Sig of { op : Prov_hook.slow_op; tuple : Tuple.t }
  | Slow_insert of Tuple.t
  | Slow_delete of Tuple.t
  | Load of Tuple.t
  | Next_seq of { peer : int; seq : int }
  | Expected of { peer : int; seq : int }

let is_boundary = function Next_seq _ | Expected _ -> false | _ -> true

module S = Dpc_util.Serialize

let write_meta w (m : Prov_hook.meta) =
  S.write_digest w m.evid;
  S.write_bool w m.exist_flag;
  (match m.eqkey with
  | None -> S.write_bool w false
  | Some k ->
      S.write_bool w true;
      S.write_digest w k);
  Prov_hook.write_back w m.prev

let read_meta r : Prov_hook.meta =
  let evid = S.read_digest r in
  let exist_flag = S.read_bool r in
  let eqkey = if S.read_bool r then Some (S.read_digest r) else None in
  let prev = Prov_hook.read_back r in
  { evid; exist_flag; eqkey; prev }

let write_next_seq w ~peer ~seq =
  S.write_varint w 6;
  S.write_varint w peer;
  S.write_varint w seq

let write_expected w ~peer ~seq =
  S.write_varint w 7;
  S.write_varint w peer;
  S.write_varint w seq

let write w = function
  | Input tuple ->
      S.write_varint w 0;
      Tuple.serialize w tuple
  | Arrival { event; meta } ->
      S.write_varint w 1;
      Tuple.serialize w event;
      write_meta w meta
  | Sig { op; tuple } ->
      S.write_varint w 2;
      S.write_bool w (op = Prov_hook.Slow_insert);
      Tuple.serialize w tuple
  | Slow_insert tuple ->
      S.write_varint w 3;
      Tuple.serialize w tuple
  | Slow_delete tuple ->
      S.write_varint w 4;
      Tuple.serialize w tuple
  | Load tuple ->
      S.write_varint w 5;
      Tuple.serialize w tuple
  | Next_seq { peer; seq } -> write_next_seq w ~peer ~seq
  | Expected { peer; seq } -> write_expected w ~peer ~seq

let read r =
  match S.read_varint r with
  | 0 -> Input (Tuple.deserialize r)
  | 1 ->
      let event = Tuple.deserialize r in
      let meta = read_meta r in
      Arrival { event; meta }
  | 2 ->
      let op = if S.read_bool r then Prov_hook.Slow_insert else Prov_hook.Slow_delete in
      Sig { op; tuple = Tuple.deserialize r }
  | 3 -> Slow_insert (Tuple.deserialize r)
  | 4 -> Slow_delete (Tuple.deserialize r)
  | 5 -> Load (Tuple.deserialize r)
  | 6 ->
      let peer = S.read_varint r in
      Next_seq { peer; seq = S.read_varint r }
  | 7 ->
      let peer = S.read_varint r in
      Expected { peer; seq = S.read_varint r }
  | tag -> raise (S.Corrupt (Printf.sprintf "unknown journal entry tag %d" tag))
