module S = Dpc_util.Serialize
module Tuple = Dpc_ndlog.Tuple

type status = {
  node : int;
  recovered : bool;
  unacked : int;
  data_sent : int;
  data_received : int;
  fired : int;
  outputs : int;
  wal_entries : int;
  outbox_bytes : int;
}

type request =
  | Load of Tuple.t list
  | Inject of Tuple.t
  | Slow_insert of Tuple.t
  | Slow_delete of Tuple.t
  | Checkpoint
  | Status
  | Digest
  | Shutdown
  | Compact
  | Block of int
  | Unblock of int

type reply =
  | Ok
  | Deleted of bool
  | Status_r of status
  | Digest_r of { node : int; store : string; db : string }
  | Error of string

let encode_request req =
  S.with_scratch (fun w ->
      match req with
      | Load tuples ->
          S.write_varint w 0;
          S.write_list w (Tuple.serialize w) tuples
      | Inject tuple ->
          S.write_varint w 1;
          Tuple.serialize w tuple
      | Slow_insert tuple ->
          S.write_varint w 2;
          Tuple.serialize w tuple
      | Slow_delete tuple ->
          S.write_varint w 3;
          Tuple.serialize w tuple
      | Checkpoint -> S.write_varint w 4
      | Status -> S.write_varint w 5
      | Digest -> S.write_varint w 6
      | Shutdown -> S.write_varint w 7
      | Compact -> S.write_varint w 8
      | Block peer ->
          S.write_varint w 9;
          S.write_varint w peer
      | Unblock peer ->
          S.write_varint w 10;
          S.write_varint w peer)

let decode_request payload =
  let r = S.reader payload in
  let request =
    match S.read_varint r with
    | 0 -> Load (S.read_list r (fun () -> Tuple.deserialize r))
    | 1 -> Inject (Tuple.deserialize r)
    | 2 -> Slow_insert (Tuple.deserialize r)
    | 3 -> Slow_delete (Tuple.deserialize r)
    | 4 -> Checkpoint
    | 5 -> Status
    | 6 -> Digest
    | 7 -> Shutdown
    | 8 -> Compact
    | 9 -> Block (S.read_varint r)
    | 10 -> Unblock (S.read_varint r)
    | tag -> raise (S.Corrupt (Printf.sprintf "control request: unknown tag %d" tag))
  in
  S.expect_end r "control request";
  request

let encode_reply reply =
  S.with_scratch (fun w ->
      match reply with
      | Ok -> S.write_varint w 0
      | Deleted present ->
          S.write_varint w 1;
          S.write_bool w present
      | Status_r s ->
          S.write_varint w 2;
          S.write_varint w s.node;
          S.write_bool w s.recovered;
          S.write_varint w s.unacked;
          S.write_varint w s.data_sent;
          S.write_varint w s.data_received;
          S.write_varint w s.fired;
          S.write_varint w s.outputs;
          S.write_varint w s.wal_entries;
          S.write_varint w s.outbox_bytes
      | Digest_r { node; store; db } ->
          S.write_varint w 3;
          S.write_varint w node;
          S.write_string w store;
          S.write_string w db
      | Error msg ->
          S.write_varint w 4;
          S.write_string w msg)

let decode_reply payload =
  let r = S.reader payload in
  let reply =
    match S.read_varint r with
    | 0 -> Ok
    | 1 -> Deleted (S.read_bool r)
    | 2 ->
        let node = S.read_varint r in
        let recovered = S.read_bool r in
        let unacked = S.read_varint r in
        let data_sent = S.read_varint r in
        let data_received = S.read_varint r in
        let fired = S.read_varint r in
        let outputs = S.read_varint r in
        let wal_entries = S.read_varint r in
        let outbox_bytes = S.read_varint r in
        Status_r
          { node; recovered; unacked; data_sent; data_received; fired; outputs; wal_entries;
            outbox_bytes }
    | 3 ->
        let node = S.read_varint r in
        let store = S.read_string r in
        let db = S.read_string r in
        Digest_r { node; store; db }
    | 4 -> Error (S.read_string r)
    | tag -> raise (S.Corrupt (Printf.sprintf "control reply: unknown tag %d" tag))
  in
  S.expect_end r "control reply";
  reply
