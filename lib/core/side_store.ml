open Dpc_ndlog

(* One entry per tuple on [Rows.Table], keyed by the raw 20-byte digest
   read from the tuple's memo. *)
type t = Tuple.t Rows.Table.t

let key tuple = Dpc_util.Sha1.to_raw (Tuple.digest tuple)
(* 32 buckets: most side stores stay small (a node keeps input events
   only where they enter), and every node's are made on first touch. *)
let create () =
  Rows.Table.create ~buckets:32 ~key ~row_bytes:(fun tuple -> 20 + Tuple.wire_size tuple) ()
let put_new = Rows.Table.add_first
let put t tuple = ignore (put_new t tuple)
let get t ~key =
  match Rows.Table.first t (Dpc_util.Sha1.to_raw key) with
  | tuple -> Some tuple
  | exception Not_found -> None
let bytes = Rows.Table.bytes
let iter t f = Rows.Table.iter t (fun tuple -> f ~key:(Tuple.digest tuple) tuple)
