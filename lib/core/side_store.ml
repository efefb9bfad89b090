open Dpc_ndlog

(* Keyed by the raw 20-byte digest. *)
type t = { tuples : (string, Tuple.t) Hashtbl.t; mutable bytes : int }

let create () = { tuples = Hashtbl.create 32; bytes = 0 }

let put_new t ~key tuple =
  let k = Dpc_util.Sha1.to_raw key in
  if Hashtbl.mem t.tuples k then false
  else begin
    Hashtbl.add t.tuples k tuple;
    t.bytes <- t.bytes + 20 + Tuple.wire_size tuple;
    true
  end

let put t ~key tuple = ignore (put_new t ~key tuple)

let get t ~key = Hashtbl.find_opt t.tuples (Dpc_util.Sha1.to_raw key)
let find t ~key = Hashtbl.find t.tuples (Dpc_util.Sha1.to_raw key)
let bytes t = t.bytes
let count t = Hashtbl.length t.tuples
let iter t f = Hashtbl.iter (fun k tuple -> f ~key:(Dpc_util.Sha1.of_raw k) tuple) t.tuples
