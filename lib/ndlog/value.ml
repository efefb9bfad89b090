module Sha1 = Dpc_util.Sha1

type t = Int of int | Str of string | Bool of bool | Addr of int

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Addr x, Addr y -> x = y
  | (Int _ | Str _ | Bool _ | Addr _), _ -> false

let hash = Hashtbl.hash

let canonical = function
  | Int i -> "i:" ^ string_of_int i
  | Str s -> "s:" ^ string_of_int (String.length s) ^ ":" ^ s
  | Bool b -> if b then "b:true" else "b:false"
  | Addr a -> "@" ^ string_of_int a

(* [add_canonical] must add exactly the bytes of [canonical]; a [Str]
   payload is added by reference, never copied. *)
let add_canonical s = function
  | Int i ->
      Sha1.add s "i:";
      Sha1.add_int s i
  | Str p ->
      Sha1.add s "s:";
      Sha1.add_int s (String.length p);
      Sha1.add s ":";
      Sha1.add s p
  | Bool b -> Sha1.add s (if b then "b:true" else "b:false")
  | Addr a ->
      Sha1.add s "@";
      Sha1.add_int s a

(* Payload interning for the digest path. A [Str] payload longer than
   [payload_inline_max] contributes its own SHA-1 (20 bytes) to the tuple
   digest instead of its raw bytes, and that inner digest is cached per
   domain keyed by content — so a 500-byte payload forwarded over k hops
   is hashed once, not k times (each hop rebuilds the head tuple, which
   shares the payload string but not the tuple's digest memo). Injective
   vs plain rendering: the "h:" lead piece is disjoint from "i:"/"s:"/
   "b:"/"@", and the length-based threshold is deterministic, so equal
   values always render the same way and distinct values never collide
   (short of a SHA-1 collision). The cache is bounded and reset-on-cap;
   eviction only costs a re-hash. It is made at its cap, so a reset only
   empties its buckets: one that shrank back would regrow its bucket
   arrays, about 7,200 words straight into the major heap, every 4,096
   payloads. *)
let payload_inline_max = 64
let payload_cache_cap = 4096

let payload_cache_key : (string, Sha1.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create payload_cache_cap)

let payload_cache_size () = Hashtbl.length (Domain.DLS.get payload_cache_key)
let reset_payload_cache () = Hashtbl.reset (Domain.DLS.get payload_cache_key)

(* A one-shot digest, which the stream API allows mid-stream. *)
let payload_digest payload =
  let cache = Domain.DLS.get payload_cache_key in
  match Hashtbl.find cache payload with
  | d -> d
  | exception Not_found ->
      if Hashtbl.length cache >= payload_cache_cap then Hashtbl.reset cache;
      let d = Sha1.digest_string payload in
      Hashtbl.add cache payload d;
      d

let add_interned s = function
  | Str p when String.length p > payload_inline_max ->
      Sha1.add s "h:";
      Sha1.add_int s (String.length p);
      Sha1.add s ":";
      Sha1.add s (Sha1.to_raw (payload_digest p))
  | (Int _ | Str _ | Bool _ | Addr _) as v -> add_canonical s v

let pp fmt = function
  | Int i -> Format.pp_print_int fmt i
  | Str s -> Format.fprintf fmt "%S" s
  | Bool b -> Format.pp_print_bool fmt b
  | Addr a -> Format.fprintf fmt "n%d" a

let to_string v = Format.asprintf "%a" pp v

let addr_exn = function
  | Addr a -> a
  | Int _ | Str _ | Bool _ -> invalid_arg "Value.addr_exn: not an address"

let int_exn = function
  | Int i -> i
  | Str _ | Bool _ | Addr _ -> invalid_arg "Value.int_exn: not an int"

let bool_exn = function
  | Bool b -> b
  | Int _ | Str _ | Addr _ -> invalid_arg "Value.bool_exn: not a bool"

let str_exn = function
  | Str s -> s
  | Int _ | Bool _ | Addr _ -> invalid_arg "Value.str_exn: not a string"

let wire_size = function
  | Int _ -> 8
  | Str s -> 4 + String.length s
  | Bool _ -> 1
  | Addr _ -> 4

let serialize w v =
  let open Dpc_util.Serialize in
  match v with
  | Int i ->
      write_varint w 0;
      write_int w i
  | Str s ->
      write_varint w 1;
      write_string w s
  | Bool b ->
      write_varint w 2;
      write_bool w b
  | Addr a ->
      write_varint w 3;
      write_varint w a

let deserialize r =
  let open Dpc_util.Serialize in
  match read_varint r with
  | 0 -> Int (read_int r)
  | 1 -> Str (read_string r)
  | 2 -> Bool (read_bool r)
  | 3 -> Addr (read_varint r)
  | tag -> raise (Corrupt (Printf.sprintf "Value.deserialize: bad tag %d" tag))

module For_testing = struct
  let payload_inline_max = payload_inline_max
  let payload_cache_cap = payload_cache_cap
  let payload_cache_size = payload_cache_size
  let int_exn = int_exn
  let bool_exn = bool_exn
  let str_exn = str_exn
end
