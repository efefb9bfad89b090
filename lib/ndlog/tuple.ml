(* The canonical string and the digest are memoized: the engine
   re-canonicalizes the same tuple value at every hop (db keys, vids), and
   the digest is the single most expensive per-firing operation. The memo
   fields are invisible outside this module — [t] is abstract, and
   [equal]/[compare]/[hash] look only at the relation and arguments. *)
type t = {
  rel : string;
  args : Value.t array;
  mutable canonical_memo : string;  (* "" = not yet computed *)
  mutable digest_memo : string;  (* the raw digest; "" = not yet computed *)
}

let build rel args = { rel; args; canonical_memo = ""; digest_memo = "" }

let of_array rel args =
  if Array.length args = 0 then invalid_arg "Tuple.make: empty argument list";
  match args.(0) with
  | Value.Addr _ -> build rel args
  | Value.Int _ | Value.Str _ | Value.Bool _ ->
      invalid_arg "Tuple.make: first attribute must be a node address"

let make rel args = of_array rel (Array.of_list args)

let rel t = t.rel
let args t = t.args
let arity t = Array.length t.args
let loc t = Value.addr_exn t.args.(0)

let arg t i =
  if i < 0 || i >= Array.length t.args then invalid_arg "Tuple.arg: index out of range";
  t.args.(i)

let equal a b =
  String.equal a.rel b.rel
  && Array.length a.args = Array.length b.args
  && Array.for_all2 Value.equal a.args b.args

let compare a b =
  match String.compare a.rel b.rel with
  | 0 -> Stdlib.compare a.args b.args
  | c -> c

(* Every argument is hashed in full ([Hashtbl.hash] of the pair would stop
   after ten values), and no pair is built: Db keys its tables by tuple. *)
let hash t =
  let h = ref (Hashtbl.hash t.rel) in
  for i = 0 to Array.length t.args - 1 do
    h := (!h * 31) + Value.hash t.args.(i)
  done;
  !h land max_int

let canonical t =
  if t.canonical_memo <> "" then t.canonical_memo
  else begin
    (* Size the buffer from the serialized form (same payload, small
       per-field framing differences) so a large payload never forces
       repeated doubling copies. *)
    let estimate =
      String.length t.rel + 2
      + Array.fold_left (fun acc v -> acc + Value.wire_size v + 12) 0 t.args
    in
    let buf = Buffer.create estimate in
    Buffer.add_string buf t.rel;
    Buffer.add_char buf '(';
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Value.canonical v))
      t.args;
    Buffer.add_char buf ')';
    let s = Buffer.contents buf in
    t.canonical_memo <- s;
    s
  end

(* The digest streams the canonical rendering into SHA-1 — except that
   large [Str] payloads are INTERNED ([Value.add_interned]): the stream
   carries the payload's own cached digest instead of its bytes, so a big
   payload is hashed once per distinct content, not once per tuple
   instance carrying it (each hop of a forwarding chain builds a fresh
   head tuple around the same payload). The digest is therefore sha1 of
   the canonical string with large payloads replaced by their interned
   rendering — NOT sha1 (canonical t) — but it remains injective and
   deterministic, which is all the schemes key on. Only the 20-byte
   result is allocated. *)
let digest t =
  if t.digest_memo <> "" then Dpc_util.Sha1.of_raw t.digest_memo
  else begin
    let s = Dpc_util.Sha1.start () in
    Dpc_util.Sha1.add s t.rel;
    Dpc_util.Sha1.add s "(";
    for i = 0 to Array.length t.args - 1 do
      if i > 0 then Dpc_util.Sha1.add s ",";
      Value.add_interned s t.args.(i)
    done;
    Dpc_util.Sha1.add s ")";
    let d = Dpc_util.Sha1.finish s in
    t.digest_memo <- Dpc_util.Sha1.to_raw d;
    d
  end

let pp fmt t =
  Format.fprintf fmt "%s(@@%a" t.rel Value.pp t.args.(0);
  for i = 1 to Array.length t.args - 1 do
    Format.fprintf fmt ", %a" Value.pp t.args.(i)
  done;
  Format.pp_print_char fmt ')'

let to_string t = Format.asprintf "%a" pp t

let wire_size t =
  String.length t.rel + Array.fold_left (fun acc v -> acc + Value.wire_size v) 0 t.args

let serialize w t =
  let open Dpc_util.Serialize in
  write_string w t.rel;
  write_varint w (Array.length t.args);
  (* A loop, not [Array.iter (Value.serialize w)]: the partial
     application would allocate a closure per tuple written to the wal. *)
  for i = 0 to Array.length t.args - 1 do
    Value.serialize w t.args.(i)
  done

(* Must agree byte-for-byte with [serialize]; Db's incremental byte
   counters rely on per-tuple sizes summing to the whole-store size. *)
let serialized_size t =
  let open Dpc_util.Serialize in
  let rel_len = String.length t.rel in
  varint_size rel_len + rel_len
  + varint_size (Array.length t.args)
  + Array.fold_left (fun acc v -> acc + Value.serialized_size v) 0 t.args

let deserialize r =
  let open Dpc_util.Serialize in
  let rel = read_string r in
  let n = read_varint r in
  let args = List.init n (fun _ -> Value.deserialize r) in
  match args with
  | Value.Addr _ :: _ -> build rel (Array.of_list args)
  | [] | (Value.Int _ | Value.Str _ | Value.Bool _) :: _ ->
      raise (Corrupt "Tuple.deserialize: malformed tuple")
