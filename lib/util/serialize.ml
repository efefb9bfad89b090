exception Corrupt of string

type writer = Buffer.t

let writer () = Buffer.create 256

let write_int buf v =
  for k = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

let rec write_varint buf v =
  if v < 0 then invalid_arg "Serialize.write_varint: negative";
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
    write_varint buf (v lsr 7)
  end

let varint_size v =
  if v < 0 then invalid_arg "Serialize.varint_size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let write_int64 buf v =
  for k = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
  done

let write_float buf f = write_int64 buf (Int64.bits_of_float f)
let write_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let write_list buf f xs =
  write_varint buf (List.length xs);
  List.iter f xs

let contents = Buffer.contents
let sub = Buffer.sub
let size = Buffer.length
let reset = Buffer.clear

(* Per-domain scratch writer for one-shot blobs (checkpoints, deltas).
   The buffer is reused across calls, so a hot path that serializes
   thousands of blobs allocates the backing store once per domain instead
   of once per blob — and a blob bigger than any before grows the arena
   for all that follow. Nested calls on the same domain fall back to a
   fresh buffer rather than corrupting the arena. *)
type scratch = { buf : Buffer.t; mutable busy : bool }

let scratch_key = Domain.DLS.new_key (fun () -> { buf = Buffer.create 4096; busy = false })

let with_scratch f =
  let s = Domain.DLS.get scratch_key in
  if s.busy then begin
    let w = Buffer.create 4096 in
    f w;
    Buffer.contents w
  end
  else begin
    s.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        s.busy <- false;
        Buffer.clear s.buf)
      (fun () ->
        Buffer.clear s.buf;
        f s.buf;
        Buffer.contents s.buf)
  end

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let byte r =
  if r.pos >= String.length r.data then raise (Corrupt "unexpected end of input");
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_int r =
  let v = ref 0 in
  for k = 0 to 7 do
    v := !v lor (byte r lsl (8 * k))
  done;
  !v

(* [write_varint] never writes more than nine bytes, and never a value
   with the sign bit set: anything else is damage, not a large number. *)
let read_varint r =
  let rec go shift acc =
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then
      if acc < 0 then raise (Corrupt "varint overflows an int") else acc
    else if shift >= 56 then raise (Corrupt "varint longer than nine bytes")
    else go (shift + 7) acc
  in
  go 0 0

let read_int64 r =
  let v = ref 0L in
  for k = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte r)) (8 * k))
  done;
  !v

let read_float r = Int64.float_of_bits (read_int64 r)
let read_bool r = byte r <> 0

let read_string r =
  let len = read_varint r in
  if len > String.length r.data - r.pos then raise (Corrupt "string overruns input");
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_count r =
  let n = read_varint r in
  if n > String.length r.data - r.pos then raise (Corrupt "count overruns input");
  n

let read_list r f =
  let n = read_count r in
  List.init n (fun _ -> f ())

let write_digest w d = write_string w (Sha1.to_raw d)

let read_digest r =
  let raw = read_string r in
  if String.length raw <> 20 then raise (Corrupt "digest is not 20 bytes");
  Sha1.of_raw raw

let at_end r = r.pos = String.length r.data
