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
    Buffer.clear s.buf;
    match f s.buf with
    | () ->
        s.busy <- false;
        Buffer.contents s.buf
    | exception e ->
        s.busy <- false;
        raise e
  end

(* Canonical order: a table goes out sorted, whatever order its hash
   table holds it in. Its entries go into per-domain scratch arrays that
   only grow (keys and values side by side), and what is sorted is an
   array of their indices, so the merges move ints and write no pointer
   into the (major-heap) entry arrays. The arrays are used as a stack, so
   a cut allocates no list and no array, and [write_sorted]'s [write] may
   sort a nested table above the outer one's entries (Db's relations,
   then each relation's tuples). An entry sits in the arrays as [Obj.t]
   only from its fill until the call that filled it returns, and is read
   back at the types it went in with; the arrays are built from an
   immediate, so they are never flat float arrays. *)
type sort_scratch = {
  mutable keys : Obj.t array;
  mutable values : Obj.t array;
  mutable order : int array;  (* indices into [keys], sorted in place *)
  mutable top : int;
  mutable push : Obj.t -> Obj.t -> unit;  (* append one entry, made once per domain *)
}

(* Room for [need] entries and indices, keeping those below [top]. *)
let reserve s need =
  if need > Array.length s.keys then begin
    let cap = max need (max 64 (2 * Array.length s.keys)) in
    let grow a empty =
      let b = Array.make cap empty in
      Array.blit a 0 b 0 s.top;
      b
    in
    s.keys <- grow s.keys (Obj.repr 0);
    s.values <- grow s.values (Obj.repr 0);
    s.order <- grow s.order 0
  end

let sort_key =
  Domain.DLS.new_key (fun () ->
    let s = { keys = [||]; values = [||]; order = [||]; top = 0; push = (fun _ _ -> ()) } in
    s.push <-
      (fun k v ->
        reserve s (s.top + 1);
        s.keys.(s.top) <- k;
        s.values.(s.top) <- v;
        s.top <- s.top + 1);
    s)

(* [Array.stable_sort]'s merge sort, over [a.(ofs)] to [a.(ofs + n - 1)]
   of one index array, comparing the items the indices name: [a.(ofs +
   n)] onwards takes the upper half while it is sorted, where
   [Array.stable_sort] allocates a second array. Top-level functions with
   every argument passed, so sorting allocates nothing. *)
let rec merge_loop cmp items a src1r src2r i1 s1 i2 s2 d =
  if cmp items.(s1) items.(s2) <= 0 then begin
    a.(d) <- s1;
    let i1 = i1 + 1 in
    if i1 < src1r then merge_loop cmp items a src1r src2r i1 a.(i1) i2 s2 (d + 1)
    else Array.blit a i2 a (d + 1) (src2r - i2)
  end
  else begin
    a.(d) <- s2;
    let i2 = i2 + 1 in
    if i2 < src2r then merge_loop cmp items a src1r src2r i1 s1 i2 a.(i2) (d + 1)
    else Array.blit a i1 a (d + 1) (src1r - i1)
  end

let merge cmp items a src1ofs src1len src2ofs src2len dstofs =
  merge_loop cmp items a (src1ofs + src1len) (src2ofs + src2len) src1ofs a.(src1ofs) src2ofs
    a.(src2ofs) dstofs

let isortto cmp items a srcofs dstofs len =
  for i = 0 to len - 1 do
    let e = a.(srcofs + i) in
    let j = ref (dstofs + i - 1) in
    while !j >= dstofs && cmp items.(a.(!j)) items.(e) > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- e
  done

let rec sortto cmp items a srcofs dstofs len =
  if len <= 5 then isortto cmp items a srcofs dstofs len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sortto cmp items a (srcofs + l1) (dstofs + l1) l2;
    sortto cmp items a srcofs (srcofs + l2) l1;
    merge cmp items a (srcofs + l2) l1 (dstofs + l1) l2 dstofs
  end

let merge_sort cmp items a ofs n =
  if n <= 5 then isortto cmp items a ofs ofs n
  else begin
    let l1 = n / 2 in
    let l2 = n - l1 in
    sortto cmp items a (ofs + l1) (ofs + n) l2;
    sortto cmp items a ofs (ofs + l2) l1;
    merge cmp items a (ofs + l2) l1 (ofs + n) l2 ofs
  end

let release s base len =
  Array.fill s.keys base len (Obj.repr 0);
  Array.fill s.values base len (Obj.repr 0);
  s.top <- base

let write_sorted w compare iter write =
  let s = Domain.DLS.get sort_key in
  let base = s.top in
  match
    iter (Obj.magic s.push : _ -> _ -> unit);
    let n = s.top - base in
    reserve s (base + n + n - (n / 2));
    for i = base to base + n - 1 do
      s.order.(i) <- i
    done;
    merge_sort (Obj.magic compare : Obj.t -> Obj.t -> int) s.keys s.order base n;
    write_varint w n;
    (* A nested call may grow the arrays: read them afresh. *)
    for i = base to base + n - 1 do
      let e = s.order.(i) in
      write (Obj.obj s.keys.(e)) (Obj.obj s.values.(e))
    done;
    n
  with
  | n -> release s base n
  | exception e ->
      release s base (Array.length s.keys - base);
      raise e

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
