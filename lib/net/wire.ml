module Sha1 = Dpc_util.Sha1
module S = Dpc_util.Serialize

type kind = Data | Ack | Hello | Ctrl

type frame = { kind : kind; src : int; dst : int; seq : int; payload : string }

let control_id = 0xFFFFFFFF
let magic = "DPCW"
let version = 1
let header_bytes = 4 + 1 + 1 + 4 + 4 + 8 + 4 + 20
let max_payload = 16 * 1024 * 1024

let kind_to_byte = function Data -> 0 | Ack -> 1 | Hello -> 2 | Ctrl -> 3

let kind_of_byte = function
  | 0 -> Data
  | 1 -> Ack
  | 2 -> Hello
  | 3 -> Ctrl
  | b -> raise (S.Corrupt (Printf.sprintf "unknown frame kind %d" b))

let put_u32 b off v =
  Bytes.set_uint8 b off ((v lsr 24) land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 3) (v land 0xff)

let get_u32 b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let put_u64 b off v =
  put_u32 b off ((v lsr 32) land 0xFFFFFFFF);
  put_u32 b (off + 4) (v land 0xFFFFFFFF)

let get_u64 b off = (get_u32 b off lsl 32) lor get_u32 b (off + 4)

let encode { kind; src; dst; seq; payload } =
  let bad fmt = Printf.ksprintf invalid_arg ("Wire.encode: " ^^ fmt) in
  if src < 0 || src > control_id then bad "src %d out of range" src;
  if dst < 0 || dst > control_id then bad "dst %d out of range" dst;
  if seq < 0 then bad "negative seq %d" seq;
  let len = String.length payload in
  if len > max_payload then bad "payload of %d bytes too large" len;
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (kind_to_byte kind);
  put_u32 b 6 src;
  put_u32 b 10 dst;
  put_u64 b 14 seq;
  put_u32 b 22 len;
  Bytes.blit_string (Sha1.to_raw (Sha1.digest_string payload)) 0 b 26 20;
  Bytes.blit_string payload 0 b 46 len;
  Bytes.unsafe_to_string b

module Decoder = struct
  (* A growable byte buffer with a consume offset; compacted when the
     consumed prefix dominates, so long sessions do not accrete. *)
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let create () = { buf = Bytes.create 4096; start = 0; stop = 0 }

  let buffered d = d.stop - d.start

  let ensure d extra =
    if d.start > 0 && (d.start > 64 * 1024 || d.stop + extra > Bytes.length d.buf) then begin
      Bytes.blit d.buf d.start d.buf 0 (d.stop - d.start);
      d.stop <- d.stop - d.start;
      d.start <- 0
    end;
    if d.stop + extra > Bytes.length d.buf then begin
      let cap = ref (Bytes.length d.buf) in
      while d.stop + extra > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit d.buf 0 bigger 0 d.stop;
      d.buf <- bigger
    end

  let feed d src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Decoder.feed: bad slice";
    ensure d len;
    Bytes.blit src off d.buf d.stop len;
    d.stop <- d.stop + len

  let next d =
    if buffered d < header_bytes then None
    else begin
      let b = d.buf and o = d.start in
      if not (Bytes.sub_string b o 4 = magic) then raise (S.Corrupt "bad magic");
      let v = Bytes.get_uint8 b (o + 4) in
      if v <> version then raise (S.Corrupt (Printf.sprintf "unsupported wire version %d" v));
      let kind = kind_of_byte (Bytes.get_uint8 b (o + 5)) in
      let src = get_u32 b (o + 6) in
      let dst = get_u32 b (o + 10) in
      (* Sequence numbers are OCaml ints: the top two bits of the u64
         are never set by [encode]. *)
      if get_u32 b (o + 14) > 0x3FFFFFFF then raise (S.Corrupt "seq out of range");
      let seq = get_u64 b (o + 14) in
      let len = get_u32 b (o + 22) in
      if len > max_payload then raise (S.Corrupt (Printf.sprintf "payload of %d bytes too large" len));
      if buffered d < header_bytes + len then None
      else begin
        let digest = Bytes.sub_string b (o + 26) 20 in
        let payload = Bytes.sub_string b (o + 46) len in
        if not (String.equal digest (Sha1.to_raw (Sha1.digest_string payload))) then
          raise (S.Corrupt "payload digest mismatch");
        d.start <- o + header_bytes + len;
        if d.start = d.stop then begin
          d.start <- 0;
          d.stop <- 0
        end;
        Some { kind; src; dst; seq; payload }
      end
    end
end

module For_testing = struct
  let max_payload = max_payload
end
