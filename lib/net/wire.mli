(** The [dpc-wire-v1] frame codec: what actually crosses a process
    boundary.

    Every message between two [dpcd] processes — data payloads,
    cumulative acknowledgements, connection hellos, and control-plane
    requests — travels as one length-prefixed frame:

    {v
    offset  size  field
    0       4     magic "DPCW"
    4       1     version (1)
    5       1     kind (0 data, 1 ack, 2 hello, 3 ctrl)
    6       4     src node id, big-endian (0xffffffff = control client)
    10      4     dst node id, big-endian
    14      8     channel sequence number, big-endian
    22      4     payload length, big-endian
    26      20    SHA-1 digest of the payload bytes
    46      n     payload
    v}

    The digest makes corruption detectable end to end, independent of
    the byte stream underneath; the fixed header makes truncation
    detectable ({!Decoder.next} simply waits for more bytes). A frame
    that fails any check — wrong magic, unknown version or kind, a
    sequence number past [max_int], an oversized length, a digest
    mismatch — raises
    {!Dpc_util.Serialize.Corrupt}, the one decode error of every
    versioned format, and the decoder guarantees no partial delivery:
    either the whole frame is returned or nothing is consumed.

    Payload encodings ride on {!Dpc_util.Serialize} and are the
    receiving layer's business: data frames carry a serialized
    {!Dpc_engine.Journal.entry}, control frames carry the [dpcd]
    control protocol (see [Dpc_proc.Daemon]). *)

type kind =
  | Data  (** a channel payload; [seq] is its per-channel sequence number *)
  | Ack  (** cumulative acknowledgement: every seq [<= seq] was delivered *)
  | Hello  (** first frame on a connection, announcing the dialer's [src] *)
  | Ctrl  (** control-plane request or reply (launcher <-> daemon) *)

type frame = { kind : kind; src : int; dst : int; seq : int; payload : string }

val control_id : int
(** The [src] a control client announces instead of a node id. *)

val header_bytes : int
(** Fixed bytes before the payload (46). *)

val encode : frame -> string
(** The frame's wire bytes. @raise Invalid_argument on an id outside
    [0, control_id], a negative seq or an oversized payload: the
    caller's error, not corrupt input. *)

(** Incremental decoding over any byte stream: feed whatever arrived,
    pull zero or more complete frames. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed d buf off len] appends bytes to the decoder's buffer. *)

  val next : t -> frame option
  (** The next complete frame, or [None] if the buffer holds only a
      frame prefix (truncation is indistinguishable from "not yet
      arrived" on a live stream — the caller decides when a stall is an
      error). Consumes nothing on [None].
      @raise Dpc_util.Serialize.Corrupt as soon as the buffered bytes
      cannot extend to a valid frame; the buffer is left unusable and
      the connection should be dropped. *)
end

module For_testing : sig
  val max_payload : int
  (** Upper bound on [payload] length (16 MiB); longer frames are rejected
      as corrupt on both ends rather than silently buffered forever. *)
end
