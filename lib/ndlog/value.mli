(** Runtime values carried by NDlog tuples.

    Node addresses are a distinct constructor ([Addr]) because the location
    specifier ("@" on the first attribute of every relation) must always hold
    an address, and the engine routes head tuples by it. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Addr of int  (** a node identifier in the distributed system *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val canonical : t -> string
(** Unambiguous rendering used as SHA-1 input ("i:42", "s:<len>:...",
    "b:true", "@7"): distinct values never collide textually. *)

val add_canonical : Dpc_util.Sha1.stream -> t -> unit
(** [add_canonical s v] adds exactly the bytes of [canonical v] to the
    stream, without building the string; a [Str] payload is added by
    reference, never copied. *)

val payload_inline_max : int
(** [Str] payloads longer than this are interned by {!add_interned};
    shorter ones are added verbatim. *)

val add_interned : Dpc_util.Sha1.stream -> t -> unit
(** The digest-path rendering of a value: {!add_canonical}, except that a
    [Str] longer than {!payload_inline_max} adds ["h:<len>:"] followed by
    the payload's own raw SHA-1 instead of its bytes. The payload digest
    comes from a bounded per-domain cache keyed by content, so a payload
    repeated across tuples (a packet forwarded hop by hop) is hashed
    once. The ["h:"] lead is disjoint from every canonical lead, so the
    rendering stays injective. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: [42], ["data"], [true], [n7]. *)

val to_string : t -> string

val addr_exn : t -> int
(** @raise Invalid_argument if the value is not an [Addr]. *)

val int_exn : t -> int
val bool_exn : t -> bool
val str_exn : t -> string

val wire_size : t -> int
(** Bytes this value occupies in a serialized message (used for bandwidth
    accounting). *)

val serialized_size : t -> int
(** Exact byte count {!serialize} emits for this value, computed without
    serializing. *)

val serialize : Dpc_util.Serialize.writer -> t -> unit
val deserialize : Dpc_util.Serialize.reader -> t
