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
val hash : t -> int

val canonical : t -> string
(** Unambiguous rendering used as SHA-1 input ("i:42", "s:<len>:...",
    "b:true", "@7"): distinct values never collide textually. *)

val add_canonical : Dpc_util.Sha1.stream -> t -> unit
(** [add_canonical s v] adds exactly the bytes of [canonical v] to the
    stream, without building the string; a [Str] payload is added by
    reference, never copied. *)

val add_interned : Dpc_util.Sha1.stream -> t -> unit
(** The digest-path rendering of a value: {!add_canonical}, except that a
    [Str] longer than {!payload_inline_max} adds ["h:<len>:"] followed by
    the payload's own raw SHA-1 instead of its bytes. The payload digest
    comes from a bounded per-domain cache keyed by content, so a payload
    repeated across tuples (a packet forwarded hop by hop) is hashed
    once. The ["h:"] lead is disjoint from every canonical lead, so the
    rendering stays injective. *)

val reset_payload_cache : unit -> unit
(** Empty this domain's payload cache, keeping its buckets. Each new
    {!Dpc_engine.Runtime} does, so what a world hashes and allocates does
    not depend on the worlds the domain ran before it. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: [42], ["data"], [true], [n7]. *)

val to_string : t -> string

val addr_exn : t -> int
(** @raise Invalid_argument if the value is not an [Addr]. *)

val wire_size : t -> int
(** Bytes this value occupies in a serialized message (used for bandwidth
    accounting). *)

val serialize : Dpc_util.Serialize.writer -> t -> unit
val deserialize : Dpc_util.Serialize.reader -> t

module For_testing : sig
  val payload_inline_max : int
  (** [Str] payloads longer than this are interned by {!add_interned};
      shorter ones are added verbatim. *)

  val payload_cache_cap : int
  (** The most payload digests {!add_interned}'s cache holds per domain
      (4,096): a miss when it is full empties it first. *)

  val payload_cache_size : unit -> int
  (** The payload digests this domain's cache holds now. *)

  val int_exn : t -> int

  val bool_exn : t -> bool

  val str_exn : t -> string
end
