(** SHA-1 (RFC 3174), implemented from scratch.

    The paper identifies provenance nodes by SHA-1 hashes of tuple and
    rule-execution contents; this module provides that primitive without an
    external dependency. *)

type t
(** A 20-byte digest. *)

val digest_string : string -> t
(** [digest_string s] is the SHA-1 digest of [s]. *)

val digest_concat : string list -> t
(** [digest_concat parts] hashes the concatenation of [parts], inserting a
    ['+'] separator between parts (mirroring the paper's
    [sha1(r1+n1+vid1+vid2)] notation and avoiding ambiguity between
    ["ab"+"c"] and ["a"+"bc"]). *)

(** {2 Streaming}

    A stream digests a message handed over in pieces, without building
    it and without allocating: only {!finish} allocates, the 20-byte
    result. The stream context is per domain and separate from the one
    {!digest_string} and {!digest_concat} use, so a producer may take
    those one-shot digests mid-stream; it must not {!start} a second
    stream before the first one finishes. *)

type stream

val start : unit -> stream
(** [start ()] resets this domain's stream context and returns it. *)

val add : stream -> string -> unit
(** [add s piece] appends the bytes of [piece]. *)

val add_bytes : stream -> Bytes.t -> int -> int -> unit
(** [add_bytes s b off len] appends the [len] bytes of [b] from [off].
    @raise Invalid_argument if they are not a valid range of [b]. *)

val add_int : stream -> int -> unit
(** [add_int s n] appends exactly the bytes of [string_of_int n]. *)

val finish : stream -> t
(** The digest of everything added since {!start}: [finish] after adding
    [p1], ..., [pk] equals [digest_string (p1 ^ ... ^ pk)]. *)

(** {2 Rendering and comparison} *)

val to_hex : t -> string
(** Lowercase 40-character hexadecimal rendering. *)

val to_raw : t -> string
(** The 20 raw digest bytes. *)

val of_raw : string -> t
(** [of_raw s] reinterprets 20 raw bytes as a digest.
    @raise Invalid_argument if [String.length s <> 20]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val abbrev : t -> string
(** First 8 hex characters, for human-readable output. *)
