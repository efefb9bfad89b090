(** Deterministic binary serialization.

    The paper measures provenance storage by serializing the per-node
    relational tables (with boost::serialization) and taking the file size.
    This module is the stand-in: a length-prefixed binary writer/reader whose
    output size is a faithful, deterministic proxy for table storage. *)

type writer

val writer : unit -> writer
val write_int : writer -> int -> unit
(** Fixed 8-byte little-endian integer. *)

val write_varint : writer -> int -> unit
(** LEB128-style variable-length non-negative integer. *)

val varint_size : int -> int
(** Bytes {!write_varint} would emit, without writing — for analytic size
    accounting that must match serialization exactly. *)

val write_float : writer -> float -> unit
val write_bool : writer -> bool -> unit
val write_string : writer -> string -> unit
(** Varint length prefix followed by the raw bytes. *)

val write_list : writer -> ('a -> unit) -> 'a list -> unit
(** Varint count followed by each element via the callback. *)

val contents : writer -> string

val sub : writer -> int -> int -> string
(** [sub w pos len]: [len] bytes of the contents from offset [pos]. *)

val size : writer -> int

val reset : writer -> unit
(** Drop everything written so far, keeping the backing store — the
    writer restarts empty. For long-lived writers that batch work (e.g.
    the WAL group-commit buffer). *)

val with_scratch : (writer -> unit) -> string
(** [with_scratch f] runs [f] against a per-domain reusable scratch
    writer and returns its contents. Equivalent to
    [let w = writer () in f w; contents w] minus the per-call buffer
    allocation; use for one-shot blobs on hot paths (checkpoints,
    deltas). Re-entrant calls on the same domain get a fresh writer. *)

val write_sorted :
  writer ->
  ('k -> 'k -> int) ->
  (('k -> 'v -> unit) -> unit) ->
  ('k -> 'v -> unit) ->
  unit
(** [write_sorted w compare iter write] writes a table in canonical
    order: the number of entries [iter] yields, as a varint, then [write
    key value] of each, sorted by [compare] on their keys (a stable merge
    sort). [iter f] calls [f key value] once per entry, as [Hashtbl.iter]
    does. The entries are sorted in place in per-domain scratch arrays
    that grow to the largest table the domain has sorted, so the call
    allocates no list and no array; [write] may call [write_sorted]
    again, for a table nested in an entry. Every cut writer orders its
    tables through this. *)

type reader

val reader : string -> reader
val read_int : reader -> int
val read_varint : reader -> int
(** @raise Corrupt on a varint {!write_varint} cannot write: one longer
    than nine bytes, or one that overflows into a negative int. *)

val read_float : reader -> float
val read_bool : reader -> bool
val read_string : reader -> string

val read_count : reader -> int
(** A varint count of items that each take at least one byte.
    @raise Corrupt if the rest of the input could not hold that many. *)

val read_list : reader -> (unit -> 'a) -> 'a list
(** A {!read_count} count, then each element via the callback, which
    must consume at least one byte. *)

val write_digest : writer -> Sha1.t -> unit
(** A SHA-1 digest as a string of its 20 raw bytes. *)

val read_digest : reader -> Sha1.t
(** @raise Corrupt unless the string is 20 bytes long. *)

val at_end : reader -> bool

exception Corrupt of string
