(** A node-local relational store with set semantics (the [DB_i] of the
    system model, §3): slow-changing base tables plus derived tuples.

    Tuples are keyed by value ({!Dpc_ndlog.Tuple.equal} and
    {!Dpc_ndlog.Tuple.hash}). Each relation carries secondary hash indexes
    keyed on attribute positions (chosen at rule-compile time by
    {!Eval.plan}). Indexes are built on the first {!probe} and maintained
    incrementally by {!insert}/{!remove}. *)

type t

val create : unit -> t

val insert : t -> Dpc_ndlog.Tuple.t -> bool
(** [true] if the tuple was new. *)

val remove : t -> Dpc_ndlog.Tuple.t -> bool
(** [true] if the tuple was present. *)

val scan : t -> string -> Dpc_ndlog.Tuple.t list
(** All tuples of a relation, sorted — deterministic but O(n log n). *)

(** {2 Index probes} *)

type key_part =
  | Reg of int  (** the value in this slot of the caller's register file *)
  | Lit of Dpc_ndlog.Value.t  (** a constant *)

val probe :
  t ->
  rel:string ->
  positions:int array ->
  key:key_part array ->
  Dpc_ndlog.Value.t array ->
  Dpc_ndlog.Tuple.t list
(** [probe t ~rel ~positions ~key regs] is the bucket of tuples of [rel]
    whose attribute at [positions.(i)] equals [key.(i)] read against
    [regs], for every [i]: newest insert first. Served from a secondary
    hash index, built on the first probe for that positions array (from
    the tuples present, in insertion order) and updated on insert/remove
    thereafter. An empty [positions] probes the whole relation. Allocates
    nothing once the index exists. [positions] must be in range for every
    tuple of the relation. *)

val key_matches :
  positions:int array -> key:key_part array -> Dpc_ndlog.Value.t array -> Dpc_ndlog.Tuple.t -> bool
(** Whether the tuple's attributes at [positions] equal [key] read against
    the registers: the test a {!probe} bucket passes by construction.
    [positions] must be in range for the tuple. *)

val clear : t -> unit
(** Drop every relation and index — the store of a node
    whose memory just went away. *)

val snapshot : t -> string
(** Deterministic serialization of the whole store: relations sorted by
    name, tuples in {!scan} order. Seals a cut: the dirty log behind
    {!snapshot_delta} restarts here. *)

val digest : t -> string
(** The hex SHA-1 of {!canonical}, hashed in place: it copies none of
    the store's bytes, and seals no cut. *)

val load : t -> string -> unit
(** Insert every tuple of a {!snapshot} (set semantics: tuples already
    present are kept once). Does not clear first; clears the dirty log
    (the loaded state is a cut, not a change since one).
    @raise Dpc_util.Serialize.Corrupt on a malformed blob or trailing
    bytes, once it has inserted what it read. *)

val set_dirty_tracking : t -> bool -> unit
(** Record every effective insert/remove (in order) so {!snapshot_delta}
    can serialize just the changes since the last cut. Off by default. *)

val snapshot_delta : t -> string
(** The insert/remove log since the last cut ({!snapshot},
    {!snapshot_delta}, {!load}, or {!apply_delta}), chronological —
    O(changes), not O(store). Seals a cut. Meaningful only with
    {!set_dirty_tracking} on. *)

val apply_delta : t -> string -> unit
(** Replay one {!snapshot_delta} blob: apply a base {!load} first, then
    each delta oldest to newest. Clears the dirty log.
    @raise Dpc_util.Serialize.Corrupt on a malformed blob or trailing
    bytes, once it has applied what it read. *)

module For_testing : sig
  val mem : t -> Dpc_ndlog.Tuple.t -> bool

  val lookup :
    t -> rel:string -> positions:int list -> key:Dpc_ndlog.Value.t list -> Dpc_ndlog.Tuple.t list
  (** {!Db.probe} with a constant key: the tuples of [rel] whose attributes at
      [positions] equal [key] (element-wise, same order). *)

  val canonical : t -> string
  (** The same bytes as {!snapshot} WITHOUT sealing a cut — a pure
      observation for digest comparison, safe between delta cuts. *)

  val relations : t -> string list

  val cardinality : t -> string -> int

  val total_tuples : t -> int
end
