(** Named counters for per-node instrumentation.

    Each {!Dpc_engine.Node} carries one registry; the runtime and the
    provenance stores record into it (events fired, bytes shipped, rows
    written, equivalence-class hits/misses, ...). Snapshots are immutable
    and mergeable, so a cluster-wide view is the merge of the per-node
    snapshots. *)

type snapshot = { counters : (string * int) list  (** sorted by name *) }

type t
(** A mutable registry. Names are created on first use. Every operation is
    guarded by an internal mutex, so a registry may be read — or, when a
    workload shares one deliberately, written — from several domains; a
    {!snapshot} is always internally consistent. *)

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a counter. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to a counter. Neither call allocates once the
    counter exists. *)

val counter_value : t -> string -> int
(** Current value of a counter (0 if never incremented). *)

val clear : t -> unit

val snapshot : t -> snapshot

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: counters under one name add. *)

val to_rows : snapshot -> string list list
(** [[name; "counter"; value]] rows for {!Table_fmt.print}. *)

module For_testing : sig
  val counter : snapshot -> string -> int
  (** 0 if absent. *)
end
