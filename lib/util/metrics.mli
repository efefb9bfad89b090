(** Named counters, gauges, and histograms for per-node instrumentation.

    Each {!Dpc_engine.Node} carries one registry; the runtime and the
    provenance stores record into it (events fired, bytes shipped, rows
    written, equivalence-class hits/misses, ...). Snapshots are immutable
    and mergeable, so a cluster-wide view is the merge of the per-node
    snapshots. *)

type histogram = { count : int; sum : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
}

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

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record a sample into a histogram (count/sum/min/max are kept). *)

val clear : t -> unit

val snapshot : t -> snapshot

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: counters and histogram moments add; gauges sum (a
    gauge is a level, and the cluster-wide level of e.g. table sizes is
    the sum of the per-node levels). *)

val counter : snapshot -> string -> int
(** 0 if absent. *)

val gauge : snapshot -> string -> float option
val histogram : snapshot -> string -> histogram option
val mean : histogram -> float

val to_rows : snapshot -> string list list
(** [[name; kind; value]] rows for {!Table_fmt.print}. *)
