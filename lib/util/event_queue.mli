(** The discrete-event queue of [Dpc_net.Sim], [Dpc_net.Transport.direct]
    and each shard of [Dpc_net.Shard_sim], and the timer queue of
    [Dpc_net.Socket], whose times are wall-clock seconds: a binary
    min-heap of actions ordered by (time, seq). {!push} assigns [seq]
    itself, so events at equal times fire in push order; {!push_keyed}
    takes it from the caller, so they fire in key order.

    The heap lives in three parallel arrays — unboxed times, seqs and
    actions — so a push allocates only the boxed time it is passed and a
    pop allocates nothing: no event record, no option, no boxed time. The
    caller's clock is a {!clock}, a record of one float field that OCaml
    stores flat, so advancing and reading it allocate nothing either. *)

type clock = { mutable now : float }

type t

val create : unit -> t
val push : t -> float -> (unit -> unit) -> unit
(** [push q at action] queues [action] to fire at time [at], after every
    queued event at the same time. Times must not be NaN. *)

val push_keyed : t -> float -> int -> (unit -> unit) -> unit
(** [push_keyed q at key action] queues [action] to fire at time [at],
    ordered among the events at that time by [key]. Keys must be distinct
    and times not NaN. One queue takes either keyed or auto-sequenced
    pushes, never both: an auto-assigned seq says nothing about the
    caller's keys. *)

val due : t -> until:float -> bool
(** Whether the earliest queued event fires strictly before [until]. The
    horizon is half-open: an event at exactly [until] is not due. *)

val next_time : t -> float
(** The earliest queued time, or [infinity] when the queue is empty. *)

val pop : t -> clock -> (unit -> unit)
(** Remove the earliest event, advance [clock] to its time (never
    backwards) and return its action, without running it.
    @raise Invalid_argument on an empty queue. *)

module For_testing : sig
  val length : t -> int

  val is_empty : t -> bool
end
