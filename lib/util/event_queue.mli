(** The discrete-event queue of [Dpc_net.Sim] and
    [Dpc_net.Transport.direct]: a binary min-heap of actions ordered by
    (time, seq), where [seq] is assigned at push so events at equal times
    fire in push order.

    The heap lives in three parallel arrays — unboxed times, seqs and
    actions — so a push allocates only the boxed time it is passed and a
    pop allocates nothing: no event record, no option, no boxed time. The
    caller's clock is a {!clock}, a record of one float field that OCaml
    stores flat, so advancing and reading it allocate nothing either. *)

type clock = { mutable now : float }

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> (unit -> unit) -> unit
(** [push q at action] queues [action] to fire at time [at]. Times must not
    be NaN. *)

val due : t -> until:float -> bool
(** Whether the earliest queued event fires strictly before [until]. The
    horizon is half-open: an event at exactly [until] is not due. *)

val pop : t -> clock -> (unit -> unit)
(** Remove the earliest event, advance [clock] to its time (never
    backwards) and return its action, without running it.
    @raise Invalid_argument on an empty queue. *)
