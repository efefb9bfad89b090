(** Discrete-event network simulator (substitute for ns-3).

    Time is in seconds. Messages are forwarded hop-by-hop along shortest
    paths (store-and-forward): each hop contributes its link latency plus
    the transmission time [bytes / bandwidth], and the bytes are charged to
    that link's counter and to the run's total — the totals that the
    bandwidth figures (11 and 15) report. *)

type t

val create : topology:Topology.t -> routing:Routing.t -> unit -> t
(** The simulator models latency only: messages on one path arrive in
    send order. The §5.6 out-of-order scenarios add per-message delays
    through the fault wrapper ({!Transport.faulty_with} with a
    delay-only {!Transport.hashed_decide}), which lets messages overtake
    each other. *)

val topology : t -> Topology.t

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now. Events at equal times fire in
    scheduling order. @raise Invalid_argument on a negative delay. *)

val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Deliver a message of [bytes] from [src] to [dst]; the callback fires at
    the destination's arrival time. A self-send delivers at the current
    time (still via the queue, preserving ordering).
    @raise Failure if [dst] is unreachable from [src]. *)

val run : ?until:float -> t -> unit
(** Process queued events in timestamp order until the queue is empty or
    simulated time would reach [until]. The horizon is half-open: an
    event at exactly [until] stays queued, so [run ~until:a] followed by
    [run ~until:b] processes every event in [0, a) then [a, b) exactly
    once. *)

val total_bytes : t -> int
(** All bytes transmitted so far, summed over every hop of every message. *)

val messages_sent : t -> int

module For_testing : sig
  val events_processed : t -> int

  val link_bytes : t -> ((int * int) * int) list
  (** Per-link byte counters, endpoints ordered, sorted. *)
end
