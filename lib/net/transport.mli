(** Pluggable message transport between nodes.

    The runtime ships tuples and control messages through this interface
    only; how they travel — through the discrete-event simulator, directly
    in process, across OCaml domains, or (later) over sockets — is the
    backend's business. Three backends are provided:

    - {!of_sim} wraps a {!Sim.t}: hop-by-hop latency and bandwidth,
      per-link byte accounting. Behavior-identical to calling the
      simulator directly.
    - {!direct} is a zero-latency in-process backend for fast tests and
      library embedding: messages are delivered at the current virtual
      time (FIFO among equal times), [schedule] still honors its delay,
      and total bytes/messages are counted.
    - {!Shard_sim} (its own module) partitions the node set into shards,
      one OCaml domain each, and exposes itself through this interface.

    All backends deliver callbacks through an event queue, never
    synchronously from [send] — senders can rely on run-to-completion of
    the current handler.

    {b Shard ownership.} A backend partitions nodes into [shards]
    execution contexts ([1] for the sequential backends). All callbacks
    concerning node [n] — deliveries addressed to [n], timers placed with
    [schedule_on ~node:n] — run on shard [shard_of n], so per-node state
    needs no locking as long as timers name their owning node. *)

module type S = sig
  val name : string

  val nodes : int
  (** Number of addressable nodes; valid ids are [0 .. nodes-1]. *)

  val shards : int
  (** Number of execution contexts (domains). Sequential backends are 1. *)

  val shard_of : int -> int
  (** The shard owning a node; constant for the transport's lifetime. *)

  val now : unit -> float

  val schedule : delay:float -> (unit -> unit) -> unit
  (** Run a callback [delay] seconds from now, on the calling shard (or
      shard 0 when called from outside [run]). Events at equal times fire
      in a deterministic order. Prefer {!schedule_on} whenever the
      callback touches a node's state.
      @raise Invalid_argument on a negative delay. *)

  val schedule_on : node:int -> delay:float -> (unit -> unit) -> unit
  (** Like [schedule], but the callback runs on [shard_of node] — the only
      safe way to arm a timer that touches node state on a sharded
      backend. Sequential backends treat it as [schedule]. *)

  val send : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
  (** Deliver a message of [bytes] to [dst]; the callback fires at the
      arrival time, on [shard_of dst]. @raise Failure if [dst] is
      unreachable. *)

  val broadcast : src:int -> bytes:int -> (int -> unit) -> unit
  (** Send [bytes] from [src] to every node (the origin included); the
      callback receives the destination node on each delivery. *)

  val run : ?until:float -> unit -> unit
  (** Process queued events in timestamp order until quiescence, or stop
      at the [until] horizon. The horizon is half-open: an event at
      exactly [until] stays queued for the next run. On a sharded backend
      this drives all shard domains and returning is the merge barrier:
      every effect of every shard happens-before the return. *)

  val total_bytes : unit -> int
  val messages : unit -> int
end

type t = (module S)

val name : t -> string
val nodes : t -> int
val shards : t -> int
val now : t -> float
val schedule : t -> delay:float -> (unit -> unit) -> unit
val schedule_on : t -> node:int -> delay:float -> (unit -> unit) -> unit
val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
val broadcast : t -> src:int -> bytes:int -> (int -> unit) -> unit
val run : ?until:float -> t -> unit
val total_bytes : t -> int
val messages : t -> int

val of_sim : Sim.t -> t
(** The simulator-backed transport. [nodes] is the topology size. *)

val direct : nodes:int -> unit -> t
(** A fresh zero-latency in-process transport.
    @raise Invalid_argument if [nodes] is not positive. *)

val intercept :
  name:string -> t -> (src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit) -> t
(** [intercept ~name inner send] is [inner] with [send] in place of its
    own, named [name ^ "+" ^ Transport.name inner]. Its [broadcast] sends
    to every node through [send]; every other member is [inner]'s. The
    fault wrappers below and {!Reliable} are built on it. *)

(** {2 Fault injection}

    [faulty] wraps any backend and corrupts delivery — messages are
    dropped, duplicated, or delayed — without touching the inner
    backend's clock or accounting. A dropped or duplicated transmission
    still crosses the wire (its bytes are charged; loss happens at the
    receiver), which is what makes the retransmit overhead measured by
    the bench honest. Use {!Reliable} on top to get delivery guarantees
    back. *)

type fault =
  | F_deliver
  | F_drop  (** transmitted but lost: bytes charged, callback never fires *)
  | F_duplicate  (** the callback fires twice, as two deliveries *)
  | F_delay of float  (** delivered, then held for the extra seconds *)

type fault_config = {
  drop : float;  (** probability a transmission is lost *)
  duplicate : float;  (** probability a transmission arrives twice *)
  delay : float;  (** probability a transmission is held back *)
  delay_max : float;  (** extra hold time, uniform in [0, delay_max) *)
}

val fault_config :
  ?drop:float -> ?duplicate:float -> ?delay:float -> ?delay_max:float -> unit -> fault_config
(** All rates default to 0.  @raise Invalid_argument if a rate is outside
    [0, 1], the rates sum past 1, or [delay_max] is negative. *)

(** Counts are [Atomic] because [decide] runs on the sending node's shard:
    under a sharded backend several domains bump them concurrently. *)
type fault_stats = {
  delivered : int Atomic.t;
  dropped : int Atomic.t;
  duplicated : int Atomic.t;
  delayed : int Atomic.t;
}

val faulty_with : decide:(src:int -> dst:int -> bytes:int -> fault) -> t -> t * fault_stats
(** A transport that consults [decide] on every transmission (broadcasts
    decide per destination). Deterministic fault schedules — "drop the
    first [sig] transmission on every channel" — are written as [decide]
    functions; {!faulty} is the seeded-random special case. *)

val faulty : config:fault_config -> rng:Dpc_util.Rng.t -> t -> t * fault_stats
(** Seeded random fault injection at the [config] rates. One fault at most
    per transmission; duplicates are not themselves re-faulted. The shared
    [rng] is consumed in global send order, so this decider is only
    deterministic on single-shard backends; sharded runs want
    {!hashed_decide}. *)

val hashed_decide :
  config:fault_config -> seed:int -> nodes:int -> src:int -> dst:int -> bytes:int -> fault
(** A [decide] function whose verdict for the [n]th transmission on
    channel [(src, dst)] is a pure hash of [(seed, src, dst, n)] — no
    shared random stream, so the fault schedule is identical however
    sends from different channels interleave. Each channel counter is
    only ever touched from the sending node's shard. This is the decider
    the parallel-vs-sequential digest oracle uses: both runs see the same
    per-channel fault history by construction.
    @raise Invalid_argument if [nodes] is not positive or a node id is
    out of range. *)

val channel_unit_hash : seed:int -> src:int -> dst:int -> n:int -> float
(** The SplitMix64 mix behind {!hashed_decide}, exposed raw: a pure hash
    of [(seed, src, dst, n)] as a uniform float in [0, 1). Deterministic
    building block for per-channel schedules — fault plans, backoff
    jitter ({!Reliable}), partition plans — that must not share a random
    stream across shards. *)

(** {2 Crash faults}

    [crashable] models whole-node crashes at the transport layer: while a
    node is down, every delivery addressed to it — data, acks, sig
    broadcasts — is silently suppressed (bytes still charged; the failure
    is at the receiver, like {!F_drop}). The wrapper only cuts the wire;
    wiping the node's volatile state and driving recovery is the
    engine's business (see [Runtime] and [Durable]). *)

type crash_stats = {
  crashes : int Atomic.t;  (** transitions from up to down *)
  suppressed : int Atomic.t;  (** deliveries dropped at a down node *)
}

type crash_control = {
  crash : int -> unit;  (** take a node down (idempotent) *)
  restart : int -> unit;  (** bring a node back up (idempotent) *)
  is_up : int -> bool;
  crash_stats : crash_stats;
}

val crashable : t -> t * crash_control
(** Wrap a backend with per-node up/down switches. All nodes start up.
    The up-check runs at arrival time, so messages in flight when the
    destination crashes are lost with it. On a sharded backend, call
    [crash]/[restart] either before [run] or from a timer placed with
    [schedule_on ~node] so the switch flips on the owning shard.
    @raise Invalid_argument from the control functions if the node id is
    out of range. *)

(** {2 Partition faults}

    [partitionable] models link outages: both endpoints stay up, but a
    directed link stops delivering. It is the third sibling of {!faulty}
    (message-level loss) and {!crashable} (whole-node loss): while a link
    is down, every delivery crossing it is suppressed at the receiver —
    bytes still charged, like {!F_drop} — and acks crossing the reverse
    link are subject to that link's own state, so asymmetric partitions
    (data flows, acks do not) fall out for free. Unlike a crash, no state
    is wiped: when the link heals, both ends still hold their channel
    state, and it is {!Reliable}'s suspension/resurrection machinery that
    gets the parked traffic across. *)

type partition_stats = {
  cuts : int Atomic.t;  (** transitions of a directed link from up to down *)
  heals : int Atomic.t;  (** transitions from down to up *)
  lost : int Atomic.t;  (** deliveries suppressed on a down link *)
}

type partition_control = {
  set_link : src:int -> dst:int -> up:bool -> unit;
      (** Flip one directed link (idempotent). On a sharded backend call
          it from a timer placed with [schedule_on ~node:dst] — the
          destination's shard owns the arrival-time check (use
          {!schedule_plan}, which does exactly that). *)
  link_up : src:int -> dst:int -> bool;
  partition_stats : partition_stats;
}

val partitionable :
  ?metrics:(int -> Dpc_util.Metrics.t) -> t -> t * partition_control
(** Wrap a backend with directed per-link up/down state. All links start
    up. The link check runs at ARRIVAL time: a message in flight when the
    link is cut is lost, one sent into a cut link that heals before
    arrival survives. When [metrics] maps a node id to its registry, the
    wrapper ticks [net.partition.cuts] / [net.partition.heals] /
    [net.partition.lost] on the destination node.
    @raise Invalid_argument from the control functions on an
    out-of-range node id. *)

(** {3 Partition plans}

    A plan is a list of absolute-time outage windows on directed links.
    {!split_plan} builds the symmetric two-island split, and
    {!schedule_plan} turns any plan into [set_link] timers on the owning
    shards. *)

type outage = {
  link_src : int;
  link_dst : int;
  from : float;  (** cut time (absolute) *)
  until : float;  (** heal time (absolute, exclusive) *)
}

type partition_plan = outage list

val split_plan :
  nodes:int -> left:int list -> at:float -> duration:float -> partition_plan
(** Symmetric two-island split: every directed link between [left] and
    its complement goes down for the window.
    @raise Invalid_argument on an out-of-range node, a negative [at] or a
    [duration] that is not positive. *)

val schedule_plan : t -> partition_control -> partition_plan -> unit
(** Arm every cut and heal in the plan as transport timers. Each flip is
    scheduled with [schedule_on ~node:dst], the shard that owns the link
    check. Plan times are absolute; windows already in the past fire
    immediately. Call on the [partitionable] wrapper (or anything above
    it) before [run]. *)

