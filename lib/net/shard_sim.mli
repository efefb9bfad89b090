(** Multi-domain sharded transport.

    Partitions the node set round-robin into [domains] shards, each owned
    by one OCaml 5 domain with its own {!Dpc_util.Event_queue}, virtual
    clock, and byte/message counters. The shards run a conservative
    time-window loop with one barrier per round: each round processes
    every event in [T, T + latency), where [T] is the global minimum
    pending timestamp and [latency] (the minimum wire delay) is the
    lookahead that makes it impossible for a shard to receive a message
    from its past. An event for another shard goes into an outbox for
    the (sender, receiver) pair; outboxes alternate by round parity, and
    the receiver drains the previous round's after the barrier. Before
    the barrier each shard publishes the earliest time it will hold after
    that drain, so the minimum of the published times is [T] for the next
    round. Nothing is locked and nothing is allocated per event beyond
    the boxed time handed to a queue.

    {b Ownership.} All callbacks concerning node [n] — deliveries, timers
    armed with [schedule_on ~node:n] — execute on shard
    [n mod domains]. Per-node engine state (the [Node.t] registries, the
    store tables, the reliable-channel endpoints) therefore stays
    single-owner and lock-free.

    {b Determinism.} Every event is keyed [(time, origin, ctr)] where
    [origin] is the creating node and [ctr] a per-origin counter; the key
    totally orders events identically whatever the shard count. An origin
    may create 2{^40} events; creating one more raises
    [Invalid_argument]. A fault-free run under [~domains:4] executes each
    node's event sequence — and therefore produces provenance digests —
    byte-identical to [~domains:1]; under hashed fault or crash
    schedules the existing confluence oracles close the gap. [run]
    returning is the merge barrier: the worker-domain joins order every
    shard effect before anything the caller does next. *)

type t

val create : ?latency:float -> domains:int -> nodes:int -> unit -> t
(** [latency] (default [0.001]) is the fixed wire delay and the window
    lookahead; it must be positive. Every message takes exactly
    [latency]; per-message delays come from the fault wrapper
    ({!Transport.faulty_with} with a delay-only
    {!Transport.hashed_decide}, whose per-channel hash keeps them
    identical whatever the shard count).
    @raise Invalid_argument if [domains] or [nodes] is not positive,
    [nodes + domains] is 2{^22} or more, or [latency] is not
    positive. *)

val transport : t -> Transport.t
(** The {!Transport.S} view; [Transport.shards] is [domains]. Its [now]
    is the calling shard's clock mid-run and, outside {!For_testing.run}, the
    maximum clock reached so far. Its [total_bytes] and [messages] sum
    the per-shard counters, which their owners write: read them from
    outside {!For_testing.run}. *)

module For_testing : sig
  val shard_of : t -> int -> int
  (** [shard_of t n = n mod domains t]. *)

  val partition : domains:int -> nodes:int -> int array
  (** The round-robin shard map as an array ([partition.(n)] is [n]'s
      shard), for tests and tooling that reason about the layout without
      building a transport.
      @raise Invalid_argument if either argument is not positive. *)

  val run : ?until:float -> t -> unit
  (** Same contract as {!Transport.run} (half-open horizon). [~domains:1]
      runs inline on the calling domain; otherwise one worker domain per
      shard is spawned for the duration of the call and joined before it
      returns. A callback exception stops every shard at the end of the
      round that raised it and is re-raised here on the caller, after all
      workers have exited; the events left behind stay queued for the next
      [run].
      @raise Invalid_argument on re-entrant use. *)
end
