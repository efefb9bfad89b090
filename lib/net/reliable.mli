(** At-least-once delivery with exactly-once effects, over any transport.

    The engine's cross-node invariants — the [(NLoc, NRID)] back-pointers
    of §4 and the §5.5 [sig] broadcast — assume every message takes effect
    exactly once. A {!Transport.faulty} network breaks that: messages are
    lost, arrive twice, or arrive late. This layer restores the guarantee
    the invariants need:

    - every directed [(src, dst)] channel numbers its messages with a
      sequence number ([data_header_bytes] on the wire);
    - the receiver keeps a dedup/reorder window — a contiguous watermark
      plus at most {!For_testing.window} arrivals held above a gap — so each
      message's body runs exactly once and in channel order, no matter
      how many copies arrive or how late. It acks only arrivals the
      watermark covers: a delivered message or a below-watermark
      duplicate. An arrival held above a gap is NOT acked
      — the window is volatile, so an ack is a durable promise the
      receiver can only make for the contiguous prefix (see the crash
      support below). An arrival past a full window is dropped, unacked;
      its retransmission lands once the gap has filled;
    - the sender retransmits on an ack timeout, backing off exponentially
      up to a cap (with optional deterministic per-channel jitter), and
      after [max_retries] retransmissions {e suspends} the channel: the
      unacked tail is parked, a cheap heal probe runs on the same capped
      backoff, and when the probe is answered the channel {e resurrects}
      — the parked tail re-offers in sequence order, so a partition
      longer than the whole retry budget still ends in exactly-once FIFO
      delivery once the link heals.

    Transmission is at-least-once; *effects* are exactly-once and FIFO per
    channel — the TCP assumption the paper makes. Exactly-once alone is
    not enough: in the Advanced scheme a same-class event shipped with
    [exist_flag = true] must not overtake the earlier event that
    materializes its equivalence class on the shared channel, or its tree
    is orphaned (the §5.5 race). Cross-channel ordering is not (and need
    not be) restored; §5.6 covers that.

    The price of FIFO is head-of-line blocking: a gap holds later arrivals
    on the channel until the retransmit lands, and a suspended channel
    holds its whole tail until resurrection. [abandoned] counts the
    currently-parked backlog — it must drain to zero once every partition
    heals, which the partition oracle asserts.

    {b Two media, one protocol.} Over a {!Transport.t} ({!wrap}, what
    the simulator runs with {!default_config}), a message is its
    delivery closure and each covered arrival is acked by a closure sent
    back. Timers ride on the inner transport's clock, so a simulated run
    with faults still quiesces deterministically — {b provided every
    partition eventually heals}: a suspended channel probes forever, so
    drive an unhealed phase with [run ~until], not [run]. Over frames
    ({!over_frames}, what {!Socket} runs for [dpcd]), a message is a
    payload string and acks are cumulative, sent by the host when it
    chooses; [dpcd]'s config, [{timeout = 0.25; backoff = 1.0;
    max_timeout = 0.25; max_retries = max_int; jitter = 0.0}], re-offers
    every unacked frame every 250 ms and never suspends. Sequencing, dedup, the window, delivery order,
    retransmission and suspension are one code path for both, so the
    chaos, crash and partition oracles test the channels [dpcd] runs. *)

type config = {
  timeout : float;  (** seconds before the first retransmission *)
  backoff : float;  (** timeout multiplier per further attempt *)
  max_timeout : float;  (** backoff cap, seconds *)
  max_retries : int;  (** retransmissions before suspending the channel *)
  jitter : float;
      (** fraction of the capped delay a deterministic per-channel hash
          may pull each retransmit/probe timer earlier; [0] disables.
          De-synchronizes the retransmit storm after a heal. *)
}

val default_config : config
(** 50 ms initial timeout, doubling to a 1 s cap, 20 retransmissions,
    no jitter. *)

type stats = {
  data_msgs : int;  (** distinct messages accepted from the sender *)
  data_bytes : int;  (** first-transmission bytes, headers included *)
  retransmits : int;  (** retransmissions performed (re-offers included) *)
  retransmit_bytes : int;
  acks : int;  (** acknowledgements sent *)
  ack_bytes_total : int;
  dup_dropped : int;  (** arrivals suppressed by the dedup window *)
  held : int;  (** arrivals parked behind a sequence gap, then replayed *)
  abandoned : int;
      (** messages currently parked on a suspended channel. Rises while a
          partition outlives the retry budget, drains to zero on
          resurrection (or on a crash wipe of the sender) — the health
          invariant every oracle asserts at end of run. *)
  suspensions : int;  (** channel transitions into the suspended state *)
  resurrections : int;  (** suspended channels brought back by a probe *)
  parked : int;  (** messages ever parked (cumulative) *)
  probes : int;  (** heal probes sent *)
}

type 'body link
(** The channels of a cluster whose messages carry a ['body]. *)

type t = (unit -> unit) link
(** Over a transport: a message is its delivery closure. *)

val wrap : ?config:config -> ?metrics:(int -> Dpc_util.Metrics.t) -> Transport.t -> t
(** Layer reliable delivery over a transport. An acknowledgement is a
    12-byte message. A heal probe and its pong are 10 bytes each, so the
    whole per-probe cost of a suspended channel is 20 bytes per backoff
    period, versus a full data retransmission per period before
    suspension. When [metrics] maps a node id to its registry, the layer
    records per-node counters:
    [net.data_msgs], [net.retransmits], [net.retransmit_bytes],
    [net.parked], [net.suspensions], [net.resurrections] and
    [net.probes] at the sender; [net.acks_sent], [net.ack_bytes],
    [net.dup_dropped] and [net.held] at the receiver.
    @raise Invalid_argument on a non-positive timeout, backoff below 1,
    negative max_retries, or jitter outside [0, 1). *)

val suspended_channels : 'a link -> int
(** Number of channels currently suspended (parked tail waiting on a
    heal probe). Zero once every partition has healed and every probe
    has been answered. *)

val transport : t -> Transport.t
(** The reliable transport: [send] and [broadcast] deliver their callback
    exactly once per message (given enough retries); [schedule], [run],
    [now], byte and message totals delegate to the inner transport — so
    [total_bytes] includes ack and retransmit traffic, and {!stats} says
    how much of it there was. *)

val stats : 'a link -> stats
(** Cluster-wide totals (the per-node breakdown lives in [metrics]). *)

(** {2 Crash support: channel state as data}

    A node's share of the channel state — the [next_seq] of channels it
    sends on, the [expected] watermark of channels it receives on — can be
    journaled, checkpointed, wiped on crash, and restored on recovery.
    The reorder window itself is never saved: held arrivals are unacked
    by construction, so the peers' retransmissions rebuild it. Restoring
    the watermark IS the recovery handshake — no explicit re-announce
    message is needed, because a retransmission below the restored
    watermark is acked as a duplicate and one at it is delivered. *)

type seq_field =
  | Next_seq
      (** the sender's next unused sequence number on channel
          [(src, dst)] — durable state of node [src] *)
  | Expected
      (** the receiver's contiguous watermark on channel [(src, dst)] —
          durable state of node [dst] *)

val set_persist : 'a link -> (seq_field -> src:int -> dst:int -> seq:int -> unit) -> unit
(** Observe every sequence-state advance, for write-ahead logging: the
    callback gets which half of channel [(src, dst)] advanced and its new
    value, as plain ints, so reporting an advance allocates nothing. The
    watermark advance is reported BEFORE the delivery callback runs, so
    journal entries written from inside the callback follow it. *)

val set_next_seq : 'a link -> src:int -> dst:int -> int -> unit
(** Monotonic: raises the channel's [next_seq] to the given value if it is
    currently lower (mutating the live channel record — in-flight
    retransmit closures observe the change). Used by WAL replay. *)

val set_expected : 'a link -> src:int -> dst:int -> int -> unit
(** Monotonic watermark restore, same contract as {!set_next_seq}. *)

val forget : 'a link -> node:int -> unit
(** Wipe the node's volatile channel state, as a crash does: [next_seq]
    of its outgoing channels and the watermark + reorder window of its
    incoming ones drop to zero, in place. Without a subsequent
    {!restore}/{!set_next_seq}, the node would reuse sequence numbers its
    peers have already seen. *)

val snapshot : 'a link -> node:int -> string
(** Serialize the node's channel sequence state (for inclusion in a
    checkpoint). Deterministic: channels are sorted, zero-state channels
    are skipped. *)

val restore : 'a link -> node:int -> string -> unit
(** Apply a {!snapshot} through {!set_next_seq}/{!set_expected} — i.e.
    monotonically, so replaying an old snapshot over fresher state is a
    no-op. Nothing is applied unless the whole blob reads and ends where
    its last field does.
    @raise Dpc_util.Serialize.Corrupt on a malformed blob, including a
    peer past the cluster, or trailing bytes. *)

(** {2 Frames: one node's channels over byte streams}

    Sequence numbers count from 0 here; a host that writes them 1-based
    (dpc-wire-v1 does) converts at its edge. *)

type frames_io = {
  emit : dst:int -> seq:int -> retransmit:bool -> string -> unit;
      (** put message [seq] of [(local, dst)] on the wire; [retransmit]
          is false on its first transmission and on a {!reoffer} *)
  timer : delay:float -> (unit -> unit) -> unit;
  receive : src:int -> string -> unit;
      (** deliver a payload of [(src, local)], after its watermark advance *)
}

val over_frames : config:config -> nodes:int -> local:int -> frames_io -> string link
(** Node [local]'s channels in a [nodes]-wide cluster.
    @raise Invalid_argument as {!wrap} does, or on an out-of-range [local]. *)

val send : 'a link -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Sequence a message of [bytes] (header excluded) on [(src, dst)] and
    transmit it until an ack covers it; {!transport}'s [send] over a
    transport. *)

val arrive : string link -> src:int -> seq:int -> string -> bool
(** A data frame of [(src, local)] arrived. Whether the watermark covers
    it: then the host owes [src] an ack of {!delivered}. *)

val ack_upto : string link -> dst:int -> int -> bool
(** A cumulative ack from [dst] for every message below the count.
    Whether it advanced {!acked}. *)

val requeue : string link -> dst:int -> seq:int -> string -> unit
(** Take an unacked message back after a restart, without a [Next_seq]
    report. Ignored below {!acked} or when already unacked. *)

val reoffer : string link -> dst:int -> unit
(** Emit every unacked message to [dst] once, in order, arming no
    timer: what a fresh connection owes the peer. *)

val sent : 'a link -> src:int -> dst:int -> int
(** Messages sequenced on [(src, dst)]. *)

val delivered : 'a link -> src:int -> dst:int -> int
(** The receive watermark of [(src, dst)]. *)

val acked : string link -> dst:int -> int
(** The acked prefix of [(local, dst)]. *)

val unacked : string link -> dst:int -> int

module For_testing : sig
  val backoff_delay : config -> src:int -> dst:int -> attempt:int -> float
  (** The delay armed after the [attempt]th transmission (1-based):
      [timeout * backoff^(attempt-1)] capped at [max_timeout], then scaled
      into [[(1-jitter) * capped, capped]] by a pure hash of
      [(src, dst, attempt)] — deterministic per channel, no shared stream.
      Exposed for the backoff-arithmetic tests and for anything that wants
      to reason about the retry budget [sum of the first max_retries + 1
      delays]. *)

  val data_header_bytes : int
  (** Wire bytes the layer adds to every data transmission (the channel
      sequence number). *)

  val window : int
  (** Arrivals one channel holds above a gap (1,024); one more is dropped
      unacked. *)

  val window_peak : 'a link -> int
  (** The most arrivals any one channel has held at once: {!For_testing.window} once
      the bound has dropped an arrival. *)
end
