(** Per-node durability: write-ahead journal, checkpoints, and the crash /
    recovery protocol that ties the layers together.

    The failure model is crash-stop with restart: a crashed node loses all
    volatile state — its provenance tables, slow-table database, metrics
    registry, and reliable-channel windows — and the wire to it is cut
    ({!Dpc_net.Transport.crashable}) until it restarts. What survives is
    this module's per-node log: a checkpoint (store tables +
    {!Dpc_engine.Db} snapshot + {!Dpc_net.Reliable} sequence state, cut at
    an operation boundary) plus the write-ahead journal tail
    ({!Dpc_engine.Journal}) of everything non-derivable that happened
    since.

    Recovery restores the checkpoint, replays the journal tail through
    {!Dpc_engine.Runtime.replay} (rebuilding every derived row through the
    same hook pipeline that wrote it originally), and reconnects the wire
    last. No explicit re-announce message exists: restoring the receive
    watermark makes the peers' pending retransmissions the recovery
    handshake — below-watermark copies are acked as duplicates, the first
    unseen one is delivered (see {!Dpc_net.Reliable}). *)

type config = {
  checkpoint_every : int;
      (** boundary journal entries between automatic compactions; [0]
          disables automatic checkpoints (the journal grows until
          {!checkpoint_now}) *)
  rebase_every : int;
      (** cuts per full checkpoint: after a full (base) cut, the next
          [rebase_every - 1] cuts serialize only the changes since the
          previous cut ({!Backend.checkpoint_delta} — O(changes), not
          O(state)), then the cycle rebases to a fresh full checkpoint so
          recovery never chains more than [rebase_every - 1] deltas.
          [0] or [1] makes every cut a full checkpoint. *)
}

type t

(** {2 The durable outbox ledger}

    The persist-before-send half of real-process exactly-once: a send's
    [Send] record reaches the ledger file (and the kernel) before the
    frame's first transmission, so a sender crash can delay an outgoing
    message but never lose it — restart re-offers the unacked tail and
    the receiver's dedup window absorbs the overlap. [dpc-outbox-v1] on
    disk: an append-only run of Send / Ack / Mark records; a torn tail
    (the kill landed mid-append) is dropped at load, which is safe
    because an unfinished record's frame was never transmitted. *)
module Outbox : sig
  type t

  val record_send : t -> dst:int -> seq:int -> string -> unit
  (** Append one send, write-through. Call BEFORE first transmission. *)

  val record_ack : t -> dst:int -> seq:int -> unit
  (** Cumulative: [seq] and below are delivered; their payloads become
      reclaimable by {!compact}. No-op if not an advance. *)

  val pending : t -> (int * int * string) list
  (** Recorded-but-unacked sends as [(dst, seq, payload)], sorted — the
      tail to re-offer ([Dpc_net.Socket.requeue]) after a restart. *)

  val next_seq : t -> dst:int -> int
  (** 1 + the highest sequence ever recorded toward [dst] — the durable
      channel cursor a restarted sender resumes from. *)

  val compact : t -> unit
  (** Atomically rewrite the ledger as per-channel [Mark] summaries plus
      the pending payloads, dropping acked ones. *)

  val size_bytes : t -> int

  module For_testing : sig
    val open_ : dir:string -> t
    (** Load (or create) [dir]/outbox.log, as {!attach}'s disk mode
        does. A ledger with a torn tail is rewritten, as {!compact} does,
        from its valid prefix, so the records appended after it survive
        the next load.
        @raise Dpc_util.Serialize.Corrupt on an unreadable header. *)

    val acked : t -> dst:int -> int
    val close : t -> unit
  end
end

val attach :
  backend:Backend.t ->
  runtime:Dpc_engine.Runtime.t ->
  control:Dpc_net.Transport.crash_control ->
  ?config:config ->
  ?disk:string ->
  ?disk_nodes:(int -> bool) ->
  unit ->
  t
(** Wire durability into a built world: installs the runtime's journal
    sink ({!Dpc_engine.Runtime.set_journal}), the reliable layer's
    sequence-state persister ({!Dpc_net.Reliable.set_persist}), and the
    injection availability predicate, takes the runtime's reliable link
    (if any) as the source of every node's channel state, then seals the
    pre-attach state (e.g. slow tables loaded by the generator) into each
    node's checkpoint 0. Attach before injecting anything; events
    processed before attach are not journaled and cannot be recovered.
    [config] defaults to compacting every 64 boundary entries and
    rebasing every 8th cut.

    [disk] mirrors each node's log onto a real filesystem under
    [disk/node-<i>/] (restricted to the nodes [disk_nodes] selects,
    default all — a [dpcd] daemon passes its own node only): checkpoint
    cuts as [cut-<id>.bin] files, the journal tail as [wal-<epoch>.log]
    (each {!flush_wal} group written through), an {!Outbox} ledger, and
    a [manifest] whose atomic replacement is a compaction's commit point
    — a kill at any instant leaves the previous generation intact. The
    durability model is process crash (kill -9): writes are pushed to
    the kernel but not fsynced. If a node's directory already holds a
    manifest, its log is loaded instead of sealed fresh ({!recovered}
    turns true) and the caller must {!recover} it before traffic.
    @raise Dpc_util.Serialize.Corrupt on an undecodable manifest, or a
    cut it names that is missing, unreadable or undecodable (a torn WAL
    {e tail} is tolerated and trimmed). *)

(** {2 On-disk formats}

    The codecs of the [dpc-manifest-v1] and [dpc-cut-v1] files that
    {!attach}'s disk mode writes, for the format fixtures. The decoders
    raise {!Dpc_util.Serialize.Corrupt} on bytes no encoder wrote. *)

type checkpoint = { store : string; db : string; channels : string option }
(** One cut's contents: the store blob (a full checkpoint or a delta),
    the {!Dpc_engine.Db} snapshot or delta, and the channel-sequence
    blob, if the runtime had one. *)

val recovered : t -> int -> bool
(** Whether attach found existing on-disk state for the node. *)

val recover : t -> int -> unit
(** Rebuild the node's volatile state from the loaded log: restore the
    newest cut chain, replay the wal tail through
    {!Dpc_engine.Runtime.replay}, then apply the wal's channel entries
    through {!set_channel_state}'s record. The real-process counterpart
    of {!For_testing.restart} — the process died instead of the simulated
    node, so there is no wire to reconnect; the caller re-offers the
    outbox tail itself. Adds to [crash.recovery_ms]. *)

val set_channel_state :
  t ->
  snapshot:(int -> string option) ->
  restore:(int -> string -> unit) ->
  next_seq:(node:int -> peer:int -> seq:int -> unit) ->
  expected:(node:int -> peer:int -> seq:int -> unit) ->
  unit
(** Where a node's channel sequence state lives when the reliable layer
    is below the runtime's transport (a socket backend). [snapshot] is
    called at each cut; {!recover}/{!For_testing.restart} hands [restore]
    the newest cut's blob, replays the wal, then hands [next_seq] and
    [expected] the wal's [Next_seq] and [Expected] entries, in the host's own
    sequence base (see {!Dpc_engine.Journal.entry}). A runtime built with
    [?reliable] keeps that state in its {!Dpc_net.Reliable} link, which
    {!attach} already wires in.
    @raise Invalid_argument if the runtime has a reliable link. *)

val journal : t -> int -> Dpc_engine.Journal.entry -> unit
(** Append one entry to the node's journal directly — for entries the
    runtime cannot see, e.g. a socket transport's receive-watermark
    advances. Suppressed (like every append) while the node recovers. *)

val flush_wal : t -> int -> unit
(** Close the open group-commit buffer and push it to the wal — and, in
    disk mode, through to the kernel. A real-process host calls this
    before acknowledging deliveries and before recording an outgoing
    send, so no peer ever holds a promise the journal does not. *)

val outbox : t -> int -> Outbox.t option
(** The node's outbox ledger ([None] unless attached with [?disk]). *)

val random_schedule :
  seed:int ->
  nodes:int ->
  count:int ->
  horizon:float ->
  min_down:float ->
  max_down:float ->
  (int * float * float) list
(** A seeded crash schedule [(node, at, downtime)]: [count] candidates
    drawn uniformly over [nodes] and [[0, horizon)] with downtimes in
    [[min_down, max_down)], minus candidates that would overlap an earlier
    outage of the same node (see {!For_testing.prune_overlaps}). Sorted
    by crash time; deterministic for a given seed. *)

val schedule : t -> (int * float * float) list -> unit
(** For every [(node, at, downtime)] of a {!random_schedule}-shaped
    list, crash [node] at simulated time [at] and restart it at
    [at +. downtime], on the node's own shard of the runtime's transport.
    @raise Invalid_argument if a [downtime] is not positive. *)

val is_up : t -> int -> bool
(** The liveness predicate; pass as [?up] to {!Backend.query} so queries
    degrade instead of hanging on a down node. *)

val checkpoint_now : t -> int -> unit
(** Force a compaction of the node's log. Call only between top-level
    operations (e.g. from a [Transport.schedule] callback or while the
    transport is idle) — a checkpoint cut mid-delivery would tear the
    state. @raise Invalid_argument if the node is down. *)

type node_stats = {
  crashes : int;  (** times this node went down *)
  wal_bytes : int;  (** cumulative journal bytes ever appended *)
  wal_entries : int;  (** entries currently in the tail (since last compaction) *)
  checkpoints : int;  (** compactions, including checkpoint 0 at attach *)
  checkpoint_bytes : int;
      (** cumulative serialized bytes across all cuts (full and delta) —
          the number delta checkpoints shrink *)
  delta_cuts : int;  (** how many of [checkpoints] were delta cuts *)
  delta_bytes : int;
      (** the delta cuts' share of [checkpoint_bytes]; the remainder is
          full rebases (and checkpoint 0) *)
  recovery_ms : int;
      (** total wall-clock time spent in {!For_testing.restart} and
          {!recover}, accumulated as a float and rounded up once here —
          never summed per-recovery *)
  queries_degraded : int;
      (** queries from this node that touched a down peer (durably
          counted here via {!Backend.set_degraded_sink}, so the tally
          survives a crash of the querier) *)
}

val node_stats : t -> int -> node_stats
(** The durable counters; all but [wal_entries] also appear as [crash.*]
    metrics in the node's registry. *)

module For_testing : sig
  val encode_manifest : epoch:int -> base:int -> deltas:int list -> string
  (** A node's cut chain: recovery reads cut [base], then the delta cuts
      [deltas] in order, then [wal-<epoch>.log]. *)

  val decode_manifest : string -> int * int * int list
  (** [(epoch, base, deltas)]. @raise Dpc_util.Serialize.Corrupt on a
      malformed manifest, bytes after it included. *)

  val encode_cut : is_delta:bool -> checkpoint -> string

  val decode_cut : string -> bool * checkpoint
  (** [(is_delta, contents)]. @raise Dpc_util.Serialize.Corrupt on a
      malformed cut, bytes after it included. *)

  val wal : t -> int -> string
  (** The node's flushed journal since its last cut, without the open
      group. In disk mode, the node's [wal-<epoch>.log] holds exactly these
      bytes. *)

  val crash : t -> int -> unit
  (** Take the node down NOW: cut its wire, wipe its volatile state
      ({!Dpc_engine.Node.reset}), and drop its channel windows
      ({!Dpc_net.Reliable.forget}, under a reliable link). Idempotent while down. The durable
      [crash.*] counters survive and are re-materialized into the wiped
      metrics registry. *)

  val restart : t -> int -> unit
  (** Bring the node back: restore its checkpoint, replay its journal tail
      ({!Dpc_engine.Runtime.replay}) and its channel sequence advances,
      then reconnect the wire — in that order, so no delivery races the
      rebuild. The journal is retained (not
      truncated), so a second crash before the next compaction recovers
      again from the same checkpoint. Idempotent while up. Wall-clock
      recovery time is added to the [crash.recovery_ms] counter (the one
      non-deterministic metric — CI strips it before diffing runs). *)

  val prune_overlaps :
    nodes:int -> (int * float * float) list -> (int * float * float) list
  (** Sort [(node, at, downtime)] entries by crash time and drop any whose
      crash lands during — or at the exact restart instant of — a kept
      outage of the same node: a crash scheduled AT the restart time would
      tie with the restart in the event queue, making the outcome an
      ordering accident rather than part of the schedule.
      @raise Invalid_argument on [nodes <= 0] or an out-of-range node. *)
end
