(** Real-process transport: one {!Transport.S} backend per OS process,
    speaking {!Wire} frames over Unix-domain or TCP sockets.

    Where every other backend simulates the cluster inside one process,
    a socket transport hosts exactly ONE node ([local]) and reaches the
    other [nodes - 1] over the network: each process listens on its own
    address ([addr_of local]) and dials its peers on demand, redialing
    whenever a retransmission or an owed ack finds the peer's connection
    gone. The clock is the wall clock, timers run on an
    {!Dpc_util.Event_queue} inside a [select] loop, and deliveries still
    go through that queue — run-to-completion of the current handler
    holds exactly as it does on the simulator.

    {b The channels are {!Reliable}'s.} TCP gives FIFO bytes on one
    connection, but a [kill -9] kills connections with the process — so
    exactly-once effects across crashes need the simulator's channel
    protocol, and a {!Reliable.over_frames} link runs it here; the socket
    carries its frames. [dpcd]'s config re-offers every unacked frame
    every 250 ms, with no backoff and no retry limit, so a channel is
    never suspended (dpc-wire-v1 has no probe frame); a re-offer is
    skipped while the connection still queues 1 MB, and a fresh
    connection re-offers the whole unacked tail. Acks are cumulative:
    the receiver persists its watermark advance BEFORE running the
    delivery callback (see {!set_persist}) and acks only after
    {!set_sync} has flushed the effects — an ack is a durable promise,
    as {!Reliable}'s crash model demands.

    {b The durable outbox.} The transport does not persist anything
    itself; it reports through {!set_persist} and expects the host to
    journal [Sent] records before the first transmission (the
    persist-before-send discipline, implemented by
    [Dpc_core.Durable.Outbox]) and to re-offer the unacked tail with
    {!requeue} after a restart. Closures never cross the wire: senders
    hand over opaque payload strings ({!send_payload}), receivers get
    them back through {!set_deliver} — the runtime's remote hook
    ([Dpc_engine.Runtime.set_remote]) serializes events as journal
    entries on one side and replays them on the other.

    Sequence numbers on this interface are dpc-wire-v1's, 1-based.
    Addresses are Unix-domain sockets, ["unix:/path/to.sock"]. *)

val sockaddr : string -> Unix.sockaddr
(** Parse an address. @raise Invalid_argument unless it is
    ["unix:<path>"] with a non-empty path. *)

(** What the host must make durable, reported synchronously and in
    order. [Sent] fires BEFORE the frame's first transmission; [Expected]
    fires before the delivery callback it covers. *)
type persist_event =
  | Sent of { dst : int; seq : int; payload : string }
  | Acked of { dst : int; seq : int }  (** cumulative: every seq [<=] is acked *)
  | Expected of { src : int; seq : int }  (** receive watermark advanced to [seq] *)

type stats = {
  data_sent : int;
  data_received : int;
  retransmits : int;
  dup_dropped : int;
  held : int;
  acks_sent : int;
  reconnects : int;
  chaos_dropped : int;  (** data frames eaten by injected chaos before the wire *)
  chaos_duplicated : int;  (** data frames enqueued twice by injected chaos *)
  chaos_delayed : int;  (** data frames held back by injected chaos *)
  blocked_drops : int;  (** inbound frames eaten because their peer is blocked *)
  stray_frames : int;
      (** data and ack frames dropped because their [src] is this node or
          past the cluster *)
}

type t

val create : nodes:int -> local:int -> addr_of:(int -> string) -> unit -> t
(** Bind [addr_of local] and return a transport addressing the whole
    [nodes]-wide cluster with only [local] hosted here. Peers are dialed
    on demand. Ignores [SIGPIPE] for the process, so a write to a
    connection the peer has closed drops the connection.
    @raise Invalid_argument on a bad node count, an out-of-range [local],
    or a malformed address;
    @raise Unix.Unix_error if the listen address cannot be bound. *)

val transport : t -> Transport.t
(** The {!Transport.S} view: [shards = 1], [shard_of _ = 0], [now] is
    wall-clock seconds since {!create}, [send]/[broadcast] accept only
    the local node as destination (remote destinations need
    {!send_payload} — closures cannot cross a process boundary) and
    [run ?until] pumps the socket loop until {!stop} or the [until]
    horizon instead of quiescence, which no single process can decide. *)

val send_payload : t -> dst:int -> string -> unit
(** Queue a payload on channel [(local, dst)]: reports [Sent] with its
    sequence number through the persist hook, then hands it to the
    channel, which transmits it (or keeps it unacked until the peer is
    dialable). Retransmission and dedup make the delivery exactly-once
    at the peer's {!set_deliver}. @raise Invalid_argument if [dst] is
    the local node or out of range. *)

val set_deliver : t -> (src:int -> payload:string -> unit) -> unit
(** The data-plane sink: runs exactly once per {!send_payload} at the
    sending process, in channel order, after the watermark advance was
    reported through {!set_persist}. *)

val set_control : t -> (payload:string -> reply:(string -> unit) -> unit) -> unit
(** The control-plane handler: a [Ctrl] frame from a control client
    (one that said hello as {!Wire.control_id}) invokes it; [reply]
    queues a [Ctrl] response on the same connection. *)

val set_persist : t -> (persist_event -> unit) -> unit
val set_sync : t -> (unit -> unit) -> unit
(** Called once per delivery batch, after the delivery callbacks and
    before their acks are transmitted — the host flushes its write-ahead
    log here so no ack ever outruns the durability of its effects. *)

(** {2 Injectable link faults}

    The process-level analogue of {!Transport.partitionable} and
    {!Transport.faulty}: partitions are injected by blocking a peer
    (dials refused, established connections dropped, inbound frames
    eaten — a full blackhole of that peer at this endpoint), chaos by a
    hashed per-channel fault schedule over outgoing data frames. Neither
    touches the channel state, so the retransmit/dedup discipline must
    deliver exactly-once effects through both — which is what the
    process-level chaos and partition oracles assert. A data or ack
    frame whose [src] is this node or past the cluster is dropped and
    counted ([stray_frames]). *)

val set_peer_blocked : t -> peer:int -> bool -> unit
(** Block or unblock one peer (idempotent). Blocking closes the dialed
    and inbound connections to the peer and refuses new ones; frames
    buffered on them die with the connection. Unblocking redials eagerly
    when data or acks are owed — the reconnect handshake re-offers the
    unacked tail. @raise Invalid_argument if [peer] is the local node or
    out of range. *)

val set_chaos : t -> config:Transport.fault_config -> seed:int -> unit
(** Corrupt outgoing data frames with {!Transport.hashed_decide} at the
    given rates: drops never reach the wire (the channel's timer
    re-offers), duplicates are enqueued twice, delays re-offer through a
    timer. Hello, ack and control frames are exempt — the control plane
    stays reliable so an oracle can still drive a chaotic cluster. *)

(** {2 Restart support}

    None of these reports a persist event. [set_next_seq], [set_expected]
    and [requeue] raise [Invalid_argument] on a peer that is the local
    node or past the cluster. *)

val set_next_seq : t -> dst:int -> int -> unit
(** Monotonically raise the sender sequence of channel [(local, dst)]. *)

val sender_next_seq : t -> dst:int -> int
(** The sequence the next {!send_payload} toward [dst] would take. After
    {!restore_channels} this is the checkpoint cut's cursor — the
    position replayed remote sends are reconciled against. *)

val set_expected : t -> src:int -> int -> unit
(** Monotonically raise the receive watermark of channel [(src, local)]. *)

val requeue : t -> dst:int -> seq:int -> string -> unit
(** Reload one unacked send from the durable outbox: the frame rejoins
    the retransmit set without a fresh [Sent] record (it already has
    one). Sends below the restored ack watermark are dropped. *)

val snapshot_channels : t -> string
(** Serialize every channel's sequence state (next_seq, acked, expected)
    for inclusion in a durable checkpoint; deterministic, zero-state
    channels skipped. *)

val restore_channels : t -> string -> unit
(** Monotonically apply a {!snapshot_channels} blob. Nothing is applied
    unless the whole blob reads and ends where its last field does.
    @raise Dpc_util.Serialize.Corrupt on a malformed blob, including a
    peer that is this node or past the cluster, or trailing bytes. *)

val unacked : t -> int
(** Outstanding data frames across all channels (the outbox depth). *)

val stop : t -> unit
(** Make the current (or next) [run] return; idempotent. *)

val close : t -> unit
(** Close every socket and unlink the Unix listen path. The transport
    must not be used afterwards. *)

val stats : t -> stats
