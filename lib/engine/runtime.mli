(** Distributed pipelined semi-naïve evaluation of a DELP over a message
    {!Dpc_net.Transport} (§3.1): an arriving event tuple triggers every
    rule whose event relation matches; each derived head is shipped to its
    location specifier and becomes the next event, until a tuple with no
    downstream rules is produced (the output) or no rule fires (the event
    dies). Provenance maintenance piggybacks on this via {!Prov_hook}.

    Per-node state lives in {!Node.t} values: the runtime reaches a
    node's database and metrics through its [Node.t], never through a
    parallel array of its own. Pass [?nodes] to share a cluster with the
    provenance stores (the usual setup); omit it to get a fresh one. *)

type t

type stats = {
  injected : int;
  fired : int;  (** rule executions *)
  outputs : int;
  dead_ends : int;  (** events no rule could fire on *)
}

val create :
  transport:Dpc_net.Transport.t ->
  ?reliable:Dpc_net.Reliable.config ->
  ?domains:int ->
  delp:Dpc_ndlog.Delp.t ->
  env:Env.t ->
  hook:Prov_hook.t ->
  ?record_outputs:bool ->
  ?nodes:Node.t array ->
  unit ->
  t
(** Every message is charged a fixed 28-byte header on top of its tuple
    and meta bytes.

    [reliable] layers {!Dpc_net.Reliable} between the runtime and
    [transport]: every shipped event tuple and every [sig] broadcast then
    gets at-least-once delivery with exactly-once effects — which is what
    the §4 back-pointers and the §5.5 table flush assume — even when
    [transport] drops, duplicates, or delays ({!Dpc_net.Transport.faulty}).
    The layer's per-node [net.*] counters (retransmits, acks, dedup drops)
    land in the node registries and so in {!metrics_snapshot}; its
    cluster-wide byte adders are available through {!reliability}.

    [record_outputs] (default [true]) keeps every terminal output for
    {!outputs}. Turn it off in long measurement runs that never read
    them — otherwise the list grows without bound. Stats and metrics
    still count outputs either way.

    [nodes] defaults to [Node.cluster (Transport.nodes transport)].

    Creating a runtime empties the calling domain's payload-digest cache
    ({!Dpc_ndlog.Value.reset_payload_cache}): a world's allocation does
    not depend on the worlds built before it.

    [domains] asserts the intended parallelism: the transport must report
    exactly that many shards (e.g. a [Dpc_net.Shard_sim] created with the
    same [~domains]). Omit it to accept any transport. The runtime itself
    needs no further configuration to run sharded — all dispatch is
    shard-local by construction: an event is processed on the shard
    owning its node, injections and retries are placed with
    [Transport.schedule_on], and the cluster-global stats are atomics.
    @raise Invalid_argument if [nodes] has the wrong length for the
    transport, or if [domains] disagrees with the transport's shard
    count. *)

val transport : t -> Dpc_net.Transport.t
(** The transport the runtime actually sends through — the reliable
    wrapper when [?reliable] was given, the raw one otherwise. *)

val reliability : t -> Dpc_net.Reliable.t option
(** The delivery layer created by [?reliable], for its {!Dpc_net.Reliable.stats}
    (ack/retransmit bandwidth adders). [None] on bare transports. *)

val nodes : t -> Node.t array
val node : t -> int -> Node.t

val db : t -> int -> Db.t
(** The node-local database; load slow-changing tables through it before
    injecting events, or use {!load_slow}. *)

val load_slow : t -> Dpc_ndlog.Tuple.t list -> unit
(** Insert each tuple into the database at its own location (no broadcast;
    use for pre-run setup). *)

val insert_slow_runtime : t -> Dpc_ndlog.Tuple.t -> unit
(** §5.5: insert a slow-changing tuple at runtime — stores it and
    broadcasts the [sig] control message to every node, invoking each
    node's [on_slow_update] on delivery. Re-inserting a tuple already
    present is a no-op: no broadcast, no message accounting. *)

val delete_slow_runtime : t -> Dpc_ndlog.Tuple.t -> bool
(** §5.5: remove a slow-changing tuple at runtime. A deletion is a
    slow-table update like any other, so it broadcasts [sig] (with the
    same message/byte accounting as an insert) — equivalence-class trees
    derived against the old table must not be served afterwards. Returns
    [false] (and stays silent) if the tuple was not present. *)

val inject : t -> ?delay:float -> Dpc_ndlog.Tuple.t -> unit
(** Schedule an input event tuple for processing at its location.
    @raise Invalid_argument if the tuple is not of the input event
    relation. *)

val outputs : t -> (Dpc_ndlog.Tuple.t * Prov_hook.meta) list
(** Terminal output tuples (tuples no rule consumes) in production order,
    oldest first; empty when [record_outputs] is off. *)

val stats : t -> stats

val metrics_snapshot : t -> Dpc_util.Metrics.snapshot
(** The merge of every node's metrics. Counters recorded by the runtime:
    [runtime.injected], [runtime.fired], [runtime.outputs],
    [runtime.dead_ends], [runtime.shipped_msgs], [runtime.shipped_bytes];
    the stores add their own [store.*] counters on the same nodes. *)

val run : ?until:float -> t -> unit
(** Drive the transport until quiescence (or [until]). On a sharded
    transport this spins up the shard domains and returning is the merge
    barrier: every node's state, metrics, and output is safe to read
    afterwards without synchronization. *)

(** {2 Crash-fault support}

    The durable layer ([Dpc_core.Durable]) installs two hooks,
    {!set_journal} and {!set_availability}, and rebuilds a node with
    {!replay}; none of them is needed on a crash-free run. *)

val set_journal : t -> (node:int -> Journal.entry -> unit) -> unit
(** Install the write-ahead sink. From then on the runtime reports, at
    the owning node and before applying the effect: injected inputs,
    event arrivals (with their meta), delivered [sig] messages,
    slow-table loads and runtime mutations. {!Dpc_net.Reliable} channel
    advances are reported by that layer's own [set_persist], not here. *)

val set_availability : t -> (int -> bool) -> unit
(** Tell {!inject} which nodes are up. An injection whose node is down is
    re-presented every 50 ms (the input source is durable) until the node
    restarts, bounded so a never-restarted node cannot wedge {!run}
    (abandons tick [runtime.abandoned_injections]). Deliveries between
    nodes are already cut by [Transport.crashable]; this hook only covers
    the injection path, which schedules directly on the clock. *)

val replay : t -> node:int -> Journal.entry list -> unit
(** Re-apply a journal tail to rebuild one node's volatile state after
    {!Node.reset}: entries run through the same hook/process pipeline
    that produced the original state, with sends, journaling, and the
    cluster-global {!stats} counters suppressed (per-node metric ticks
    are kept — the node's registry was wiped with it). [Next_seq] and
    [Expected] entries are skipped: the channel sequence state belongs to
    the durable layer, which applies them after the replay.
    Remote-destined sends regenerated during replay are re-offered
    through the [replayed] hook of {!set_remote} (see there) instead of
    being dropped. *)

(** {2 Real-process support}

    A transport that hosts only part of the cluster in this OS process
    (a [Dpc_net.Socket] backend) cannot carry delivery closures to the
    other part. These hooks let the runtime hand every cross-process
    message over as a serialized {!Journal.entry} payload instead; none
    of them is needed on an in-process backend. *)

val set_remote :
  t ->
  is_local:(int -> bool) ->
  ship:(dst:int -> bytes:int -> payload:string -> unit) ->
  replayed:(dst:int -> payload:string -> unit) ->
  unit
(** Split the cluster: [is_local] says which nodes this process hosts.
    Sends and [sig] broadcasts to local nodes keep going through the
    transport's event queue; every other destination gets [ship] with the
    serialized entry (and the modeled [bytes] for accounting) — the host
    forwards the payload to the peer process, which applies it with
    {!deliver_remote}. [replayed] receives the remote sends regenerated
    while {!replay} rebuilds a node: a crash can separate an arrival's
    write-ahead record from the durable-outbox records of the sends it
    caused, so the host must reconcile each re-offered payload against
    its outbox ledger by per-channel position — skip the prefix the
    ledger already has, record-and-transmit the missing tail. *)

val deliver_remote : t -> node:int -> string -> unit
(** Apply one payload shipped by a peer process's [ship] hook to the
    local [node]: journals the entry, then runs it through the normal
    processing pipeline (an [Arrival] fires rules and ships onward, a
    [Sig] invokes the slow-update hook). The caller provides the
    exactly-once, in-order discipline ({!Dpc_net.Socket} does).
    @raise Invalid_argument if the entry is not an arrival or sig, or is
    addressed to a different node.
    @raise Dpc_util.Serialize.Corrupt on an undecodable payload. *)
