(** One [dpcd] process: a single scenario node hosted on a socket
    transport with its log on real disk.

    The daemon is where the pieces meet — it owns the wiring diagram of
    the real-process stack:

    {ul
    {- {!Dpc_net.Socket} carries the frames and reports persistence
       obligations; the daemon routes [Sent] records into the durable
       outbox (after flushing the WAL, so the send's cause is never less
       durable than the send), [Acked] into the ledger, and [Expected]
       watermark advances into the journal.}
    {- {!Dpc_engine.Runtime.set_remote} turns cross-process shipments
       into serialized journal entries over {!Dpc_net.Socket.send_payload};
       inbound frames apply through {!Dpc_engine.Runtime.deliver_remote}.}
    {- {!Dpc_core.Durable.attach} with [?disk] puts checkpoints, the WAL,
       and the outbox under [dir/node-<local>/]. On a restart the daemon
       finds the manifest, {!Dpc_core.Durable.recover}s (replayed remote
       sends are reconciled against the outbox by channel position), then
       re-offers the unacked outbox tail to the transport.}}

    The control plane ({!Ctrl}) makes the process drivable from a
    launcher; {!Cluster} uses it to run the transparency oracle. *)

type t

val create :
  scheme:Dpc_core.Backend.scheme ->
  nodes:int ->
  local:int ->
  addr_of:(int -> string) ->
  dir:string ->
  ?chaos:Dpc_net.Transport.fault_config * int ->
  unit ->
  t
(** Build the node and bind its listen address. If [dir/node-<local>/]
    already holds a manifest, the volatile state is rebuilt from disk
    before the function returns — a caller never sees a half-recovered
    daemon. It compacts every 4 boundary entries and rebases every 2nd
    cut ([{checkpoint_every = 4; rebase_every = 2}]), small enough that
    the scenario exercises delta cuts and outbox compaction. [chaos] is
    a [(rates, seed)] pair passed to {!Dpc_net.Socket.set_chaos} —
    hashed per-channel frame corruption, the process-level chaos
    sweep. *)

val serve : t -> unit
(** Pump the socket loop until a [Shutdown] control request (or
    {!Dpc_net.Socket.stop}); closes the sockets before returning. *)
