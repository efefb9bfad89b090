(** The [dpcd] launcher and real-process transparency oracle.

    {!run_all} spawns, for each scheme, one daemon process per scenario
    node (each a
    fresh [dpcd serve] of the given executable), drives the {!Scenario}
    phases over the control plane, [kill -9]s node 1's process mid-run
    and respawns it against the same data directory, and finally
    compares every daemon's store and database digests against the
    in-process simulator reference ({!Scenario.simulate}) — byte
    equality or an error naming the diverging node.

    Phase separation uses a status barrier: all daemons report zero
    unacked frames and unchanged send/receive counters across two
    consecutive polls. Counters are monotonic and every delivery
    enqueues its causal sends before the ack leaves, so the double poll
    cannot observe a quiet instant of an active cluster.

    The oracle's partition phase ({!Scenario} phase [part]) drives
    {!Ctrl.request.Block}/[Unblock]: both sides of the 0-1 link refuse
    each other, packets pile up in node 0's durable outbox, node 1 is
    killed and restarted {e inside} the outage, and after the heal the
    outbox re-offer must reconcile with the restarted daemon exactly
    once. {!run_soak_all} is the long-running variant: sustained rounds of
    traffic with a periodic {!Ctrl.request.Compact}, asserting the
    ledger stays under a round-independent byte ceiling. *)

val addr_of : dir:string -> int -> string
(** The address convention both sides derive from the data directory:
    ["unix:<dir>/node-<i>.sock"]. *)

val scheme_arg : Dpc_core.Backend.scheme -> string
(** The [--scheme] spelling: [exspan], [basic], [advanced],
    [advanced-interclass]. *)

val scheme_of_arg : string -> Dpc_core.Backend.scheme option

val run_all :
  ?chaos:Dpc_net.Transport.fault_config * int ->
  exe:string -> dir:string -> Dpc_core.Backend.scheme list -> bool
(** Run the oracle for each scheme in its own subdirectory of [dir],
    printing one PASS/FAIL line per scheme to stdout (a pass with a
    summary, a failure with the first error); [true] iff all passed.
    [exe] is the [dpcd] binary (the launcher respawns it as
    [<exe> serve ...]); a scheme's directory holds the sockets, daemon
    logs ([node-<i>.log]) and the daemons' durable state. [chaos] is
    forwarded to every spawned daemon as
    [--drop]/[--dup]/[--delay]/[--delay-max]/[--chaos-seed] — hashed
    frame corruption on the real wire ({!Dpc_net.Socket.set_chaos}).
    Spawned processes are always reaped, whatever the outcome. *)

val run_soak_all :
  ?chaos:Dpc_net.Transport.fault_config * int ->
  exe:string ->
  dir:string ->
  rounds:int ->
  per_round:int ->
  Dpc_core.Backend.scheme list ->
  bool
(** The sustained-traffic oracle, per scheme in its own subdirectory
    with PASS/FAIL lines: [rounds] rounds of [per_round] packets,
    quiesced and {!Ctrl.request.Compact}ed between rounds. A scheme fails
    if any daemon's compacted outbox ledger exceeds the round-independent
    byte ceiling, if the sink's output count is wrong, or if the final
    digests diverge from {!Scenario.simulate_soak}. [true] iff all
    passed. *)
