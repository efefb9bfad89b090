(** The fixed transparency-oracle scenario both worlds run: a 3-node
    packet-forwarding chain, in five phases.

    {ol
    {- [pre]: five packets from node 0 toward node 2 along the loaded
       routes (0 -> 1 -> 2).}
    {- [mid]: three more packets — the real cluster injects these while
       node 1's daemon is [kill -9]ed, so they sit in node 0's durable
       outbox until the restarted daemon recovers and the retransmits
       land.}
    {- [refresh]: the §5.5 route update at node 1 (delete + reinsert of
       the same entry — two [sig] broadcasts wiping every [htequi]).}
    {- [post]: five packets that must see re-materialized chains.}
    {- [part]: three packets injected while the 0↔1 link is blocked in
       both directions ({!Ctrl.request.Block}); the cluster then kills
       node 1 mid-partition, restarts it, heals the link, and the
       packets must still arrive exactly once — the durable outbox
       re-offer and the socket redial reconcile on heal.}}

    The simulator reference ({!simulate}) runs the same phases over
    {!Dpc_net.Transport.direct} with a quiescence run between each; the
    real cluster separates phases with the launcher's status barrier.
    Because every store serializes deterministically (sorted relations,
    canonical tuple order) and both worlds apply the same per-node
    operation sequences, the per-node digests must match byte for byte
    — crashes, retransmission, and recovery included. *)

val nodes : int
(** 3. *)

val routes : unit -> Dpc_ndlog.Tuple.t list
(** The forwarding entries: node 0 -> 1, node 1 -> 2 for destination 2. *)

val refreshed_route : unit -> Dpc_ndlog.Tuple.t
(** The entry the refresh phase deletes and reinserts (homed at node 1). *)

val pre_packets : unit -> Dpc_ndlog.Tuple.t list
val mid_packets : unit -> Dpc_ndlog.Tuple.t list
val post_packets : unit -> Dpc_ndlog.Tuple.t list
val part_packets : unit -> Dpc_ndlog.Tuple.t list

val total_outputs : int
(** Packets across all phases (16) — every one must surface as a [recv]
    output at node 2. *)

val soak_packets : round:int -> int -> Dpc_ndlog.Tuple.t list
(** [count] packets with round-stamped payloads ([soak<round>-<i>]) —
    the sustained traffic of [dpcd cluster --soak]. *)

type digests = { store : string; db : string }
(** Hex SHA-1 of one node's provenance tables
    ({!Dpc_core.Backend.digest_node}) and relational database
    ({!Dpc_engine.Db.digest}, non-sealing). *)

val simulate : Dpc_core.Backend.scheme -> digests array
(** Run the whole scenario in-process on a direct transport and return
    the per-node reference digests the real cluster must reproduce. *)

val simulate_soak : Dpc_core.Backend.scheme -> rounds:int -> per_round:int -> digests array
(** Reference digests for the soak workload: [rounds] rounds of
    [per_round] packets each, quiesced between rounds. *)
