(** Equivalence-based online compression (paper §5, Table 3).

    Stage 1: at the ingress node, the event's equivalence-key values
    (identified by static analysis, {!Dpc_analysis.Equi_keys}) are hashed
    and checked against the node's [htequi]; a hit sets [existFlag].
    Stage 2: rule executions store [ruleExec] rows only when
    [existFlag = false] — one shared chain per equivalence class.
    Stage 3: at the output node, every execution stores a small [prov] delta
    [(VID, RLoc, RID, EVID)] referencing the shared chain via [hmap].

    With [~interclass:true], the §5.4 layout splits [ruleExec] into a
    [ruleExecNode] table (concrete rule executions, deduplicated across
    equivalence classes) and a [ruleExecLink] table (per-tree parent/child
    pointers), so chains that overlap — e.g. crossing traffic sharing a
    path suffix — share rows.

    Slow-changing updates (§5.5), inserts and deletes alike, clear
    [htequi] at every node receiving the [sig] broadcast, forcing
    re-materialization of each class's chain. [hmap] is keyed by class
    and output relation (["<class>:<relation>"]), the key the store
    formats carry.

    The paper's QUERY (Fig 18) fetches the prov deltas for the tuple,
    collects the shared chain(s), retrieves the input event by [evid] at
    the leaf's node, and re-derives intermediate tuples upward
    ({!Query_acct.chain_walk}). Candidate chains that fail re-derivation
    (possible under the §5.4 layout, where link rows of different trees
    may alternate) are discarded. Use it through {!Backend}. *)

type t

val create :
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  keys:Dpc_analysis.Equi_keys.t ->
  ?interclass:bool ->
  nodes:int ->
  unit ->
  t
(** Builds a fresh [nodes]-node cluster; per-node tables hang off each
    {!Dpc_engine.Node.t} and row writes tick its [store.*] counters
    (including [store.equi_hits]/[store.equi_misses] at ingress). *)

val store : t -> Store_kit.store
(** The store behind {!Backend}'s interface. *)

val restore :
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  keys:Dpc_analysis.Equi_keys.t ->
  string ->
  Store_kit.store
(** Rebuild a store from a whole-store checkpoint, in the layout the
    checkpoint names. @raise Dpc_util.Serialize.Corrupt on malformed
    input. *)

module For_testing : sig
  val orphan_outputs : t -> int
  (** Outputs that arrived with [existFlag = true] but found no [hmap] entry
      (possible when a §5.5 reset races in-flight executions, or when a
      packet overtakes the one materializing its class on a transport
      without per-channel FIFO); their provenance is not recorded,
      mirroring the paper's assumption that updates quiesce before
      querying. *)
end
