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

    Slow-changing inserts (§5.5) clear [htequi] at every node receiving the
    [sig] broadcast, forcing re-materialization of each class's chain.

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

val orphan_outputs : t -> int
(** Outputs that arrived with [existFlag = true] but found no [hmap] entry
    (possible when a §5.5 reset races in-flight executions); their
    provenance is not recorded, mirroring the paper's assumption that
    updates quiesce before querying. *)

val restore :
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  keys:Dpc_analysis.Equi_keys.t ->
  string ->
  Store_kit.store
(** Rebuild a store from a whole-store checkpoint, in the layout the
    checkpoint names. @raise Dpc_util.Serialize.Corrupt on malformed
    input. *)

(** {2 Programs sharing one ruleExecNode table}

    {!Store_multi} runs each program as an inter-class store of its own
    whose ruleExecNode rows and slow tuples live in a table every program
    shares. *)

type shared

val shared : Dpc_engine.Node.t array -> shared
val shared_nodes : shared -> Dpc_engine.Node.t array
val shared_storage : shared -> Rows.storage

val program :
  shared:shared -> keys:Dpc_analysis.Equi_keys.t -> plan:(string -> Dpc_engine.Eval.plan) -> t
(** A program's store over [shared]'s cluster; [plan] maps a node row's
    rule name to the rule that re-derives it. *)

val link_step :
  t ->
  node:int ->
  rid:Dpc_util.Sha1.t ->
  label:string ->
  slow:Dpc_ndlog.Tuple.t list ->
  slow_vids:Dpc_util.Sha1.t array ->
  Dpc_engine.Prov_hook.meta ->
  Dpc_engine.Prov_hook.meta
(** The §5.4 record step: the ruleExecNode row [rid] (rule [label]) with
    its slow tuples, and this tree's link row to the previous step. *)
