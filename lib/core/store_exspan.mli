(** ExSPAN-style uncompressed provenance maintenance (paper §2.2, Table 1):
    every rule execution stores a [ruleExec] row at the executing node, and
    every tuple — input event, intermediate events, slow-changing tuples,
    and the output — gets a [prov] row at its location (base tuples with a
    NULL rule reference). The comparison baseline for both optimizations.

    Queries follow [prov] and [ruleExec] rows from the queried tuple down
    to base tuples, reconstructing every derivation. The prov row of a
    derived tuple is written by the node that receives it, so a node's
    tables are exactly what it owns. Use it through {!Backend}. *)

val create :
  delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> nodes:int -> Store_kit.store

val restore :
  delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> string -> Store_kit.store
(** @raise Dpc_util.Serialize.Corrupt on malformed input. *)
