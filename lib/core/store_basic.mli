(** Basic storage optimization (paper §4, Table 2): provenance nodes for
    intermediate event tuples are dropped; each [ruleExec] row carries a
    [(NLoc, NRID)] back-pointer to the rule execution that derived its
    event, and only output tuples (the relations of interest) get [prov]
    rows. Queries walk the back-pointer chain to the leaf, retrieve the
    input event, and re-derive the intermediate tuples bottom-up
    ({!Query_acct.chain_walk}). Use it through {!Backend}. *)

val create :
  delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> nodes:int -> Store_kit.store

val restore :
  delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> string -> Store_kit.store
(** @raise Dpc_util.Serialize.Corrupt on malformed input. *)
