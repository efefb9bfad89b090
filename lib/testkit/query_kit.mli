(** What the query oracles compare, from the public types: a query cost
    model that charges nothing, and measures of a proof tree. *)

val free : Dpc_core.Query_cost.t
(** Zero cost everywhere, for correctness tests. *)

val depth : Dpc_core.Prov_tree.t -> int
(** Number of rule executions in the chain (>= 1). *)

val rules_root_to_leaf : Dpc_core.Prov_tree.t -> string list

val equivalent : Dpc_core.Prov_tree.t -> Dpc_core.Prov_tree.t -> bool
(** The paper's [~] relation (Appendix A): identical rule sequence and
    identical slow-changing tuples at every level; the derived tuples and
    the input event may differ. *)
