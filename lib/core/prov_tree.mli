(** Provenance trees (paper §2.2 and Appendix A).

    [tr ::= <rID, P, ev, B1..Bn> | <rID, P, tr, B1..Bn>]: a rule execution
    node derives tuple [P] from a trigger (the input event tuple, or the
    subtree deriving an intermediate event) and the slow-changing tuples
    [B1..Bn] it joined. The root's [output] is the queried tuple. *)

type t = {
  rule : string;
  output : Dpc_ndlog.Tuple.t;
  trigger : trigger;
  slow : Dpc_ndlog.Tuple.t list;
}

and trigger = Event of Dpc_ndlog.Tuple.t | Derived of t

val event_of : t -> Dpc_ndlog.Tuple.t
(** The input event at the leaf (the paper's [EVENTOF]). *)

val depth : t -> int
(** Number of rule executions in the chain (>= 1). *)

val rules_root_to_leaf : t -> string list

val tuples : t -> Dpc_ndlog.Tuple.t list
(** Every tuple in the tree: outputs, slow tuples, and the event. *)

val equal : t -> t -> bool

val equivalent : t -> t -> bool
(** The paper's [~] relation (Appendix A): identical rule sequence and
    identical slow-changing tuples at every level; the derived tuples and
    the input event may differ. *)

val compare : t -> t -> int

val event_id : t -> Dpc_util.Sha1.t
(** [sha1 (EVENTOF tr)] as the runtime computes it: {!Dpc_ndlog.Tuple.digest},
    which interns [Str] payloads longer than {!Dpc_ndlog.Value.payload_inline_max}.
    This is the evid the runtime hands out ([Prov_hook.meta.evid]), so
    [query ~evid] filters on it. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering, root first. *)

val to_string : t -> string
