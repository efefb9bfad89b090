(** Provenance trees (paper §2.2 and Appendix A).

    [tr ::= <rID, P, ev, B1..Bn> | <rID, P, tr, B1..Bn>]: a rule execution
    node derives tuple [P] from a trigger (the input event tuple, or the
    subtree deriving an intermediate event) and the slow-changing tuples
    [B1..Bn] it joined. The root's [output] is the queried tuple.

    Each form of the grammar is one constructor with an inline record, so
    a level of a tree is one block of five words: the rule, [P], the slow
    list and the trigger, with no separate trigger box. The query cache
    keeps thousands of these trees, one level per rule execution. *)

type t =
  | Event of {
      rule : string;
      output : Dpc_ndlog.Tuple.t;
      slow : Dpc_ndlog.Tuple.t list;
      event : Dpc_ndlog.Tuple.t;  (** the input event that triggered [rule] *)
    }  (** [<rID, P, ev, B1..Bn>]: the leaf *)
  | Derived of {
      rule : string;
      output : Dpc_ndlog.Tuple.t;
      slow : Dpc_ndlog.Tuple.t list;
      sub : t;  (** the tree deriving the intermediate event that triggered [rule] *)
    }  (** [<rID, P, tr, B1..Bn>] *)

val rule : t -> string
val output : t -> Dpc_ndlog.Tuple.t
val slow : t -> Dpc_ndlog.Tuple.t list

val event_of : t -> Dpc_ndlog.Tuple.t
(** The input event at the leaf (the paper's [EVENTOF]). *)

val tuples : t -> Dpc_ndlog.Tuple.t list
(** Every tuple in the tree: outputs, slow tuples, and the event. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val event_id : t -> Dpc_util.Sha1.t
(** [sha1 (EVENTOF tr)] as the runtime computes it: {!Dpc_ndlog.Tuple.digest},
    which interns [Str] payloads longer than {!Dpc_ndlog.Value.payload_inline_max}.
    This is the evid the runtime hands out ([Prov_hook.meta.evid]), so
    [query ~evid] filters on it. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering, root first. *)

val to_string : t -> string
