(** One node's materialized tuples, addressed by digest.

    Query-time reconstruction needs actual tuple contents: ExSPAN resolves
    every body tuple by its [vid]; Basic and Advanced resolve slow-changing
    tuples by [vid] and the input event by [evid] at its ingress node. This
    mirrors the tuples a declarative networking engine keeps in its node
    databases anyway; the paper's storage metric does not include it (it
    serializes only the [prov]/[ruleExec] tables), so we account for it
    separately.

    A store instance covers a single node; stores hang one off each
    {!Dpc_engine.Node.t} they use. *)

type t

val create : unit -> t

val put : t -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t -> unit
(** Idempotent for an existing key. *)

val put_new : t -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t -> bool
(** Like {!put}, but reports whether the entry was actually inserted —
    the hook delta checkpointing needs to track first insertions. *)

val get : t -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t option

val find : t -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t
(** {!get} without the option. @raise Not_found for an absent key. *)

val bytes : t -> int
val count : t -> int

val iter : t -> (key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t -> unit) -> unit
(** Visit every entry, in unspecified order. *)
