(** Per-node state: the database, a metrics registry, and a typed
    property map through which higher layers (the provenance stores in
    [lib/core]) attach their own per-node tables without this module
    knowing about them.

    A [Node.t array] — usually built with {!cluster} — is the single
    owner of everything a node holds; the runtime, the stores, and the
    side stores all reach their state through it instead of indexing
    parallel arrays by node id. *)

type t

val cluster : int -> t array
(** [cluster n] is [n] fresh nodes, for node ids [0 .. n-1].
    @raise Invalid_argument if [n] is not positive. *)

val db : t -> Db.t
val metrics : t -> Dpc_util.Metrics.t

val tick : t -> string -> unit
(** Bump a counter in the node's metrics registry by 1: the one-liner every
    layer that instruments per-node work wants. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to a counter in the node's registry. *)

val reset : t -> unit
(** Wipe everything volatile — database, metrics, properties — as a crash
    does. The node keeps its id; the stores re-initialize their property
    records lazily on the next touch. Hooks registered with {!on_reset}
    run after the wipe. *)

val on_reset : t -> (unit -> unit) -> unit
(** Register a hook that fires after every {!reset} of this node. Hooks
    survive the reset itself (they live outside the property map) — this
    is the engine-level invalidation point for layers that cache derived
    views of a node's state, e.g. the query serving tier dropping memo
    entries when a crash rematerializes the node. *)

(** {2 Typed properties}

    Each store instance allocates a private {!key} at creation time and
    stashes its per-node record under it, so several stores (or several
    handles of a cross-program store) can share one cluster without
    colliding. *)

type 'a key

val key : unit -> 'a key
(** A fresh key. Two calls never compare equal. *)

val get_or_init : t -> 'a key -> init:(unit -> 'a) -> 'a
(** The value under the key, creating and storing [init ()] first if the
    node doesn't have one yet. *)
