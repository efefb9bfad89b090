(** The query accountant every store charges, the memo-cache hookup, and
    the chain walk Basic and both Advanced layouts share.

    A query threads one accountant through its walk. Each charge adds one
    term to the modeled latency, a float sum, so a store must charge in a
    fixed order for its figures and cost identities to stay exact. *)

exception Broken of string
(** The walk cannot continue down this branch (a down node, a missing row,
    a failed re-derivation); the branch is abandoned, not the query. *)

type t
(** One query's running totals: modeled latency and its hop share,
    entries, bytes, re-derivations, down-node encounters, completeness,
    and the nodes read (for the cache's dependency snapshot). *)

val create :
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  up:(int -> bool) ->
  querier:int ->
  degraded:(unit -> unit) ->
  t

val charge_entries : t -> int -> unit
val charge_bytes : t -> int -> unit
val charge_hop : t -> src:int -> dst:int -> unit

val require_up : t -> int -> unit
(** Call before reading any state at a node. A down node costs the
    bounded retry budget ([(down_retries + 1) * down_timeout]), marks the
    result incomplete (ticking [degraded] once) and raises {!Broken}. *)

val memo :
  Query_cache.t option ->
  t ->
  gen:(int -> int) ->
  rloc:int ->
  rid:Dpc_util.Sha1.t ->
  ctx:string ->
  (unit -> Prov_tree.t list) ->
  Prov_tree.t list
(** Memoize one unit of reconstruction (everything reachable from the rule
    execution [rid] at [rloc] in the context [ctx]) in the cache, if any. A hit charges one entry and
    skips the walk; only walks that met no down node are recorded, the
    nodes they read packed with their generations ([gen]) into the
    entry's snapshot ({!Query_cache.add}). *)

val result : t -> Prov_tree.t list -> Query_result.t

val fetch : t -> Side_store.t -> Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t
(** A materialized tuple, charged by its wire size.
    @raise Broken if it is not there. *)

(** {2 The chain walk (§4, §5.6 Fig 18)} *)

type chain = {
  step :
    t ->
    int ->
    Dpc_util.Sha1.t ->
    (Rows.rule_exec_row -> Dpc_engine.Prov_hook.back -> unit) ->
    unit;
      (** [step acct rloc rid emit] charges for the rows stored at [rloc]
          under [rid] and emits each with its back-pointer ([No_back] at
          the leaf) *)
  leaf : t -> Rows.prov_row -> Rows.rule_exec_row -> Dpc_ndlog.Tuple.t * int;
      (** the leaf row's input event, charged, and how many of its vids,
          from the first, are slow vids *)
  slow : int -> Side_store.t;  (** the slow tuples materialized at a node *)
  plans : Dpc_engine.Eval.plan list;
      (** the program's rules, compiled; a row names its rule, and a name
          none of them has breaks the branch *)
}

val chain_walk :
  chain -> t -> querier:int -> output:Dpc_ndlog.Tuple.t -> Rows.prov_row -> Prov_tree.t list
(** Collect every chain root-to-leaf from the prov row's reference (at most 64,
    skipping rows already on a chain's path), then re-derive each one
    bottom-up; keep the trees whose head is [output]. A chain that fails
    re-derivation is dropped. *)
