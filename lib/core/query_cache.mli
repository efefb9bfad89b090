(** Memoization cache for bottom-up proof-tree re-execution.

    Querying the compressed schemes (Basic, Advanced) re-derives trees
    by walking [(NLoc, NRID)] back-pointers and re-firing rules; ExSPAN
    walks its uncompressed graph. All of that work is a pure function of
    the per-node store state it reads, so the serving tier memoizes it:
    one entry per query root, keyed by the root reference plus a scheme
    supplied context digest (the queried output's vid, and for Advanced
    the event id that selects the chain).

    Correctness contract — a hit must be byte-identical to a recompute:

    - {b Staleness.} Store tables are append-only but row {e sets} under
      an existing key still grow (a Basic rid gains alternative chains;
      an ExSPAN prov row gains derived refs). Every entry therefore
      records the write {e generation} of each node it read; the stores
      bump their per-node generation on every accepted row insert, and a
      lookup whose recorded generations no longer match drops the entry
      (counted as an invalidation) and misses.
    - {b The dependency snapshot.} An entry keeps one int per node its
      walk read: the node id in the high 22 bits and its generation in
      the low [Sys.int_size - 23] bits (40 on a 64-bit host), so a node
      costs one word instead of a list cell and a pair. The widths bound
      what can be cached: a walk that read a node past {!max_node}, or a
      generation past {!max_gen}, is not cached, and its answer is
      returned as computed.
    - {b §5.5 slow-update flush.} A [sig] broadcast means previously
      reconstructed trees may no longer reflect the store (Advanced
      wipes [htequi]); the stores call {!invalidate_node} from their
      [on_slow_update] hook, dropping every entry that read the node.
    - {b Crash recovery.} [Node.reset] (the crash path) fires an
      engine-level hook that calls {!invalidate_node}; rematerialized
      state then repopulates under fresh generations.
    - {b Degraded queries.} An entry also records nothing about node
      liveness, so a lookup takes the query's [up] predicate: any dep on
      a down node is a miss — the real walk then degrades exactly as it
      would with the cache off, keeping digests identical under crash
      schedules. Entries are never written from a walk that hit a down
      node.

    The cache is shared across nodes of one backend and mutex-guarded,
    so sharded (multi-domain) runs may consult it concurrently. Metrics
    flow through a tick callback the creator wires to the per-node
    registries: [query.cache.{hit,miss,evict,invalidate}]. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;  (** live entries *)
}

val create : ?capacity:int -> tick:(node:int -> string -> int -> unit) -> unit -> t
(** A fresh cache. [capacity] (default 4096) bounds live entries; going
    over evicts the least-recently-used half in one sweep. [tick node
    name by] routes a metrics increment to [node]'s registry.
    @raise Invalid_argument if [capacity < 1]. *)

val key : loc:int -> rid:Dpc_util.Sha1.t -> ctx:string -> string
(** The cache key for a query root: the [(NLoc, NRID)] pair the paper's
    reconstruction starts from, plus a scheme-specific context [ctx]
    disambiguating what is being rebuilt from that root (the output's
    vid; Advanced adds the event id). Raw bytes, no hex. *)

val find :
  t ->
  querier:int ->
  up:(int -> bool) ->
  gen:(int -> int) ->
  string ->
  Prov_tree.t list option
(** Look up a key. [gen node] must return the node's current write
    generation in the consulting store; [up] is the query's liveness
    predicate. Returns [None] (miss) when absent, when any dep node is
    down, or when a dep generation moved (the entry is then dropped and
    counted as an invalidation). Hit/miss ticks land on [querier]. *)

val add :
  t ->
  querier:int ->
  gen:(int -> int) ->
  touched:int list ->
  string ->
  Prov_tree.t list ->
  unit
(** [add t ~querier ~gen ~touched key trees] memoizes [trees] under [key],
    packing the snapshot straight from [touched], the nodes the walk read,
    each with its generation [gen node]. If a node is outside
    [0..max_node] or a generation outside [0..max_gen], nothing is added.
    The caller must only add results of complete walks (no down node
    hit). May trigger eviction, ticked against [querier]. *)

val invalidate_node : t -> int -> unit
(** Drop every entry that read [node]; ticks
    [query.cache.invalidate] on that node once per dropped entry. *)

val stats : t -> stats

module For_testing : sig
  val max_node : int
  (** [2{^22} - 1], the largest node id a snapshot holds. *)

  val max_gen : int
  (** The largest generation a snapshot holds: [2{^40} - 1] on a 64-bit
      host, where the two fields take all 62 bits of a non-negative int. *)

  val clear : t -> unit
  (** Drop everything, without counting invalidations (administrative). *)
end
