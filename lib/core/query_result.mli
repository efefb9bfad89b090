(** Result of a distributed provenance query, and pagination over the
    canonical proof-tree ordering. *)

type t = {
  trees : Prov_tree.t list;
      (** all reconstructed derivations of the queried tuple, deduplicated *)
  latency : float;  (** seconds, under the query's {!Query_cost} model *)
  entries : int;  (** provenance rows fetched (cache hits count one) *)
  bytes : int;  (** bytes processed or shipped *)
  rederives : int;  (** rule re-executions during bottom-up replay *)
  hop_s : float;  (** seconds of [latency] attributable to network hops *)
  downs : int;
      (** down-node encounters that burned the bounded retry budget *)
  complete : bool;
      (** [false] when a crashed node made part of the provenance
          unreachable: the branches that needed it were abandoned after
          the bounded retry budget ({!Query_cost.t.down_timeout} ×
          retries), so [trees] may be a subset of the truth. [true] on
          every fully-answered query, including empty ones. *)
}

val dedup_trees : Prov_tree.t list -> Prov_tree.t list
(** Sort into the canonical order ({!Prov_tree.compare}) and drop
    duplicates. Every store returns trees through this, which is what
    makes page boundaries deterministic. *)

(** {2 Pagination}

    Huge results stream in bounded chunks instead of shipping the whole
    forest: pages walk the canonical order, and the cursor names the
    last tree served by content digest — a deterministic traversal
    position, so a cursor issued before a crash still means the same
    position when re-issued against the recovered (byte-identical)
    store. *)

type page = {
  page_trees : Prov_tree.t list;  (** at most [limit] trees, in order *)
  next_cursor : string option;  (** [None] on the last page *)
  page_total : int;  (** total trees across all pages *)
}

module For_testing : sig
  val paginate : ?cursor:string -> limit:int -> Prov_tree.t list -> page
  (** The next [limit] trees after [cursor] (from the top when absent),
      in canonical order. Start-after semantics: the tree the cursor
      names is not repeated.
      @raise Invalid_argument if [limit < 1], the cursor is malformed, or
      it names no tree in the (deduplicated) input — a stale cursor from a
      different result set must surface, not silently restart. *)
end
