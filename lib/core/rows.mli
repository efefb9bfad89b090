(** Relational provenance rows shared by the three maintenance schemes, with
    serialized-size accounting (the paper's storage metric serializes the
    per-node [prov] and [ruleExec] tables and measures the bytes). Each row
    carries only its own fields: its references are the engine's
    {!Dpc_engine.Prov_hook.back}, shared with the meta that brought them,
    and its vids one array built at its final length. *)

type prov_row = {
  loc : int;  (** node storing the row (and the tuple's location) *)
  vid : Dpc_util.Sha1.t;  (** hash of the tuple *)
  rid : Dpc_engine.Prov_hook.back;
      (** (RLoc, RID) of the deriving rule execution; [No_back] marks a
          base tuple (ExSPAN) *)
  evid : Dpc_util.Sha1.t option;  (** input-event hash (Advanced only) *)
}

type rule_exec_row = {
  rloc : int;
  rid : Dpc_util.Sha1.t;
  rule : string;
  vids : Dpc_util.Sha1.t array;  (** body tuple hashes (scheme-dependent subset) *)
  next : Dpc_engine.Prov_hook.back;
      (** (NLoc, NRID) back-pointer (Basic/Advanced); [No_back] at the leaf *)
}

type link_row = {
  link_rloc : int;
  link_rid : Dpc_util.Sha1.t;
  link_next : Dpc_engine.Prov_hook.back;
}
(** A [ruleExecLink] row of the inter-equivalence-class layout (§5.4). *)

val prov_row_bytes : with_evid:bool -> prov_row -> int
val rule_exec_row_bytes : with_next:bool -> rule_exec_row -> int
val link_row_bytes : link_row -> int

(** The cut writers' row order: field by field in declaration order, the
    vids lexicographically (a proper prefix first), an absent evid or
    reference first. It is the order polymorphic [compare] gave the rows
    when their vids were lists and their references options, which the
    store formats' bytes rest on; [compare] on the arrays would order by
    length first. *)

val compare_prov_row : prov_row -> prov_row -> int
val compare_rule_exec_row : rule_exec_row -> rule_exec_row -> int
val compare_link_row : link_row -> link_row -> int

val vid_of : Dpc_ndlog.Tuple.t -> Dpc_util.Sha1.t
(** The tuple's vid, {!Dpc_ndlog.Tuple.digest}. *)

val vids : Dpc_ndlog.Tuple.t list -> Dpc_util.Sha1.t array
(** The tuples' vids, in order. *)

val vids_then : Dpc_ndlog.Tuple.t list -> Dpc_util.Sha1.t -> Dpc_util.Sha1.t array
(** [vids_then tuples vid]: the tuples' vids, then [vid]. *)

val hex : Dpc_util.Sha1.t -> string

val key : Dpc_util.Sha1.t -> string
(** Store-table key for a digest: the raw 20 bytes (no allocation), as
    opposed to [hex], which renders 40 characters for display. *)

val ref_bytes : int
(** Wire size of a (node, digest) provenance reference. *)

(** The RID of Tables 1–3, [sha1(rule+node+vid1+...+vidk)] over the raw
    vid bytes, then a scheme's tail; the one rid builder of every scheme.
    Each allocates only the digest. *)

val rid : rule:string -> node:int -> Dpc_util.Sha1.t array -> Dpc_util.Sha1.t
(** No tail. *)

val rid_then : rule:string -> node:int -> Dpc_util.Sha1.t array -> Dpc_util.Sha1.t -> Dpc_util.Sha1.t
(** One more vid after the array's, e.g. the event's after the slow ones:
    [rid_then ~rule ~node vids vid] is [rid] of [vids] with [vid]
    appended. *)

val rid_chain :
  rule:string -> node:int -> Dpc_util.Sha1.t array -> Dpc_engine.Prov_hook.back -> Dpc_util.Sha1.t
(** The chain back-pointer, or ["leaf"] (Advanced's plain layout). *)

(** Multi-map from a string key, read from each row, to rows,
    deduplicating identical rows and keeping a running serialized-size
    counter. Each row is one 3-word entry of a chained hash table, the row
    and the link to the next, with no list cell and no stored key, and the
    lookups below allocate nothing of their own. *)
module Table : sig
  type 'a t

  val create : ?buckets:int -> key:('a -> string) -> row_bytes:('a -> int) -> unit -> 'a t
  (** A table of [buckets] buckets (default 64, a power of two), doubled
      past two rows a bucket. [key] must not allocate: lookups call it on
      every entry they pass.
      @raise Invalid_argument if [buckets] is not a power of two. *)

  val add : 'a t -> 'a -> bool
  (** [true] if the row was new under its key (structural comparison). *)

  val add_first : 'a t -> 'a -> bool
  (** Add the row only if its key has none: the first row under a key
      wins. [true] if it was added. *)

  val first : 'a t -> string -> 'a
  (** The key's oldest row. @raise Not_found if it has none. *)

  val only : 'a t -> string -> 'a
  (** The key's one row.
      @raise Not_found unless the key has exactly one row. *)

  val count : 'a t -> string -> int
  (** The number of rows under the key. *)

  val exists : 'a t -> string -> ('a -> bool) -> bool
  (** Whether one of the key's rows satisfies the predicate, tried oldest
      first. *)

  val iter_key : 'a t -> string -> ('a -> unit) -> unit
  (** [f] on each of the key's rows, oldest first. *)

  val concat_map : 'a t -> string -> ('a -> 'b list) -> 'b list
  (** [List.concat_map f] over the key's rows, oldest first. *)

  val rows : 'a t -> int
  val bytes : 'a t -> int
  val iter : 'a t -> ('a -> unit) -> unit
  (** Every row, in no particular order. *)
end

type storage = {
  prov_bytes : int;
  rule_exec_bytes : int;  (** including §5.4 node and link tables when used *)
  equi_bytes : int;  (** htequi + hmap (Advanced) *)
  event_bytes : int;  (** input events materialized for querying *)
  prov_rows : int;
  rule_exec_rows : int;
}

val empty_storage : storage
val add_storage : storage -> storage -> storage

val provenance_bytes : storage -> int
(** [prov_bytes + rule_exec_bytes]: the metric the paper reports. *)

val show_digest : Dpc_util.Sha1.t -> string
(** Abbreviated hex for table dumps. *)

val show_ref : Dpc_engine.Prov_hook.back -> string
(** ["n3/1a2b3c4d"] or ["NULL"]. *)

val dump_prov :
  with_evid:bool -> (int -> prov_row list) -> int -> string list * string list list
(** Header and sorted rows of the prov tables of nodes [0..n-1]. *)

val dump_rule_exec :
  with_next:bool -> (int -> rule_exec_row list) -> int -> string list * string list list

val write_prov_row : Dpc_util.Serialize.writer -> prov_row -> unit
val read_prov_row : Dpc_util.Serialize.reader -> prov_row
val write_rule_exec_row : Dpc_util.Serialize.writer -> rule_exec_row -> unit
val read_rule_exec_row : Dpc_util.Serialize.reader -> rule_exec_row
val write_link_row : Dpc_util.Serialize.writer -> link_row -> unit
val read_link_row : Dpc_util.Serialize.reader -> link_row
