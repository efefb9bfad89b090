(** Relational provenance rows shared by the three maintenance schemes, with
    serialized-size accounting (the paper's storage metric serializes the
    per-node [prov] and [ruleExec] tables and measures the bytes). *)

type prov_row = {
  loc : int;  (** node storing the row (and the tuple's location) *)
  vid : Dpc_util.Sha1.t;  (** hash of the tuple *)
  rid : (int * Dpc_util.Sha1.t) option;
      (** (RLoc, RID) of the deriving rule execution; [None] marks a base
          tuple (ExSPAN) *)
  evid : Dpc_util.Sha1.t option;  (** input-event hash (Advanced only) *)
}

type rule_exec_row = {
  rloc : int;
  rid : Dpc_util.Sha1.t;
  rule : string;
  vids : Dpc_util.Sha1.t list;  (** body tuple hashes (scheme-dependent subset) *)
  next : (int * Dpc_util.Sha1.t) option;
      (** (NLoc, NRID) back-pointer (Basic/Advanced); [None] at the leaf *)
}

type link_row = {
  link_rloc : int;
  link_rid : Dpc_util.Sha1.t;
  link_next : (int * Dpc_util.Sha1.t) option;
}
(** A [ruleExecLink] row of the inter-equivalence-class layout (§5.4). *)

val prov_row_bytes : with_evid:bool -> prov_row -> int
val rule_exec_row_bytes : with_next:bool -> rule_exec_row -> int
val link_row_bytes : link_row -> int

val vid_of : Dpc_ndlog.Tuple.t -> Dpc_util.Sha1.t
(** The tuple's vid, {!Dpc_ndlog.Tuple.digest}. *)

val hex : Dpc_util.Sha1.t -> string

val key : Dpc_util.Sha1.t -> string
(** Store-table key for a digest: the raw 20 bytes (no allocation), as
    opposed to [hex], which renders 40 characters for display. *)

val ref_bytes : int
(** Wire size of a (node, digest) provenance reference. *)

(** What a rule-execution id hashes after the rule, node and body vids. *)
type rid_tail =
  | No_tail
  | Vid of Dpc_util.Sha1.t  (** one more vid, e.g. the event's after the slow ones *)
  | Chain of (int * Dpc_util.Sha1.t) option
      (** the chain back-pointer, or ["leaf"] (Advanced's plain layout) *)

val rid : rule:string -> node:int -> Dpc_util.Sha1.t list -> rid_tail -> Dpc_util.Sha1.t
(** [rid ~rule ~node vids tail] is the RID of Tables 1–3,
    [sha1(rule+node+vid1+...+vidk)] over the raw vid bytes, followed by
    [tail]; the one rid builder of every scheme. Allocates only the
    digest. *)

(** Multi-map from a string key to rows, deduplicating identical rows and
    keeping a running serialized-size counter. Each row is one entry of a
    chained hash table, with no list cell, and the lookups below allocate
    nothing of their own. *)
module Table : sig
  type 'a t

  val create : row_bytes:('a -> int) -> unit -> 'a t

  val add : 'a t -> key:string -> 'a -> bool
  (** [true] if the row was new under this key (structural comparison). *)

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
  val clear : 'a t -> unit

  val iter : 'a t -> (string -> 'a -> unit) -> unit
  (** Every row with its key, in no particular order. *)
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

val show_ref : (int * Dpc_util.Sha1.t) option -> string
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
