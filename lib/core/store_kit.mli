(** The store kernel every provenance scheme runs on.

    A scheme decides which rows a rule firing records (its record hook),
    which tables and side stores hold them (its {!layout}), and how a query
    walks them back ({!walk}). Everything else is written once, here:
    per-node tracked tables, the write generation and dirty sets, the query
    cache and degraded-sink hookup, the query frame around the walk, and
    the framing of the whole-store, node and delta formats. *)

(** {2 Tracked tables and side stores} *)

type 'a table
(** A {!Rows.Table.t} plus its dirty set: the rows first inserted since
    the node's last checkpoint cut, kept while dirty tracking is on. *)

type exec

val exec : 'a table -> exec
(** A ruleExec-kind table of any row type (ruleExec, §5.4 node or link
    rows), for the layout's format order. Allocates nothing. *)

type side
(** A {!Side_store.t} plus the entries first put since the last cut. *)

val prov_table : with_evid:bool -> Rows.prov_row table
val exec_table : with_next:bool -> Rows.rule_exec_row table
val link_table : unit -> Rows.link_row table
val side : unit -> side

val find : 'a table -> Dpc_util.Sha1.t -> 'a list
(** The rows under a digest (a vid or rid), oldest first. *)

val entries : side -> Side_store.t

(** {2 The store} *)

type 'x node = private { x : 'x; mutable gen : int }
(** One node's state: the scheme's tables ([x]) and the write generation,
    bumped on every accepted insert. The query cache compares the
    generations of the nodes a walk read. *)

type 'x layout = {
  name : string;  (** ["ExSPAN"], in messages *)
  tag : string;  (** ["exspan"]: the formats are [dpc-<tag>-v1], [-node-v1], [-delta-v1] *)
  fresh : unit -> 'x;
  prov : 'x -> Rows.prov_row table;
  execs : ('x -> exec) array;  (** the ruleExec tables, in format order *)
  sides : ('x -> side) array;  (** the side stores, in format order *)
  extra : 'x extra option;
}
(** What a scheme's per-node state holds, in the order its formats write
    it. *)

and 'x extra = {
  flag : bool;  (** written after every magic; a node blob must match it *)
  write_extra : Dpc_util.Serialize.writer -> 'x -> delta:bool -> unit;
  read_extra : Dpc_util.Serialize.reader -> 'x -> delta:bool -> unit;
  clear_extra : 'x -> unit;  (** seal its own change record at a cut *)
  extra_bytes : 'x -> int;  (** [equi_bytes] *)
  tally : int Atomic.t;  (** a store-wide count, last in the whole-store format *)
}
(** Per-node state beyond tables and side stores, written after the tables
    (Advanced's equivalence state). *)

type 'x t

val create : Dpc_engine.Node.t array -> 'x layout -> 'x t
(** A store over [nodes]. Per-node state is created by
    {!Dpc_engine.Node.get_or_init} on first touch, and wiped with the node. *)

val nodes : 'x t -> Dpc_engine.Node.t array
val state : 'x t -> int -> 'x node
val tracking : 'x t -> bool
val set_track_dirty : 'x t -> bool -> unit
val tick : 'x t -> int -> string -> unit

val add : 'x t -> 'x node -> node:int -> 'a table -> 'a -> unit
(** Insert a row at [node] unless present: bump the generation, remember
    the row while tracking, tick [store.prov_rows] or
    [store.rule_exec_rows]. Allocates nothing beyond the dirty cell. *)

val put : 'x t -> 'x node -> side -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t -> unit
(** Likewise for a side entry (no counter). *)

val put_tuples : 'x t -> 'x node -> side -> Dpc_ndlog.Tuple.t list -> unit
(** {!put} each tuple under its vid. *)

val set_degraded_sink : 'x t -> (int -> unit) -> unit
val invalidate_cache : 'x t -> int -> unit
val set_query_cache : 'x t -> Query_cache.t option -> unit
val query_cache : 'x t -> Query_cache.t option
val node_storage : 'x t -> int -> Rows.storage
val total_storage : 'x t -> Rows.storage

type dump = (string * string list * string list list) list

val rows_at : 'x t -> ('x -> 'a table) -> int -> 'a list
(** A table's rows at one node, for the scheme's dump. *)

val dump_tables :
  'x t -> with_evid:bool -> with_next:bool -> ('x -> Rows.rule_exec_row table) -> dump
(** The prov table and one ruleExec table, as the paper's Tables 1-3 show
    them. *)

(** {2 Queries} *)

type walk =
  Query_acct.t -> querier:int -> output:Dpc_ndlog.Tuple.t -> Rows.prov_row ->
  int * Dpc_util.Sha1.t -> Prov_tree.t list
(** How a scheme walks one prov row's rule reference back to trees, from
    the querier; raising {!Query_acct.Broken} abandons the reference. *)

val query :
  'x t ->
  walk:walk ->
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  ?evid:Dpc_util.Sha1.t ->
  ?up:(int -> bool) ->
  Dpc_ndlog.Tuple.t ->
  Query_result.t
(** The frame every scheme's query shares: the querier's prov rows for the
    tuple, each rule reference walked through the memo cache, the trees
    filtered by [evid], and the return hop. See {!Backend.query}. *)

(** {2 Persistence} *)

val checkpoint : 'x t -> string
val checkpoint_node : 'x t -> int -> string
val digest_node : 'x t -> int -> string
val checkpoint_delta : 'x t -> int -> string
val restore_node : 'x t -> int -> string -> unit
val apply_delta : 'x t -> int -> string -> unit
(** See {!Backend}. *)

(** {2 One store behind one interface} *)

type store =
  | Store : {
      kit : 'x t;
      name : string;
      hook : Dpc_engine.Prov_hook.t;
      walk : walk;
      dump : unit -> dump;
    }
      -> store
(** A scheme's store: its kit, and what the scheme plugs in. *)

val restore :
  tag:string ->
  name:string ->
  string ->
  (Dpc_util.Serialize.reader -> nodes:int -> store) ->
  store
(** [restore ~tag ~name blob create] reads a whole-store checkpoint into
    the store that [create] builds from the scheme's header (read from the
    reader) and the node count.
    @raise Dpc_util.Serialize.Corrupt on malformed input, including a
    node count the input cannot hold and a side entry past the cluster. *)
