(** The interface between the engine and a provenance maintenance scheme.

    The runtime calls [on_input] when an input event enters the system
    (stage 1 of the online scheme), [on_fire] on every rule execution
    (stage 2), and [on_output] when a tuple with no downstream rules is
    produced (stage 3). The [meta] record is the bookkeeping that rides
    along with each shipped tuple — its wire size is charged to the
    network, which is how the paper's bandwidth-overhead comparison
    arises. *)

(** A provenance back-pointer: (NLoc, NRID), the node and rid of a rule
    execution, or none. The one reference type of every record: the
    meta's [prev], the prov rows' rule reference, the ruleExec and link
    rows' [next], the rid's chain tail and Advanced's [hmap]. A [Back] is
    one 3-word block, shared by the meta that carries it and every row
    that stores it. *)
type back = No_back | Back of { node : int; rid : Dpc_util.Sha1.t }

val compare_back : back -> back -> int
(** [No_back] first, then by node, then by rid: the order polymorphic
    [compare] gave the [(int * Sha1.t) option] this type replaced, on
    which the cut writers' row order rests. *)

(** The one codec: a flag byte, then the node as a varint and the rid as
    a 20-byte string. *)

val back_bytes : back -> int
(** The bytes {!write_back} writes, without writing. *)

val write_back : Dpc_util.Serialize.writer -> back -> unit
val read_back : Dpc_util.Serialize.reader -> back

type meta = {
  evid : Dpc_util.Sha1.t;  (** hash of the input event tuple *)
  exist_flag : bool;  (** equivalence class already materialized (Advanced) *)
  eqkey : Dpc_util.Sha1.t option;  (** hash of the equivalence-key values *)
  prev : back;
      (** (NLoc, NRID): the provenance node of the rule execution that
          derived the current event *)
}

type slow_op = Slow_insert | Slow_delete
(** Which kind of slow-changing update a [sig] broadcast announces. *)

type t = {
  name : string;
  on_input : node:int -> Dpc_ndlog.Tuple.t -> meta;
  on_fire :
    node:int ->
    rule:Dpc_ndlog.Ast.rule ->
    event:Dpc_ndlog.Tuple.t ->
    slow:Dpc_ndlog.Tuple.t list ->
    head:Dpc_ndlog.Tuple.t ->
    meta ->
    meta;
  on_output : node:int -> Dpc_ndlog.Tuple.t -> meta -> unit;
  on_slow_update : node:int -> op:slow_op -> Dpc_ndlog.Tuple.t -> unit;
      (** invoked at each node when it receives the [sig] broadcast after a
          slow-changing insert or delete (§5.5 requires the reset on any
          slow-table update) *)
  meta_bytes : meta -> int;  (** wire size of the piggybacked bookkeeping *)
}

val null : t
(** Maintains nothing; the no-provenance baseline. *)

val initial_meta : Dpc_ndlog.Tuple.t -> meta
(** [evid = sha1 event], no flag, no key, no back-pointer — the meta every
    backend starts from. *)
