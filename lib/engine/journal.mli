(** The per-node write-ahead journal grain.

    Crash recovery follows the DTaP replay-from-durable-inputs strategy:
    instead of logging every derived row, a node logs only what it could
    not re-derive on its own — the inputs injected at it, the event
    tuples (with their full provenance meta) that arrived at it, the
    [sig] control messages it received, its slow-table mutations, and the
    advances of its {!Dpc_net.Reliable} sequence state. Everything else
    (rule firings, provenance rows, equivalence-table contents) is a
    deterministic function of that sequence and is rebuilt by
    {!Runtime.replay}.

    Entries are written to the log BEFORE their effects are applied; in
    the discrete-event world each delivery is atomic, so the pair is
    indivisible either way, but the ordering keeps the grain honest for a
    future real-I/O backend.

    Serialization rides on {!Dpc_util.Serialize}; entries are
    self-delimiting, so a log is just their concatenation. *)

type entry =
  | Input of Dpc_ndlog.Tuple.t  (** an input event injected at this node *)
  | Arrival of { event : Dpc_ndlog.Tuple.t; meta : Prov_hook.meta }
      (** a derived event delivered to this node, with the meta it carried *)
  | Sig of { op : Prov_hook.slow_op; tuple : Dpc_ndlog.Tuple.t }
      (** a §5.5 [sig] control message delivered to this node *)
  | Slow_insert of Dpc_ndlog.Tuple.t  (** runtime slow-table insert at this node *)
  | Slow_delete of Dpc_ndlog.Tuple.t  (** runtime slow-table delete at this node *)
  | Load of Dpc_ndlog.Tuple.t  (** a pre-run slow tuple loaded at this node *)
  | Next_seq of { peer : int; seq : int }
      (** this node's sender sequence on channel [(node, peer)] advanced *)
  | Expected of { peer : int; seq : int }
      (** this node's receive watermark on channel [(peer, node)] advanced *)

val is_boundary : entry -> bool
(** Whether a checkpoint may be cut right after this entry. Channel
    sequence advances are NOT boundaries: they fire from inside the
    reliable layer's accept path, in the middle of processing the
    delivery they belong to, and a checkpoint cut there would capture a
    watermark ahead of the store state. All other entries complete
    atomically before the next one starts. *)

val write : Dpc_util.Serialize.writer -> entry -> unit

val write_next_seq : Dpc_util.Serialize.writer -> peer:int -> seq:int -> unit
(** [write w (Next_seq { peer; seq })] without building the entry: the
    reliable layer reports sequence advances as plain ints. *)

val write_expected : Dpc_util.Serialize.writer -> peer:int -> seq:int -> unit
(** [write w (Expected { peer; seq })] without building the entry. *)

val read : Dpc_util.Serialize.reader -> entry
(** @raise Dpc_util.Serialize.Corrupt on an unknown tag, a digest that is
    not 20 bytes, or truncation. *)
