(** Mutable binary min-heap: [Dpc_net.Shard_sim]'s per-shard event queues
    and the socket backend's timers. The sequential simulators use the
    allocation-free {!Event_queue}; the shortest-path search keeps its own
    heap on unboxed arrays, with this module's sift steps. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element, or [None] if empty. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap is unchanged). *)
