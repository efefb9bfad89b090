(** All-pairs shortest-path routing over a topology.

    The paper pre-computes shortest paths with a declarative routing
    protocol and installs them in per-node [route] tables; this module is
    the equivalent: latency-weighted Dijkstra from every node, exposing
    next hops (to fill [route] tables) and full paths (for the simulator's
    hop-by-hop message forwarding). *)

type t

val compute : Topology.t -> t
(** O(n * (m log n)); run once per topology. *)

val successor : t -> src:int -> dst:int -> int
(** The neighbor of [src] on a shortest path to [dst]; [-1] if
    unreachable or [src = dst]. *)

val path : t -> src:int -> dst:int -> int list option
(** Inclusive node sequence from [src] to [dst]; [Some [src]] when
    [src = dst]; [None] if unreachable. *)

val distance : t -> src:int -> dst:int -> float option
(** Total latency along the shortest path. *)

val hop_count : t -> src:int -> dst:int -> int option
