(** Undirected network topologies with per-link latency and bandwidth. *)

type link = { latency : float  (** seconds *); bandwidth : float  (** bytes/second *) }

type t

val create : n:int -> t
(** [create ~n] is a topology with nodes [0 .. n-1] and no links.
    @raise Invalid_argument if [n <= 0]. *)

val size : t -> int

val add_link : t -> int -> int -> link -> unit
(** Add an undirected link. Replaces an existing link between the pair.
    @raise Invalid_argument on out-of-range nodes, self-links. *)

val link : t -> int -> int -> link option

val link_exn : t -> int -> int -> link
(** {!link} without the option, for per-message walks.
    @raise Not_found if the nodes are not adjacent. *)

val connected : t -> int -> int -> bool
val neighbors : t -> int -> (int * link) list
val links : t -> (int * int * link) list
(** Each undirected link once, with [fst < snd]. *)
