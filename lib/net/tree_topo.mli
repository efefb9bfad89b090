(** Tree topology generator for the DNS evaluation (§6.2): a synthetic
    hierarchy of name servers rooted at node 0, with a controllable maximum
    depth (the paper used 100 name servers with maximum tree depth 27). *)

type t = {
  topology : Topology.t;
  parent : int array;  (** [parent.(0) = -1] for the root *)
  depth : int array;
}

val generate :
  rng:Dpc_util.Rng.t -> n:int -> backbone_depth:int -> link:Topology.link -> t
(** A backbone chain of [backbone_depth] links descends from the root;
    remaining nodes attach uniformly at random to existing nodes.
    @raise Invalid_argument if [n <= 0] or [backbone_depth >= n] or
    [backbone_depth < 0]. *)

val max_depth : t -> int

module For_testing : sig
  val children : t -> int -> int list
end
