(** DNS experiment driver (§6.2): a synthetic name-server hierarchy with
    delegations mirroring the tree topology, URLs placed on authoritative
    servers, and Zipf-distributed request streams (per Jung et al., as the
    paper adopts). *)

type spec = {
  tree : Dpc_net.Tree_topo.t;
  domains : string array;  (** domain of each server; [""] at the root *)
  urls : string array;
  authority : int array;  (** server holding each URL's address record *)
  clients : int array;  (** nodes issuing requests *)
}

val generate :
  rng:Dpc_util.Rng.t ->
  servers:int ->
  backbone_depth:int ->
  urls:int ->
  clients:int ->
  spec
(** @raise Invalid_argument on non-positive counts or [urls]/[clients]
    exceeding what the hierarchy can host. *)

val paper_spec : rng:Dpc_util.Rng.t -> ?urls:int -> unit -> spec
(** 100 servers, backbone depth 27, 38 URLs, 10 clients — the §6.2
    parameters. *)

val slow_tuples : spec -> Dpc_ndlog.Tuple.t list
(** [rootServer] at every client, [nameServer] delegations along tree
    edges, and [addressRecord]s at the authorities. *)

type t = {
  spec : spec;
  sim : Dpc_net.Sim.t;
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
}

val setup :
  scheme:Dpc_core.Backend.scheme ->
  spec ->
  ?record_outputs:bool ->
  unit ->
  t
(** [record_outputs] (default [true]) is passed to the runtime; turn it
    off in long measurement runs that never call {!replies}. *)

val inject_requests :
  t -> rng:Dpc_util.Rng.t -> rate:float -> duration:float -> int
(** Aggregate [rate] requests/second for [duration] seconds; each request
    draws its URL from a Zipf distribution over the spec's URLs and its
    client uniformly. Returns the number injected. *)

val inject_n_requests : t -> rng:Dpc_util.Rng.t -> total:int -> duration:float -> int
(** Exactly [total] requests spread evenly over [duration] (Fig 14). *)

val run : ?until:float -> t -> unit

val replies : t -> Dpc_ndlog.Tuple.t list
