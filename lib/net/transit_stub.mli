(** Transit-stub topology generator (substitute for GT-ITM, which the paper
    used to generate its 100-node evaluation topology).

    The generated graph has [transit] fully-meshed transit nodes; each
    transit node attaches [stub_domains] stub domains; each stub domain is a
    connected random graph of [stubs_per_domain] nodes whose gateway links to
    the transit node. Link classes use the paper's parameters by default:
    transit–transit 50 ms / 1 Gbps, transit–stub 10 ms / 100 Mbps,
    stub–stub 2 ms / 50 Mbps. *)

type params = {
  transit : int;
  stub_domains : int;  (** per transit node *)
  stubs_per_domain : int;
  transit_link : Topology.link;
  transit_stub_link : Topology.link;
  stub_link : Topology.link;
  extra_stub_edges : int;  (** extra random intra-domain edges beyond the spanning tree *)
}

val paper_params : params
(** 4 transit nodes x 3 stub domains x 8 stub nodes = 100 nodes, the
    evaluation topology of §6.1. *)

type t = {
  topology : Topology.t;
  transit_nodes : int list;
  stub_nodes : int list;
}

val generate : rng:Dpc_util.Rng.t -> params -> t
(** @raise Invalid_argument if any count is non-positive. *)
