(** Cost model for distributed provenance queries.

    The paper measured query latency on a 25-machine socket testbed
    (Fig 12), where per-hop network latency is LAN-class and the dominant
    cost is fetching, deserializing, and shipping provenance entries —
    which is why ExSPAN, which processes the fat intermediate tuples, is
    about 3x slower than Basic/Advanced. This model reproduces that
    mechanism: each query pays per-hop network latency, a fixed cost per
    entry fetched, and a per-byte cost for every byte processed or
    shipped. Constants are calibrated once (see EXPERIMENTS.md) and shared
    by all three schemes. *)

type t = {
  hop_latency : float option;
      (** per-hop network latency override; [None] uses the topology's link
          latencies along the routing path *)
  per_entry : float;  (** seconds per provenance row fetched *)
  per_byte : float;  (** seconds per byte processed or shipped *)
  per_rederive : float;
      (** seconds per rule re-executed locally at the querier (§4 step 2);
          much cheaper than a distributed row fetch, which is what makes
          Basic/Advanced queries faster than ExSPAN's despite the extra
          recomputation *)
  down_timeout : float;
      (** seconds one attempt against a crashed node waits before timing
          out; a query that touches a down node is charged
          [(down_retries + 1) * down_timeout] and degrades (the result is
          marked partial) instead of hanging *)
  down_retries : int;  (** retries after the first timed-out attempt *)
}

val emulation : t
(** LAN-class latencies + processing costs: the Fig 12 setting. *)

val simulation : t
(** Topology link latencies, same processing costs. *)

val hop : t -> Dpc_net.Routing.t -> src:int -> dst:int -> float
(** Network latency charged for moving the query from [src] to [dst]. *)
