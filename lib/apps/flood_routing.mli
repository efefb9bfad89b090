(** A TTL-bounded route-advertisement protocol as a DELP.

    §3.2 of the paper notes that slow-changing tuples such as [route] are
    themselves derived by another application, and that a user who wants a
    route's provenance should query it *in that application*, where it is
    an output. This app is that other application: its [routeCand] tuples
    are its outputs. Advertisements flood outward from a destination,
    accumulating path cost, and every node within the TTL records a route
    candidate — whose provenance explains exactly which links produced it.

    Rules:

    {v
    r1 adv(@N, D, C)       :- adv(@L, D, C0), linkCost(@L, N, C1),
                              C0 < <ttl>, C := C0 + C1.
    r2 routeCand(@L, D, C) :- adv(@L, D, C), C <= <maxCost>.
    v}

    The equivalence keys are [(adv:0, adv:2)] — the flooding pattern
    depends on where an advertisement is and its accumulated cost, not on
    which destination it advertises, so advertisements for different
    destinations share provenance chains. *)

val delp : unit -> Dpc_ndlog.Delp.t
val env : Dpc_engine.Env.t

val adv : at:int -> dst:int -> cost:int -> Dpc_ndlog.Tuple.t
(** The input event; inject [adv ~at:d ~dst:d ~cost:0] to announce
    destination [d]. *)

val route_cand : at:int -> dst:int -> cost:int -> Dpc_ndlog.Tuple.t

val link_costs_of_topology : Dpc_net.Topology.t -> Dpc_ndlog.Tuple.t list
(** One [linkCost] tuple per directed link, cost 1. *)
