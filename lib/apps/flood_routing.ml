open Dpc_ndlog

(* The TTL bounds the flood (advertisements revisit nodes with growing
   cost); keep it small — the message count grows with node degree^ttl. *)
let ttl = 3
let max_cost = 3

let source =
  Printf.sprintf
    {|// TTL-bounded route advertisement (the "other application" of paper §3.2).
r1 adv(@N, D, C)       :- adv(@L, D, C0), linkCost(@L, N, C1), C0 < %d, C := C0 + C1.
r2 routeCand(@L, D, C) :- adv(@L, D, C), C <= %d.
|}
    ttl max_cost

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"flood-routing" source)

let env = Dpc_engine.Env.empty

let adv ~at ~dst ~cost = Tuple.make "adv" [ Value.Addr at; Value.Addr dst; Value.Int cost ]

let link_cost ~at ~next ~cost =
  Tuple.make "linkCost" [ Value.Addr at; Value.Addr next; Value.Int cost ]

let route_cand ~at ~dst ~cost =
  Tuple.make "routeCand" [ Value.Addr at; Value.Addr dst; Value.Int cost ]

let link_costs_of_topology topo =
  List.concat_map
    (fun (a, b, _) -> [ link_cost ~at:a ~next:b ~cost:1; link_cost ~at:b ~next:a ~cost:1 ])
    (Dpc_net.Topology.links topo)
