(* The small deterministic world behind the format fixtures
   (test_store_format) and the cut-writer allocation budgets
   (test_engine): forwarding on the 3-node line 0 - 1 - 2, with a final
   rule that joins a [tag] at the receiver, the store's dirty tracking on
   and node 2's Db tracking its changes from the start. *)

open Dpc_core

let source =
  {|r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
r2 recv(@L, S, D, DT, T) :- packet(@L, S, D, DT), D == L, tag(@L, T).
|}

let delp () =
  Result.fold ~ok:Fun.id ~error:failwith (Dpc_ndlog.Delp.parse ~name:"tagged-forwarding" source)

let env = Dpc_engine.Env.empty
let tag ~at t = Dpc_ndlog.Tuple.make "tag" [ Dpc_ndlog.Value.Addr at; Dpc_ndlog.Value.Str t ]
let link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

let schemes =
  [
    (Backend.S_exspan, "exspan");
    (Backend.S_basic, "basic");
    (Backend.S_advanced, "advanced");
    (Backend.S_advanced_interclass, "advanced-interclass");
  ]

type t = {
  backend : Backend.t;
  runtime : Dpc_engine.Runtime.t;
  db : Dpc_engine.Db.t;  (* node 2's *)
  routing : Dpc_net.Routing.t;
}

let create scheme =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 link;
  Dpc_net.Topology.add_link topo 1 2 link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = delp () in
  let backend = Backend.make scheme ~delp ~env ~nodes:3 in
  Backend.set_dirty_tracking backend true;
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env
      ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  let db = Dpc_engine.Runtime.db runtime 2 in
  Dpc_engine.Db.set_dirty_tracking db true;
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2; tag ~at:2 "x" ];
  { backend; runtime; db; routing }

let inject w packets =
  List.iter
    (fun (src, payload) ->
      Dpc_engine.Runtime.inject w.runtime (Dpc_apps.Forwarding.packet ~src ~dst:2 ~payload))
    packets;
  Dpc_engine.Runtime.run w.runtime

(* Packets "a" and "b" from node 0 to node 2, and "z" from node 2 to
   itself. *)
let batch1 w = inject w [ (0, "a"); (0, "b"); (2, "z") ]

(* A §5.5 slow insert, a second tag at node 2, broadcasts [sig] and wipes
   every node's [htequi]; then "c" from 0 to 2 and "y" from 2 to itself.
   The receiver's rule now fires on both tags, so under either Advanced
   layout the classes of (0, 2) and (2, 2) each gain a second chain
   root. *)
let batch2 w =
  Dpc_engine.Runtime.insert_slow_runtime w.runtime (tag ~at:2 "y");
  Dpc_engine.Runtime.run w.runtime;
  inject w [ (0, "c"); (2, "y") ]

(* A 3-node [Reliable] over [Transport.direct]. Node 1 sends 0 -> 1 twice,
   1 -> 0 once, 1 -> 2 three times and 2 -> 1 once, so its snapshot holds
   two sender and two receiver entries. *)
let channels () =
  let rel = Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:3 ()) in
  let tr = Dpc_net.Reliable.transport rel in
  List.iter
    (fun (src, dst) -> Dpc_net.Transport.send tr ~src ~dst ~bytes:10 (fun () -> ()))
    [ (0, 1); (0, 1); (1, 0); (1, 2); (1, 2); (1, 2); (2, 1) ];
  Dpc_net.Transport.run tr;
  rel
