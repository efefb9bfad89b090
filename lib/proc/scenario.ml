module Forwarding = Dpc_apps.Forwarding
module Backend = Dpc_core.Backend
module Runtime = Dpc_engine.Runtime

let nodes = 3

let routes () =
  [ Forwarding.route ~at:0 ~dst:2 ~next:1; Forwarding.route ~at:1 ~dst:2 ~next:2 ]

let refreshed_route () = Forwarding.route ~at:1 ~dst:2 ~next:2

let packets prefix count =
  List.init count (fun i ->
      Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "%s%d" prefix (i + 1)))

let pre_packets () = packets "pre" 5
let mid_packets () = packets "mid" 3
let post_packets () = packets "post" 5
let part_packets () = packets "part" 3
let total_outputs = 16

let soak_packets ~round count =
  List.init count (fun i ->
      Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "soak%d-%d" round (i + 1)))

type digests = { store : string; db : string }

let reference_runtime scheme =
  let delp = Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Forwarding.env ~nodes in
  let transport = Dpc_net.Transport.direct ~nodes () in
  let runtime =
    Runtime.create ~transport ~delp ~env:Forwarding.env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  Runtime.load_slow runtime (routes ());
  (backend, runtime)

let digests_of backend runtime =
  Array.init nodes (fun node ->
      { store = Backend.digest_node backend node; db = Dpc_engine.Db.digest (Runtime.db runtime node) })

let simulate scheme =
  let backend, runtime = reference_runtime scheme in
  let phase injects =
    List.iter (fun event -> Runtime.inject runtime event) injects;
    Runtime.run runtime
  in
  phase (pre_packets ());
  phase (mid_packets ());
  ignore (Runtime.delete_slow_runtime runtime (refreshed_route ()));
  Runtime.insert_slow_runtime runtime (refreshed_route ());
  Runtime.run runtime;
  phase (post_packets ());
  phase (part_packets ());
  digests_of backend runtime

let simulate_soak scheme ~rounds ~per_round =
  let backend, runtime = reference_runtime scheme in
  for round = 1 to rounds do
    List.iter (fun event -> Runtime.inject runtime event) (soak_packets ~round per_round);
    Runtime.run runtime
  done;
  digests_of backend runtime
