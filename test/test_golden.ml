(* Golden digests: the end state of two seeded workloads, pinned as hex
   constants instead of being compared with another run of the system.

   Every other digest oracle compares the system with a configuration of
   itself (faulty vs perfect network, N domains vs 1, dpcd vs the
   simulator), so a change to the shared engine that reorders derivations
   passes all of them. These constants catch it: Advanced's hmap ref
   lists, the Sim's per-link byte counts and the output arrival order all
   depend on the order in which rule firings produce their derivations.

   Each digest is the SHA-1 over, for every node in id order, the
   scheme's [Backend.digest_node] and the node's [Db.For_testing.canonical], then the
   simulator's [link_bytes], then every output tuple in arrival order. A
   constant changes only when the runtime's observable behaviour does; if
   a change is intended, recapture the constants and say why in the
   commit. *)

open Dpc_core
open Dpc_workload

let schemes =
  [
    (Backend.S_exspan, "exspan");
    (Backend.S_basic, "basic");
    (Backend.S_advanced, "advanced");
    (Backend.S_advanced_interclass, "advanced+interclass");
  ]

let world_digest ~backend ~sim ~outputs =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i node ->
      Printf.bprintf buf "n%d %s " i (Backend.digest_node backend i);
      Buffer.add_string buf (Dpc_engine.Db.For_testing.canonical (Dpc_engine.Node.db node)))
    (Backend.nodes backend);
  List.iter
    (fun ((a, b), bytes) -> Printf.bprintf buf "|%d-%d:%d" a b bytes)
    (Dpc_net.Sim.For_testing.link_bytes sim);
  List.iter
    (fun out ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (Dpc_ndlog.Tuple.canonical out))
    outputs;
  Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (Buffer.contents buf))

(* Forwarding on the seed-1 transit-stub: 10 pairs, 20 packets each. *)
let forwarding scheme =
  let rng = Dpc_util.Rng.create ~seed:1 in
  let ts = Dpc_net.Transit_stub.generate ~rng Dpc_net.Transit_stub.paper_params in
  let routing = Dpc_net.Routing.compute ts.topology in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:10 in
  let d = Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs () in
  ignore (Forwarding_driver.inject_total d ~total:200 ~duration:2.0 ~payload_size:100);
  Forwarding_driver.run d;
  world_digest ~backend:d.backend ~sim:(Forwarding_driver.sim_exn d)
    ~outputs:(Forwarding_driver.received d)

(* DNS on the seed-1 paper hierarchy: 200 Zipf requests. *)
let dns scheme =
  let rng = Dpc_util.Rng.create ~seed:1 in
  let spec = Dns_workload.paper_spec ~rng () in
  let t = Dns_workload.setup ~scheme spec () in
  ignore (Dns_workload.inject_n_requests t ~rng ~total:200 ~duration:2.0);
  Dns_workload.run t;
  world_digest ~backend:t.backend ~sim:t.sim ~outputs:(Dns_workload.replies t)

let golden =
  [
    ("forwarding", forwarding,
     [ ("exspan", "9e6412977f0b21178ec51d65b76be698dcaa7930");
       ("basic", "7ab72fe7311c2fad4e3708e4bd2232ed496079f2");
       ("advanced", "f6bb46e8d7efbbda3eb726d51bba028510e643db");
       ("advanced+interclass", "9146dc645de81678c4fd1d863349ab323f4c02c7") ]);
    ("dns", dns,
     [ ("exspan", "6b734e6102ad6efa8d3821fefbd2dfe0ea7a2e73");
       ("basic", "bba55cae647881efec77b9b9011b5d9ce6e5d101");
       ("advanced", "dd4c92de1ca430a07e83d3afcc6b4adbb2ea97b2");
       ("advanced+interclass", "d41d547e22943645ce111cb46634f92aa4f4b346") ]);
  ]

let () =
  Alcotest.run "dpc_golden"
    (List.map
       (fun (app, run, expected) ->
         ( app,
           List.map
             (fun (scheme, name) ->
               Alcotest.test_case name `Quick (fun () ->
                 Alcotest.check Alcotest.string "digest" (List.assoc name expected) (run scheme)))
             schemes ))
       golden)
