(* Tests for the extension modules: replay-based reactive maintenance
   (§3.2 / DTaP), Graphviz export, and the flood-routing application whose
   multi-path derivations stress the multi-derivation query machinery. *)

open Dpc_ndlog
open Dpc_core

let check = Alcotest.check
let tree_t = Alcotest.testable Prov_tree.pp Prov_tree.equal

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

let line_topology () =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  topo

let routes =
  [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
    Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]

(* ------------------------------------------------------------------ *)
(* Replay *)

(* A forwarding world running Advanced maintenance AND input logging. *)
let replay_world () =
  let topo = line_topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let replay = Replay.create ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let hook = Replay.combine (Backend.hook backend) (Replay.hook replay) in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  Replay.record_initial_slow replay routes;
  (topo, routing, runtime, backend, replay)

let test_replay_answers_intermediate_tuples () =
  let topo, routing, runtime, backend, replay = replay_world () in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  (* The intermediate packet at n1 is a tuple of "less interest": the
     Advanced store has no prov row for it... *)
  let intermediate =
    Tuple.make "packet" [ Value.Addr 1; Value.Addr 0; Value.Addr 2; Value.Str "x" ]
  in
  let direct = Backend.query backend ~cost:Query_cost.free ~routing intermediate in
  check Alcotest.int "advanced cannot answer" 0 (List.length direct.trees);
  (* ...but replay reconstructs it. *)
  let replayed = Replay.replay_and_query replay ~topology:topo intermediate in
  check Alcotest.int "replay answers" 1 (List.length replayed.trees);
  let tree = List.hd replayed.trees in
  check (Alcotest.list Alcotest.string) "one-rule derivation" [ "r1" ]
    (Prov_tree.rules_root_to_leaf tree);
  check Alcotest.bool "event is the injected packet" true
    (Tuple.equal (Prov_tree.event_of tree)
       (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x"))

let test_replay_matches_live_exspan () =
  (* Replay must reproduce exactly the trees a live ExSPAN run maintains. *)
  let topo, routing, runtime, _, replay = replay_world () in
  List.iter
    (fun payload ->
      Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload);
      Dpc_engine.Runtime.run runtime)
    [ "a"; "b" ];
  let live =
    let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
    let delp = Dpc_apps.Forwarding.delp () in
    let backend = Backend.make Backend.S_exspan ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
    let rt =
      Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
        ~hook:(Backend.hook backend) ()
    in
    Dpc_engine.Runtime.load_slow rt routes;
    List.iter
      (fun payload ->
        Dpc_engine.Runtime.inject rt (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
      [ "a"; "b" ];
    Dpc_engine.Runtime.run rt;
    backend
  in
  List.iter
    (fun payload ->
      let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload in
      let live_trees = (Backend.query live ~cost:Query_cost.free ~routing out).trees in
      let replay_trees = (Replay.replay_and_query replay ~topology:topo out).trees in
      check (Alcotest.list tree_t) ("trees for " ^ payload) live_trees replay_trees)
    [ "a"; "b" ]

let test_replay_handles_updates () =
  let topo, _, runtime, _, replay = replay_world () in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"before");
  Dpc_engine.Runtime.run runtime;
  (* Redirect n1's next hop for destination n2... there is no alternate
     path on a line, so instead retarget destination routing through a
     deleted+reinserted entry and verify both epochs replay correctly. *)
  (* The delete's sig broadcast reaches the replay hook, which logs the
     E_delete on its own — no manual recording needed. *)
  ignore (Dpc_engine.Runtime.delete_slow_runtime runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1));
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"lost");
  Dpc_engine.Runtime.run runtime;
  Dpc_engine.Runtime.insert_slow_runtime runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1);
  Dpc_engine.Runtime.run runtime;
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"after");
  Dpc_engine.Runtime.run runtime;
  (* "before" and "after" were delivered; "lost" died at n0. *)
  let q payload =
    (Replay.replay_and_query replay ~topology:topo
       (Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload))
      .trees
  in
  check Alcotest.int "before delivered" 1 (List.length (q "before"));
  check Alcotest.int "lost dropped" 0 (List.length (q "lost"));
  check Alcotest.int "after delivered" 1 (List.length (q "after"));
  check Alcotest.int "log has 3 events + 1 delete + 1 insert" 5 (Replay.log_length replay)

let test_replay_storage_is_small () =
  let topo, _, runtime, backend, replay = replay_world () in
  ignore topo;
  for i = 1 to 50 do
    Dpc_engine.Runtime.inject runtime
      (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
  done;
  Dpc_engine.Runtime.run runtime;
  (* The log stores one tuple per event; even the Advanced store's prov
     deltas (20 x ~76B) plus chain exceed a 50-event log only because the
     log keeps payloads; compare against ExSPAN instead, which it
     replaces. *)
  let exspan_equiv =
    let topo = line_topology () in
    let routing = Dpc_net.Routing.compute topo in
    let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
    let delp = Dpc_apps.Forwarding.delp () in
    let b = Backend.make Backend.S_exspan ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
    let rt = Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
               ~hook:(Backend.hook b) () in
    Dpc_engine.Runtime.load_slow rt routes;
    for i = 1 to 50 do
      Dpc_engine.Runtime.inject rt
        (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
    done;
    Dpc_engine.Runtime.run rt;
    Rows.provenance_bytes (Backend.total_storage b)
  in
  check Alcotest.bool "log smaller than ExSPAN tables" true
    (Replay.storage_bytes replay < exspan_equiv);
  ignore backend

let test_replay_latency_includes_log_cost () =
  let topo, _, runtime, _, replay = replay_world () in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let r = Replay.replay_and_query replay ~topology:topo out in
  check Alcotest.bool "latency positive" true (r.latency > 0.0)

(* ------------------------------------------------------------------ *)
(* Prov_dot *)

let sample_tree () =
  Prov_tree.Derived
    {
      rule = "r2";
      output = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"d\"q";
      slow = [];
      sub =
        Event
          {
            rule = "r1";
            output =
              Tuple.make "packet" [ Value.Addr 2; Value.Addr 0; Value.Addr 2; Value.Str "d\"q" ];
            slow = [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:2 ];
            event = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"d\"q";
          };
    }

let count_occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.equal (String.sub hay i n) needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_dot_well_formed () =
  let dot = Prov_dot.to_dot (sample_tree ()) in
  check Alcotest.bool "digraph" true (String.length dot > 0 && count_occurrences dot "digraph" = 1);
  check Alcotest.int "balanced braces" (count_occurrences dot "{") (count_occurrences dot "}");
  check Alcotest.int "two rule nodes" 2 (count_occurrences dot "shape=ellipse");
  check Alcotest.int "one shaded slow tuple" 1 (count_occurrences dot "fillcolor=lightgray");
  (* Quotes in payloads are escaped: every line must contain an even number
     of unescaped double quotes, or the DOT syntax is broken. *)
  List.iter
    (fun line ->
      let unescaped = ref 0 in
      String.iteri
        (fun i c -> if c = '"' && (i = 0 || line.[i - 1] <> '\\') then incr unescaped)
        line;
      if !unescaped mod 2 <> 0 then Alcotest.failf "unbalanced quotes in %S" line)
    (String.split_on_char '\n' dot)

let test_dot_forest_merges_shared_tuples () =
  let t = sample_tree () in
  let alone = Prov_dot.to_dot t in
  let forest = Prov_dot.forest_to_dot [ t; t ] in
  (* An identical second tree adds no lines. *)
  check Alcotest.int "same line count" (count_occurrences alone "\n") (count_occurrences forest "\n")

let test_dot_deterministic () =
  let t = sample_tree () in
  check Alcotest.string "stable output" (Prov_dot.to_dot t) (Prov_dot.to_dot t)

(* ------------------------------------------------------------------ *)
(* Flood routing *)

let diamond () =
  let topo = Dpc_net.Topology.create ~n:4 in
  List.iter
    (fun (a, b) -> Dpc_net.Topology.add_link topo a b line_link)
    [ (0, 1); (1, 3); (0, 2); (2, 3) ];
  topo

let flood_world scheme =
  let topo = diamond () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Flood_routing.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Flood_routing.env ~nodes:4 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Flood_routing.env
      ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime (Dpc_apps.Flood_routing.link_costs_of_topology topo);
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Flood_routing.adv ~at:0 ~dst:0 ~cost:0);
  Dpc_engine.Runtime.run runtime;
  (runtime, backend, routing)

let test_flood_keys () =
  let keys = Dpc_analysis.Equi_keys.compute (Dpc_apps.Flood_routing.delp ()) in
  (* The destination (adv:1) is not a key: flooding is destination-blind. *)
  check (Alcotest.list Alcotest.int) "keys" [ 0; 2 ] (Dpc_analysis.Equi_keys.keys keys)

let test_flood_terminates () =
  let runtime, _, _ = flood_world Backend.S_exspan in
  let stats = Dpc_engine.Runtime.stats runtime in
  check Alcotest.bool "bounded executions" true (stats.fired > 0 && stats.fired < 1000)

let test_flood_two_path_derivations () =
  List.iter
    (fun scheme ->
      let _, backend, routing = flood_world scheme in
      let cand = Dpc_apps.Flood_routing.route_cand ~at:3 ~dst:0 ~cost:2 in
      let result = Backend.query backend ~cost:Query_cost.free ~routing cand in
      check Alcotest.int
        (Backend.scheme_name scheme ^ ": two derivations through the diamond") 2
        (List.length result.trees))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let test_flood_schemes_agree () =
  let trees scheme =
    let _, backend, routing = flood_world scheme in
    let cand = Dpc_apps.Flood_routing.route_cand ~at:3 ~dst:0 ~cost:2 in
    (Backend.query backend ~cost:Query_cost.free ~routing cand).trees
  in
  let reference = trees Backend.S_exspan in
  List.iter
    (fun scheme ->
      check (Alcotest.list tree_t) (Backend.scheme_name scheme) reference (trees scheme))
    [ Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

(* ------------------------------------------------------------------ *)
(* Relations of interest (§3.2): the user asks for concrete provenance of
   an intermediate relation. *)

let interest_world scheme =
  let topo = line_topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook backend) ~interest:[ "packet" ] ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  (runtime, backend, routing)

let test_interest_queries_intermediate name scheme =
  let runtime, backend, routing = interest_world scheme in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  (* The intermediate packet at n1 now has concrete provenance. *)
  let intermediate =
    Dpc_ndlog.Tuple.make "packet"
      [ Dpc_ndlog.Value.Addr 1; Dpc_ndlog.Value.Addr 0; Dpc_ndlog.Value.Addr 2;
        Dpc_ndlog.Value.Str "x" ]
  in
  let result = Backend.query backend ~cost:Query_cost.free ~routing intermediate in
  check Alcotest.int (name ^ ": intermediate queryable") 1 (List.length result.trees);
  check (Alcotest.list Alcotest.string) (name ^ ": one-rule chain") [ "r1" ]
    (Prov_tree.rules_root_to_leaf (List.hd result.trees));
  (* The terminal output is still recorded and queryable. *)
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let r = Backend.query backend ~cost:Query_cost.free ~routing out in
  check Alcotest.int (name ^ ": terminal still queryable") 1 (List.length r.trees);
  check Alcotest.int (name ^ ": outputs list stays terminal-only") 1
    (List.length (Dpc_engine.Runtime.outputs runtime))

let test_interest_advanced_compresses () =
  (* Repeated packets of one class still compress: the interest records are
     per-event prov deltas against the shared chain prefix. *)
  let runtime, backend, routing = interest_world Backend.S_advanced in
  for i = 1 to 10 do
    Dpc_engine.Runtime.inject runtime
      (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
  done;
  Dpc_engine.Runtime.run runtime;
  let storage = Backend.total_storage backend in
  check Alcotest.int "one shared chain" 3 storage.Rows.rule_exec_rows;
  (* Per packet: one delta at n1 (intermediate packet@n1), one at n2
     (packet@n2), one at n2 for recv. packet@n0 is the input event (no rule
     derived it), so no delta there. *)
  check Alcotest.int "three deltas per packet" 30 storage.Rows.prov_rows;
  let mid =
    Dpc_ndlog.Tuple.make "packet"
      [ Dpc_ndlog.Value.Addr 1; Dpc_ndlog.Value.Addr 0; Dpc_ndlog.Value.Addr 2;
        Dpc_ndlog.Value.Str "p7" ]
  in
  check Alcotest.int "late packet's intermediate queryable" 1
    (List.length (Backend.query backend ~cost:Query_cost.free ~routing mid).trees)

let test_interest_rejects_unknown_relation () =
  let topo = line_topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  Alcotest.check_raises "route is not derived"
    (Invalid_argument
       "Runtime.create: interest relations [\"route\"] are not derived by the program")
    (fun () ->
      ignore
        (Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
           ~hook:Dpc_engine.Prov_hook.null ~interest:[ "route" ] ()))

let interest_cases =
  List.map
    (fun s ->
      Alcotest.test_case (Backend.scheme_name s) `Quick (fun () ->
        test_interest_queries_intermediate (Backend.scheme_name s) s))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let () =
  Alcotest.run "dpc_extensions"
    [
      ( "replay (§3.2 reactive maintenance)",
        [
          Alcotest.test_case "answers intermediate tuples" `Quick
            test_replay_answers_intermediate_tuples;
          Alcotest.test_case "matches live ExSPAN" `Quick test_replay_matches_live_exspan;
          Alcotest.test_case "handles updates and deletes" `Quick test_replay_handles_updates;
          Alcotest.test_case "log smaller than ExSPAN tables" `Quick
            test_replay_storage_is_small;
          Alcotest.test_case "latency includes log cost" `Quick
            test_replay_latency_includes_log_cost;
        ] );
      ( "prov_dot",
        [
          Alcotest.test_case "well-formed" `Quick test_dot_well_formed;
          Alcotest.test_case "forest merges shared tuples" `Quick
            test_dot_forest_merges_shared_tuples;
          Alcotest.test_case "deterministic" `Quick test_dot_deterministic;
        ] );
      ("relations of interest", interest_cases
        @ [
            Alcotest.test_case "advanced compresses" `Quick test_interest_advanced_compresses;
            Alcotest.test_case "rejects unknown relation" `Quick
              test_interest_rejects_unknown_relation;
          ]);
      ( "flood routing",
        [
          Alcotest.test_case "destination is not a key" `Quick test_flood_keys;
          Alcotest.test_case "terminates" `Quick test_flood_terminates;
          Alcotest.test_case "two-path derivations" `Quick test_flood_two_path_derivations;
          Alcotest.test_case "schemes agree" `Quick test_flood_schemes_agree;
        ] );
    ]
