(* Tests for the extension modules: Graphviz export, and the
   flood-routing application whose multi-path derivations stress the
   multi-derivation query machinery. *)

open Dpc_ndlog
open Dpc_core

let check = Alcotest.check
let tree_t = Alcotest.testable Prov_tree.pp Prov_tree.equal

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

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
  let dot = Prov_dot.forest_to_dot [ sample_tree () ] in
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
  let alone = Prov_dot.forest_to_dot [ t ] in
  let forest = Prov_dot.forest_to_dot [ t; t ] in
  (* An identical second tree adds no lines. *)
  check Alcotest.int "same line count" (count_occurrences alone "\n") (count_occurrences forest "\n")

let test_dot_deterministic () =
  let t = sample_tree () in
  check Alcotest.string "stable output" (Prov_dot.forest_to_dot [ t ]) (Prov_dot.forest_to_dot [ t ])

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
  check (Alcotest.list Alcotest.int) "keys" [ 0; 2 ] (Dpc_analysis.Equi_keys.For_testing.keys keys)

let test_flood_terminates () =
  let runtime, _, _ = flood_world Backend.S_exspan in
  let stats = Dpc_engine.Runtime.stats runtime in
  check Alcotest.bool "bounded executions" true (stats.fired > 0 && stats.fired < 1000)

let test_flood_two_path_derivations () =
  List.iter
    (fun scheme ->
      let _, backend, routing = flood_world scheme in
      let cand = Dpc_apps.Flood_routing.route_cand ~at:3 ~dst:0 ~cost:2 in
      let result = Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing cand in
      check Alcotest.int
        (Backend.scheme_name scheme ^ ": two derivations through the diamond") 2
        (List.length result.trees))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let test_flood_schemes_agree () =
  let trees scheme =
    let _, backend, routing = flood_world scheme in
    let cand = Dpc_apps.Flood_routing.route_cand ~at:3 ~dst:0 ~cost:2 in
    (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing cand).trees
  in
  let reference = trees Backend.S_exspan in
  List.iter
    (fun scheme ->
      check (Alcotest.list tree_t) (Backend.scheme_name scheme) reference (trees scheme))
    [ Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

(* Both derivations of one route candidate in one digraph: the r2
   execution at node 3 and the tuples the paths share are drawn once. *)
let test_dot_flood_forest () =
  let _, backend, routing = flood_world Backend.S_advanced in
  let cand = Dpc_apps.Flood_routing.route_cand ~at:3 ~dst:0 ~cost:2 in
  let trees = (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing cand).trees in
  check Alcotest.int "two derivations" 2 (List.length trees);
  let dot = Prov_dot.forest_to_dot trees in
  let alone = Prov_dot.forest_to_dot [ List.hd trees ] in
  check Alcotest.int "one node for the queried tuple" 1
    (count_occurrences dot ("label=\"" ^ Tuple.to_string cand ^ "\""));
  check Alcotest.int "rule nodes of one path" 3 (count_occurrences alone "shape=ellipse");
  check Alcotest.int "rule nodes of both paths" 5 (count_occurrences dot "shape=ellipse");
  check Alcotest.int "tuple nodes of one path" 6 (count_occurrences alone "shape=box");
  check Alcotest.int "tuple nodes of both paths" 9 (count_occurrences dot "shape=box")

let () =
  Alcotest.run "dpc_extensions"
    [
      ( "prov_dot",
        [
          Alcotest.test_case "well-formed" `Quick test_dot_well_formed;
          Alcotest.test_case "forest merges shared tuples" `Quick
            test_dot_forest_merges_shared_tuples;
          Alcotest.test_case "deterministic" `Quick test_dot_deterministic;
        ] );
      ( "flood routing",
        [
          Alcotest.test_case "destination is not a key" `Quick test_flood_keys;
          Alcotest.test_case "terminates" `Quick test_flood_terminates;
          Alcotest.test_case "two-path derivations" `Quick test_flood_two_path_derivations;
          Alcotest.test_case "schemes agree" `Quick test_flood_schemes_agree;
        ] );
      (* Alcotest cuts case names to fit 80 columns, leaving less room the
         longer the longest suite name is. At 34 characters this name keeps
         the room the file's cases have always printed in, so their printed
         names stay as they were. *)
      ( "dot export of flood-routing forest",
        [ Alcotest.test_case "two paths merge" `Quick test_dot_flood_forest ] );
    ]
