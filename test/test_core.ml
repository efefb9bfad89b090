(* Integration and correctness tests for dpc_core: the three maintenance
   schemes on the paper's running example (Fig 2/3/6), the Basic
   optimization's re-derivation (§4), equivalence-based compression (§5.3),
   inter-class compression (§5.4), slow-changing updates (§5.5), and the
   theorem-level properties (1, 3, 5). *)

open Dpc_ndlog
open Dpc_core

let check = Alcotest.check

(* --------------------------------------------------------------- *)
(* Harness: run packet forwarding on the Fig 2 topology (n1 -> n2 -> n3,
   plus a spare node n4 used by the update tests). Node ids: n1=0, n2=1,
   n3=2, n4=3. *)

type world = {
  runtime : Dpc_engine.Runtime.t;
  backend : Backend.t;
  routing : Dpc_net.Routing.t;
}

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 50e6 /. 8.0 }

let fig2_topology () =
  let topo = Dpc_net.Topology.create ~n:4 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  Dpc_net.Topology.add_link topo 0 3 line_link;
  Dpc_net.Topology.add_link topo 3 2 line_link;
  topo

let make_world ?(routes = true) scheme =
  let topo = fig2_topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:4 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook backend) ()
  in
  if routes then
    (* The paper's Fig 2 routes: n1 forwards to n3 via n2 (even though a
       shorter path via n4 exists — the "misconfiguration" of §2.2). *)
    Dpc_engine.Runtime.load_slow runtime
      [
        Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
        Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2;
      ];
  { runtime; backend; routing }

let send w ~payload =
  Dpc_engine.Runtime.inject w.runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload);
  Dpc_engine.Runtime.run w.runtime

let query ?evid w output =
  Backend.query w.backend ~cost:Dpc_testkit.Query_kit.free ~routing:w.routing ?evid output

let expected_recv payload = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload

(* The provenance tree of Fig 3 for a given payload. *)
let fig3_tree payload =
  Prov_tree.Derived
    {
      rule = "r2";
      output = expected_recv payload;
      slow = [];
      sub =
        Derived
          {
            rule = "r1";
            output =
              Tuple.make "packet" [ Value.Addr 2; Value.Addr 0; Value.Addr 2; Value.Str payload ];
            slow = [ Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
            sub =
              Event
                {
                  rule = "r1";
                  output =
                    Tuple.make "packet"
                      [ Value.Addr 1; Value.Addr 0; Value.Addr 2; Value.Str payload ];
                  slow = [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1 ];
                  event = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload;
                };
          };
    }

let tree_testable = Alcotest.testable Prov_tree.pp Prov_tree.equal

let all_schemes =
  [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let for_all_schemes f () =
  List.iter (fun s -> f (Backend.scheme_name s) s) all_schemes

(* --------------------------------------------------------------- *)
(* End-to-end execution *)

let test_forwarding_delivers name scheme =
  let w = make_world scheme in
  send w ~payload:"data";
  let outputs = Dpc_engine.Runtime.outputs w.runtime in
  check Alcotest.int (name ^ ": one output") 1 (List.length outputs);
  let out, _ = List.hd outputs in
  check Alcotest.bool (name ^ ": recv at n3") true (Tuple.equal out (expected_recv "data"));
  let stats = Dpc_engine.Runtime.stats w.runtime in
  check Alcotest.int (name ^ ": three rule executions") 3 stats.fired

let test_query_reconstructs_fig3 name scheme =
  let w = make_world scheme in
  send w ~payload:"data";
  let result = query w (expected_recv "data") in
  check Alcotest.int (name ^ ": one tree") 1 (List.length result.trees);
  check tree_testable (name ^ ": Fig 3 tree") (fig3_tree "data") (List.hd result.trees)

let test_query_unknown_tuple name scheme =
  let w = make_world scheme in
  send w ~payload:"data";
  let result = query w (expected_recv "never-sent") in
  check Alcotest.int (name ^ ": no trees") 0 (List.length result.trees)

(* --------------------------------------------------------------- *)
(* Storage comparisons *)

let prov_bytes w = Rows.provenance_bytes (Backend.total_storage w.backend)

let run_many scheme n =
  let w = make_world scheme in
  for i = 1 to n do
    send w ~payload:(Printf.sprintf "payload-%d" i)
  done;
  w

let test_basic_smaller_than_exspan () =
  let ex = run_many Backend.S_exspan 50 in
  let ba = run_many Backend.S_basic 50 in
  check Alcotest.bool "basic < exspan" true (prov_bytes ba < prov_bytes ex)

let test_advanced_much_smaller () =
  let ex = run_many Backend.S_exspan 50 in
  let ad = run_many Backend.S_advanced 50 in
  (* One shared chain + 50 prov deltas vs 50 full trees. *)
  check Alcotest.bool "advanced < exspan / 3" true (prov_bytes ad * 3 < prov_bytes ex)

let test_advanced_shares_chain () =
  let w = run_many Backend.S_advanced 10 in
  let storage = Backend.total_storage w.backend in
  (* 3 shared ruleExec rows for the single equivalence class; one prov
     delta per packet. *)
  check Alcotest.int "ruleExec rows" 3 storage.rule_exec_rows;
  check Alcotest.int "prov rows" 10 storage.prov_rows

let test_exspan_grows_linearly () =
  let w1 = run_many Backend.S_exspan 10 in
  let w2 = run_many Backend.S_exspan 20 in
  let s1 = Backend.total_storage w1.backend and s2 = Backend.total_storage w2.backend in
  check Alcotest.int "ruleExec rows double" (2 * s1.rule_exec_rows) s2.rule_exec_rows

(* --------------------------------------------------------------- *)
(* Advanced: per-packet querying through the shared chain *)

let test_advanced_queries_every_packet () =
  let w = run_many Backend.S_advanced 5 in
  for i = 1 to 5 do
    let payload = Printf.sprintf "payload-%d" i in
    let result = query w (expected_recv payload) in
    check Alcotest.int (payload ^ ": one tree") 1 (List.length result.trees);
    check tree_testable payload (fig3_tree payload) (List.hd result.trees)
  done

let test_advanced_evid_filter () =
  let w = run_many Backend.S_advanced 3 in
  let ev = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"payload-2" in
  let evid = Dpc_util.Sha1.digest_string (Tuple.canonical ev) in
  let result = query ~evid w (expected_recv "payload-2") in
  check Alcotest.int "one tree" 1 (List.length result.trees);
  let wrong = Dpc_util.Sha1.digest_string "nonsense" in
  let result = query ~evid:wrong w (expected_recv "payload-2") in
  check Alcotest.int "no tree under wrong evid" 0 (List.length result.trees)

(* --------------------------------------------------------------- *)
(* §5.4 inter-class sharing: crossing traffic shares suffix rows *)

let test_interclass_shares_suffix () =
  (* Class A: 0 -> 2 via 1. Class B: 1 -> 2 (suffix of A's path). *)
  let run scheme =
    let w = make_world scheme in
    Dpc_engine.Runtime.inject w.runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"a");
    Dpc_engine.Runtime.run w.runtime;
    Dpc_engine.Runtime.inject w.runtime
      (Tuple.make "packet" [ Value.Addr 1; Value.Addr 1; Value.Addr 2; Value.Str "b" ]);
    Dpc_engine.Runtime.run w.runtime;
    w
  in
  let plain = run Backend.S_advanced in
  let inter = run Backend.S_advanced_interclass in
  (* Plain: class A's chain (r1@0, r1@1, r2@2) plus class B's (r1@1', r2@2')
     = 5 rows — B's rows differ because the rid hashes the chain.
     Inter-class: node rows r1@0, r1@1, r2@2 are shared (3 node rows) and
     the distinct successors live in cheap link rows. *)
  let plain_rows = (Backend.total_storage plain.backend).rule_exec_rows in
  let inter_storage = Backend.total_storage inter.backend in
  check Alcotest.int "plain stores separate suffix rows" 5 plain_rows;
  check Alcotest.int "interclass shares node rows" (3 + 4) inter_storage.rule_exec_rows;
  (* 3 shared node rows + 4 distinct link rows (r2@2 has two different
     successors, r1@1 has two: toward r1@0 and leaf). *)
  check Alcotest.bool "interclass stores fewer bytes" true
    (Rows.provenance_bytes inter_storage < Rows.provenance_bytes (Backend.total_storage plain.backend));
  (* Both classes still query correctly. *)
  List.iter
    (fun w ->
      let r1 = query w (expected_recv "a") in
      check Alcotest.int "class A tree" 1 (List.length r1.trees);
      let out_b = Dpc_apps.Forwarding.recv ~at:2 ~src:1 ~dst:2 ~payload:"b" in
      let r2 = query w out_b in
      check Alcotest.int "class B tree" 1 (List.length r2.trees))
    [ plain; inter ]

(* --------------------------------------------------------------- *)
(* §5.5 slow-changing updates *)

let test_route_update_rematerializes () =
  let w = make_world Backend.S_advanced in
  send w ~payload:"before";
  (* Redirect: n1 now forwards to n3 via n4 (Fig 7). *)
  ignore (Dpc_engine.Runtime.delete_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1));
  Dpc_engine.Runtime.insert_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:3);
  Dpc_engine.Runtime.insert_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:3 ~dst:2 ~next:2);
  Dpc_engine.Runtime.run w.runtime;
  send w ~payload:"after";
  (* The new packet takes n1 -> n4 -> n3 and, because the sig broadcast
     cleared htequi, its chain is re-materialized. *)
  let result = query w (expected_recv "after") in
  check Alcotest.int "one tree for the new path" 1 (List.length result.trees);
  let tree = List.hd result.trees in
  check (Alcotest.list Alcotest.string) "rules" [ "r2"; "r1"; "r1" ]
    (Dpc_testkit.Query_kit.rules_root_to_leaf tree);
  let slow_locs =
    List.filter_map
      (fun t -> if String.equal (Tuple.rel t) "route" then Some (Tuple.loc t) else None)
      (Prov_tree.tuples tree)
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.int) "route tuples on the new path" [ 0; 3 ] slow_locs;
  (* The old tree is still queryable (provenance is monotone). *)
  let old_result = query w (expected_recv "before") in
  check Alcotest.int "old tree intact" 1 (List.length old_result.trees);
  check tree_testable "old tree is the Fig 3 tree" (fig3_tree "before")
    (List.hd old_result.trees)

let test_delete_alone_invalidates_equivalence () =
  (* Regression for the §5.5 fix: a deletion with no accompanying insert
     must broadcast [sig] on its own. Here the class is materialized with
     two derivations (both routes at n1), then one route is deleted; if the
     delete were silent, the next packet would reuse the stale class and be
     served a tree through the deleted route. *)
  let w = make_world Backend.S_advanced in
  send w ~payload:"before";
  (* Add the alternate path n1 -> n4 -> n3 (both routes now live at n1). *)
  Dpc_engine.Runtime.insert_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:3);
  Dpc_engine.Runtime.insert_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:3 ~dst:2 ~next:2);
  Dpc_engine.Runtime.run w.runtime;
  send w ~payload:"mid";
  check Alcotest.int "both paths materialized" 2
    (List.length (query w (expected_recv "mid")).trees);
  (* Delete the original route. Nothing else updates afterwards. *)
  ignore
    (Dpc_engine.Runtime.delete_slow_runtime w.runtime
       (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1));
  Dpc_engine.Runtime.run w.runtime;
  send w ~payload:"after";
  let result = query w (expected_recv "after") in
  check Alcotest.int "only the surviving path" 1 (List.length result.trees);
  List.iter
    (fun tree ->
      List.iter
        (fun t ->
          if Tuple.equal t (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1) then
            Alcotest.failf "stale tree cites the deleted route: %s" (Prov_tree.to_string tree))
        (Prov_tree.tuples tree))
    result.trees

let test_deletion_keeps_provenance () =
  let w = make_world Backend.S_advanced in
  send w ~payload:"data";
  ignore (Dpc_engine.Runtime.delete_slow_runtime w.runtime (Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1));
  let result = query w (expected_recv "data") in
  check Alcotest.int "tree survives deletion" 1 (List.length result.trees);
  check tree_testable "identical tree" (fig3_tree "data") (List.hd result.trees)

(* --------------------------------------------------------------- *)
(* Theorem 1: events equal on the equivalence keys generate equivalent
   trees. *)

let test_theorem1_forwarding () =
  let keys = Dpc_analysis.Equi_keys.compute (Dpc_apps.Forwarding.delp ()) in
  check (Alcotest.list Alcotest.int) "forwarding keys" [ 0; 2 ]
    (Dpc_analysis.Equi_keys.For_testing.keys keys);
  let w = make_world Backend.S_exspan in
  send w ~payload:"data";
  send w ~payload:"url";
  let t1 = List.hd (query w (expected_recv "data")).trees in
  let t2 = List.hd (query w (expected_recv "url")).trees in
  check Alcotest.bool "equivalent" true (Dpc_testkit.Query_kit.equivalent t1 t2);
  check Alcotest.bool "not equal" false (Prov_tree.equal t1 t2)

let prop_theorem1_random_payloads =
  QCheck.Test.make ~name:"theorem 1: same keys => equivalent trees" ~count:20
    (QCheck.pair QCheck.small_printable_string QCheck.small_printable_string)
    (fun (p1, p2) ->
      QCheck.assume (p1 <> p2);
      let w = make_world Backend.S_exspan in
      send w ~payload:p1;
      send w ~payload:p2;
      match (query w (expected_recv p1)).trees, (query w (expected_recv p2)).trees with
      | [ t1 ], [ t2 ] -> Dpc_testkit.Query_kit.equivalent t1 t2
      | _ -> false)

(* --------------------------------------------------------------- *)
(* Theorem 3 (losslessness): the trees queryable from the compressed store
   equal the trees ExSPAN maintains, for a randomized workload. *)

let random_workload rng w =
  let payloads = ref [] in
  for i = 1 to 30 do
    let payload = Printf.sprintf "p%d-%d" i (Dpc_util.Rng.int rng 5) in
    (* Duplicate payloads may repeat an identical event: content-addressed
       storage must still be correct. *)
    payloads := payload :: !payloads;
    send w ~payload
  done;
  List.sort_uniq String.compare !payloads

let test_theorem3_losslessness name scheme =
  let rng = Dpc_util.Rng.create ~seed:42 in
  let ex = make_world Backend.S_exspan in
  let payloads = random_workload rng ex in
  let rng = Dpc_util.Rng.create ~seed:42 in
  let cm = make_world scheme in
  let payloads' = random_workload rng cm in
  check (Alcotest.list Alcotest.string) (name ^ ": same workload") payloads payloads';
  List.iter
    (fun payload ->
      let out = expected_recv payload in
      let tex = (query ex out).trees and tcm = (query cm out).trees in
      check (Alcotest.list tree_testable)
        (Printf.sprintf "%s: trees for %s" name payload)
        tex tcm)
    payloads

(* --------------------------------------------------------------- *)
(* Theorem 5: QUERY returns exactly the derivations with the queried evid. *)

let test_theorem5_exact_derivations () =
  let w = make_world Backend.S_advanced in
  send w ~payload:"one";
  send w ~payload:"two";
  List.iter
    (fun payload ->
      let ev = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload in
      let evid = Dpc_util.Sha1.digest_string (Tuple.canonical ev) in
      let result = query ~evid w (expected_recv payload) in
      check Alcotest.int (payload ^ ": exactly one derivation") 1 (List.length result.trees);
      let tree = List.hd result.trees in
      check Alcotest.bool (payload ^ ": evid matches") true
        (Dpc_util.Sha1.equal (Prov_tree.event_id tree) evid);
      check Alcotest.bool (payload ^ ": tree correct") true
        (Prov_tree.equal tree (fig3_tree payload)))
    [ "one"; "two" ]

(* Theorem 5 with the evid the runtime hands out ([meta.evid], the
   interned [Tuple.digest]) on payloads at and above the 64-byte interning
   threshold, including the paper's 500-byte packets: every scheme must
   filter on the same hash. *)
let test_evid_large_payloads name scheme =
  let w = make_world scheme in
  let payloads = [ String.make 64 'a'; String.make 65 'b'; String.make 500 'c' ] in
  List.iter (fun payload -> send w ~payload) payloads;
  let outputs = Dpc_engine.Runtime.outputs w.runtime in
  check Alcotest.int (name ^ ": one output per packet") 3 (List.length outputs);
  List.iter
    (fun (out, (meta : Dpc_engine.Prov_hook.meta)) ->
      let payload = Value.For_testing.str_exn (Tuple.arg out 3) in
      let label = Printf.sprintf "%s, %d-byte payload" name (String.length payload) in
      let result = query ~evid:meta.evid w out in
      check Alcotest.int (label ^ ": exactly one derivation") 1 (List.length result.trees);
      let tree = List.hd result.trees in
      check Alcotest.bool (label ^ ": event_id = meta.evid") true
        (Dpc_util.Sha1.equal (Prov_tree.event_id tree) meta.evid);
      check tree_testable (label ^ ": Fig 3 tree") (fig3_tree payload) tree)
    outputs

(* --------------------------------------------------------------- *)
(* Query latency model: ExSPAN processes more entries and bytes. *)

let test_query_cost_ordering () =
  let run scheme =
    let w = run_many scheme 5 in
    Backend.query w.backend ~cost:Query_cost.emulation ~routing:w.routing
      (expected_recv "payload-3")
  in
  let ex = run Backend.S_exspan in
  let ba = run Backend.S_basic in
  let ad = run Backend.S_advanced in
  check Alcotest.bool "all found a tree" true
    (List.for_all (fun (r : Query_result.t) -> r.trees <> []) [ ex; ba; ad ]);
  check Alcotest.bool "exspan ships more bytes" true (ex.bytes > ba.bytes);
  check Alcotest.bool "exspan slower than basic" true (ex.latency > ba.latency);
  check Alcotest.bool "advanced close to basic" true
    (ad.latency < ex.latency)

(* --------------------------------------------------------------- *)
(* Prov_tree unit behaviour *)

let test_prov_tree_accessors () =
  let t = fig3_tree "data" in
  check Alcotest.int "depth" 3 (Dpc_testkit.Query_kit.depth t);
  check (Alcotest.list Alcotest.string) "rules" [ "r2"; "r1"; "r1" ]
    (Dpc_testkit.Query_kit.rules_root_to_leaf t);
  check Alcotest.bool "event_of" true
    (Tuple.equal (Prov_tree.event_of t) (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"data"));
  check Alcotest.int "tuples" 6 (List.length (Prov_tree.tuples t))

let test_prov_tree_equivalence_is_shape_sensitive () =
  let t = fig3_tree "data" in
  let shallow =
    Prov_tree.Event
      { rule = "r2"; output = expected_recv "data"; slow = [];
        event = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"data" }
  in
  check Alcotest.bool "different depth not equivalent" false (Dpc_testkit.Query_kit.equivalent t shallow);
  let different_slow =
    match t with
    | Derived ({ sub = Derived ({ sub = Event inner; _ } as mid); _ } as root) ->
        Prov_tree.Derived
          { root with
            sub =
              Derived
                { mid with
                  sub =
                    Event { inner with slow = [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:3 ] } } }
    | _ -> Alcotest.fail "unexpected tree shape"
  in
  check Alcotest.bool "different slow tuples not equivalent" false
    (Dpc_testkit.Query_kit.equivalent t different_slow)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let scheme_cases f =
  List.map
    (fun s -> Alcotest.test_case (Backend.scheme_name s) `Quick (fun () -> f (Backend.scheme_name s) s))
    all_schemes

(* Query cost model edges. *)
let test_query_cost_hop_model () =
  let w = make_world Backend.S_exspan in
  (* Emulation mode: 1 hop at 0.2 ms. *)
  check (Alcotest.float 1e-9) "hop latency override" 0.0002
    (Query_cost.hop Query_cost.emulation w.routing ~src:0 ~dst:1);
  (* Simulation mode: the topology's link latency. *)
  check (Alcotest.float 1e-9) "topology latency" 0.002
    (Query_cost.hop Query_cost.simulation w.routing ~src:0 ~dst:1);
  check (Alcotest.float 1e-9) "self hop free" 0.0
    (Query_cost.hop Query_cost.emulation w.routing ~src:1 ~dst:1)

let () =
  ignore for_all_schemes;
  Alcotest.run "dpc_core"
    [
      ("delivery", scheme_cases test_forwarding_delivers);
      ("query reconstructs Fig 3", scheme_cases test_query_reconstructs_fig3);
      ("query unknown tuple", scheme_cases test_query_unknown_tuple);
      ( "storage",
        [
          Alcotest.test_case "basic < exspan" `Quick test_basic_smaller_than_exspan;
          Alcotest.test_case "advanced << exspan" `Quick test_advanced_much_smaller;
          Alcotest.test_case "advanced shares one chain" `Quick test_advanced_shares_chain;
          Alcotest.test_case "exspan linear growth" `Quick test_exspan_grows_linearly;
        ] );
      ( "advanced",
        [
          Alcotest.test_case "queries every packet" `Quick test_advanced_queries_every_packet;
          Alcotest.test_case "evid filter" `Quick test_advanced_evid_filter;
          Alcotest.test_case "interclass shares suffix" `Quick test_interclass_shares_suffix;
        ] );
      ( "updates",
        [
          Alcotest.test_case "route update rematerializes" `Quick test_route_update_rematerializes;
          Alcotest.test_case "delete alone invalidates classes" `Quick
            test_delete_alone_invalidates_equivalence;
          Alcotest.test_case "deletion keeps provenance" `Quick test_deletion_keeps_provenance;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "theorem 1 (forwarding)" `Quick test_theorem1_forwarding;
          Alcotest.test_case "theorem 5 (query exactness)" `Quick test_theorem5_exact_derivations;
        ]
        @ scheme_cases (fun name scheme ->
            if scheme <> Backend.S_exspan then test_theorem3_losslessness name scheme)
        @ qsuite [ prop_theorem1_random_payloads ] );
      ("evid of large payloads", scheme_cases test_evid_large_payloads);
      ( "query cost",
        [
          Alcotest.test_case "exspan slower" `Quick test_query_cost_ordering;
          Alcotest.test_case "hop model" `Quick test_query_cost_hop_model;
        ] );
      ( "prov_tree",
        [
          Alcotest.test_case "accessors" `Quick test_prov_tree_accessors;
          Alcotest.test_case "equivalence shape-sensitive" `Quick
            test_prov_tree_equivalence_is_shape_sensitive;
        ] );
    ]
