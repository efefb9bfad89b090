(* Tests for dpc_engine: the node-local database, rule evaluation (joins,
   comparisons, assignments, UDFs), symbolic re-derivation, and the
   distributed runtime. *)

open Dpc_ndlog
open Dpc_engine

let check = Alcotest.check
let tuple_t = Alcotest.testable Tuple.pp Tuple.equal

(* ------------------------------------------------------------------ *)
(* Db *)

let route = Dpc_apps.Forwarding.route

let test_db_set_semantics () =
  let db = Db.create () in
  check Alcotest.bool "first insert" true (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "duplicate insert" false (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.int "cardinality" 1 (Db.cardinality db "route");
  check Alcotest.bool "mem" true (Db.mem db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "remove" true (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "remove again" false (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.int "empty" 0 (Db.total_tuples db)

let test_db_scan_deterministic () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:4 ~next:2));
  let scan1 = Db.scan db "route" and scan2 = Db.scan db "route" in
  check (Alcotest.list tuple_t) "stable order" scan1 scan2;
  check Alcotest.int "three tuples" 3 (List.length scan1);
  check (Alcotest.list tuple_t) "unknown relation" [] (Db.scan db "nothing")

let test_db_size_bytes_grows () =
  let db = Db.create () in
  let s0 = Db.size_bytes db in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  let s1 = Db.size_bytes db in
  check Alcotest.bool "grows" true (s1 > s0)

let test_db_size_bytes_incremental () =
  (* The O(1) counter must equal the serialize-everything recount at every
     point of a random insert/remove interleaving (with duplicates and
     misses). debug_recount additionally makes size_bytes self-check. *)
  Db.set_debug_recount true;
  Fun.protect
    ~finally:(fun () -> Db.set_debug_recount false)
    (fun () ->
      let db = Db.create () in
      let rng = Dpc_util.Rng.create ~seed:5 in
      let tuple k = route ~at:(k mod 4) ~dst:(k mod 7) ~next:(k mod 3) in
      for step = 0 to 199 do
        let k = Dpc_util.Rng.int rng 25 in
        if Dpc_util.Rng.float rng 1.0 < 0.6 then ignore (Db.insert db (tuple k))
        else ignore (Db.remove db (tuple k));
        check Alcotest.int
          (Printf.sprintf "step %d" step)
          (Db.recount_bytes db) (Db.size_bytes db)
      done)

let test_db_lookup_indexed () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  ignore (Db.insert db (route ~at:1 ~dst:2 ~next:2));
  let key_02 = [ Value.Addr 0; Value.Addr 2 ] in
  (* First lookup builds the (0,1) index lazily over the existing tuples. *)
  check (Alcotest.list tuple_t) "exact bucket" [ route ~at:0 ~dst:2 ~next:1 ]
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02);
  (* ...and the index is maintained by subsequent inserts and removes. *)
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:4));
  check Alcotest.int "sees later insert" 2
    (List.length (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02));
  ignore (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check (Alcotest.list tuple_t) "sees removal" [ route ~at:0 ~dst:2 ~next:4 ]
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02);
  check (Alcotest.list tuple_t) "absent key" []
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:[ Value.Addr 9; Value.Addr 9 ]);
  (* A second index on different positions coexists with the first. *)
  check Alcotest.int "single-position index" 2
    (List.length (Db.lookup db ~rel:"route" ~positions:[ 0 ] ~key:[ Value.Addr 0 ]))

let test_db_bucket_order () =
  (* Buckets hold their newest insert first, whether the tuples predate the
     index (built on the first probe) or arrive after it. *)
  let db = Db.create () in
  let via next = route ~at:0 ~dst:2 ~next in
  let bucket () =
    Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:[ Value.Addr 0; Value.Addr 2 ]
  in
  List.iter (fun n -> ignore (Db.insert db (via n))) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  check (Alcotest.list tuple_t) "built over existing tuples"
    (List.map via [ 8; 7; 6; 5; 4; 3; 2; 1 ]) (bucket ());
  ignore (Db.insert db (via 9));
  ignore (Db.remove db (via 5));
  ignore (Db.insert db (via 5));
  check (Alcotest.list tuple_t) "maintained"
    (List.map via [ 5; 9; 8; 7; 6; 4; 3; 2; 1 ]) (bucket ());
  check (Alcotest.list tuple_t) "no position: the whole relation, newest first"
    (List.map via [ 5; 9; 8; 7; 6; 4; 3; 2; 1 ])
    (Db.lookup db ~rel:"route" ~positions:[] ~key:[])

(* ------------------------------------------------------------------ *)
(* Eval *)

let rule_of src =
  match Parser.parse_rule src with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse error: %s" e

let forwarding_r1 = rule_of "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N)."
let forwarding_r2 = rule_of "r2 recv(@L, S, D, DT) :- packet(@L, S, D, DT), D == L."

let pkt ~at ~src ~dst ~payload =
  Tuple.make "packet" [ Value.Addr at; Value.Addr src; Value.Addr dst; Value.Str payload ]

let test_eval_match_atom () =
  let atom = forwarding_r1.event in
  match Eval.match_atom atom (pkt ~at:0 ~src:0 ~dst:2 ~payload:"x") [] with
  | None -> Alcotest.fail "should match"
  | Some b ->
      check Alcotest.bool "binds L" true (List.assoc "L" b = Value.Addr 0);
      check Alcotest.bool "binds D" true (List.assoc "D" b = Value.Addr 2)

let test_eval_match_atom_consistency () =
  (* r2's event packet(@L, ...) with D == L later; but matching itself must
     reject inconsistent repeated variables. *)
  let atom = rule_of "r p(@X) :- q(@A, B, B)." in
  let ok = Tuple.make "q" [ Value.Addr 0; Value.Int 1; Value.Int 1 ] in
  let bad = Tuple.make "q" [ Value.Addr 0; Value.Int 1; Value.Int 2 ] in
  check Alcotest.bool "consistent repeat" true (Eval.match_atom atom.event ok [] <> None);
  check Alcotest.bool "inconsistent repeat" false (Eval.match_atom atom.event bad [] <> None)

let test_eval_fire_join () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r1 ~event:(pkt ~at:0 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "one result" 1 (List.length results);
  let head, slow = List.hd results in
  check tuple_t "forwarded packet" (pkt ~at:1 ~src:0 ~dst:2 ~payload:"x") head;
  check (Alcotest.list tuple_t) "used route" [ route ~at:0 ~dst:2 ~next:1 ] slow

let test_eval_fire_multiple_matches () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:3));
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r1 ~event:(pkt ~at:0 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "two derivations" 2 (List.length results)

let test_eval_fire_comparison () =
  let db = Db.create () in
  let at_dst =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(pkt ~at:2 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "fires at destination" 1 (List.length at_dst);
  let en_route =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(pkt ~at:1 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "silent elsewhere" 0 (List.length en_route)

let test_eval_fire_wrong_event_relation () =
  let db = Db.create () in
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(route ~at:0 ~dst:1 ~next:1)
  in
  check Alcotest.int "no match" 0 (List.length results)

let test_eval_assignment_and_arith () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A, B), Y := (A + B) * 2." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 3; Value.Int 4 ] in
  match Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event with
  | [ (head, []) ] ->
      check tuple_t "computed head" (Tuple.make "out" [ Value.Addr 0; Value.Int 14 ]) head
  | _ -> Alcotest.fail "expected one derivation"

let test_eval_division_by_zero () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := A / 0." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 3 ] in
  Alcotest.check_raises "division by zero" (Eval.Eval_error "division by zero") (fun () ->
    ignore (Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event))

let test_eval_udf () =
  let env =
    Env.register Env.empty "f_double" (function
      | [ Value.Int x ] -> Value.Int (2 * x)
      | _ -> raise (Eval.Eval_error "f_double"))
  in
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_double(A)." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 21 ] in
  match Eval.fire ~env ~db:(Db.create ()) ~rule ~event with
  | [ (head, _) ] ->
      check tuple_t "udf head" (Tuple.make "out" [ Value.Addr 0; Value.Int 42 ]) head
  | _ -> Alcotest.fail "expected one derivation"

let test_eval_unknown_udf () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_missing(A)." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 1 ] in
  Alcotest.check_raises "unknown function" (Eval.Eval_error "unknown function f_missing")
    (fun () -> ignore (Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event))

let test_eval_string_ordering () =
  let rule = rule_of "r1 out(@L, A) :- ev(@L, A, B), A < B." in
  let fire a b =
    Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule
      ~event:(Tuple.make "ev" [ Value.Addr 0; Value.Str a; Value.Str b ])
  in
  check Alcotest.int "abc < abd" 1 (List.length (fire "abc" "abd"));
  check Alcotest.int "abd not < abc" 0 (List.length (fire "abd" "abc"))

let test_fire_with_slow_rederives () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  let slow = [ route ~at:0 ~dst:2 ~next:1 ] in
  match Eval.fire_with_slow ~plan:(Eval.plan ~env:Env.empty forwarding_r1) ~event ~slow with
  | Some head -> check tuple_t "re-derived" (pkt ~at:1 ~src:0 ~dst:2 ~payload:"x") head
  | None -> Alcotest.fail "expected a head"

let test_fire_with_slow_rejects_mismatched () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  (* A route for a different destination no longer unifies. *)
  let slow = [ route ~at:0 ~dst:3 ~next:1 ] in
  check (Alcotest.option tuple_t) "no head" None
    (Eval.fire_with_slow ~plan:(Eval.plan ~env:Env.empty forwarding_r1) ~event ~slow)

let test_fire_planned_matches_fire () =
  (* The index-driven join must produce the same derivations as the naive
     scan join, as a multiset. *)
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:3));
  ignore (Db.insert db (route ~at:0 ~dst:4 ~next:2));
  ignore (Db.insert db (route ~at:1 ~dst:2 ~next:2));
  let norm results =
    List.sort compare
      (List.map
         (fun (head, slow) -> (Tuple.canonical head, List.map Tuple.canonical slow))
         results)
  in
  List.iter
    (fun event ->
      List.iter
        (fun rule ->
          let naive = Eval.fire ~env:Env.empty ~db ~rule ~event in
          let planned = Eval.fire_planned ~db ~plan:(Eval.plan ~env:Env.empty rule) ~event in
          check
            (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
            ("planned = naive on " ^ Tuple.to_string event)
            (norm naive) (norm planned))
        [ forwarding_r1; forwarding_r2 ])
    [
      pkt ~at:0 ~src:0 ~dst:2 ~payload:"x";
      pkt ~at:0 ~src:0 ~dst:4 ~payload:"y";
      pkt ~at:2 ~src:0 ~dst:2 ~payload:"z";
      pkt ~at:3 ~src:0 ~dst:9 ~payload:"dead";
    ]

let test_fire_into_matches_fire_dns () =
  (* DNS r1-r4 through one shared scratch, the runtime's path, against the
     reference evaluator. Node 0 has four name servers, so the
     f_isSubDomain filter rejects some candidates of every request there. *)
  let module D = Dpc_apps.Dns in
  let env = D.env and db = Db.create () in
  List.iter
    (fun t -> ignore (Db.insert db t))
    [
      D.root_server ~host:4 ~root:0;
      D.name_server ~at:0 ~domain:"com" ~server:1;
      D.name_server ~at:0 ~domain:"org" ~server:3;
      D.name_server ~at:0 ~domain:"ello.com" ~server:5;
      D.name_server ~at:0 ~domain:"" ~server:6;
      D.name_server ~at:1 ~domain:"hello.com" ~server:2;
      D.address_record ~at:2 ~url:"www.hello.com" ~ip:"10.0.0.7";
      D.address_record ~at:2 ~url:"www.hello.com" ~ip:"10.0.0.8";
    ];
  let request at url =
    Tuple.make "request" [ Value.Addr at; Value.Str url; Value.Addr 4; Value.Int 1 ]
  in
  let events =
    [
      D.url ~host:4 ~url:"www.hello.com" ~rqid:1;
      request 0 "www.hello.com";
      request 0 "www.example.org";
      request 0 "shello.com";
      request 1 "www.hello.com";
      request 2 "www.hello.com";
      Tuple.make "dnsResult"
        [ Value.Addr 2; Value.Str "www.hello.com"; Value.Str "10.0.0.7"; Value.Addr 4; Value.Int 1 ];
    ]
  in
  let plans = List.map (Eval.plan ~env) (D.delp ()).program.rules in
  let scratch = Eval.scratch plans in
  let norm results =
    List.sort compare
      (List.map (fun (head, slow) -> (Tuple.canonical head, List.map Tuple.canonical slow)) results)
  in
  let derived = ref 0 in
  List.iter
    (fun event ->
      List.iter
        (fun plan ->
          let naive = Eval.fire ~env ~db ~rule:(Eval.plan_rule plan) ~event in
          let n = Eval.fire_into scratch ~db ~plan ~event in
          let planned =
            List.init n (fun i -> (Eval.derived_head scratch i, Eval.derived_slow scratch i))
          in
          derived := !derived + n;
          check
            (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
            (Printf.sprintf "%s on %s" (Eval.plan_rule plan).name (Tuple.to_string event))
            (norm naive) (norm planned))
        plans)
    events;
  (* r1 once; r2 twice on each request at node 0 (the root domain and one
     of "com" and "org"; "ello.com" lacks the label boundary) and once at
     node 1; r3 twice; r4 once. *)
  check Alcotest.int "derivations" 11 !derived

let test_fire_planned_order () =
  (* Depth-first over the condition atoms, each atom's candidates newest
     insert first: the order the runtime ships derivations in. *)
  let rule = rule_of "r out(@L, A, B) :- ev(@L), p(@L, A), q(@L, B)." in
  let fact rel v = Tuple.make rel [ Value.Addr 0; Value.Int v ] in
  let db = Db.create () in
  List.iter (fun v -> ignore (Db.insert db (fact "p" v))) [ 1; 2 ];
  List.iter (fun v -> ignore (Db.insert db (fact "q" v))) [ 1; 2 ];
  let derivations =
    Eval.fire_planned ~db ~plan:(Eval.plan ~env:Env.empty rule)
      ~event:(Tuple.make "ev" [ Value.Addr 0 ])
  in
  let out a b = Tuple.make "out" [ Value.Addr 0; Value.Int a; Value.Int b ] in
  check
    (Alcotest.list (Alcotest.pair tuple_t (Alcotest.list tuple_t)))
    "derivation order"
    [
      (out 2 2, [ fact "p" 2; fact "q" 2 ]);
      (out 2 1, [ fact "p" 2; fact "q" 1 ]);
      (out 1 2, [ fact "p" 1; fact "q" 2 ]);
      (out 1 1, [ fact "p" 1; fact "q" 1 ]);
    ]
    derivations

let test_fire_with_slow_wrong_count () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  Alcotest.check_raises "arity mismatch"
    (Eval.Eval_error "fire_with_slow: rule r1 expects 1 slow tuples, got 0") (fun () ->
      ignore (Eval.fire_with_slow ~plan:(Eval.plan ~env:Env.empty forwarding_r1) ~event ~slow:[]))

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_shadowing () =
  let env = Env.register Env.empty "f" (fun _ -> Value.Int 1) in
  let env = Env.register env "f" (fun _ -> Value.Int 2) in
  match Env.lookup env "f" with
  | Some f -> check Alcotest.bool "latest wins" true (f [] = Value.Int 2)
  | None -> Alcotest.fail "lookup failed"

(* ------------------------------------------------------------------ *)
(* Runtime *)

let line_world () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ()
  in
  Runtime.load_slow runtime
    [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  (runtime, sim)

let test_runtime_pipeline () =
  let runtime, sim = line_world () in
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  let outputs = Runtime.outputs runtime in
  check Alcotest.int "one output" 1 (List.length outputs);
  check tuple_t "recv at n2" (Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"hello")
    (fst (List.hd outputs));
  let stats = Runtime.stats runtime in
  check Alcotest.int "injected" 1 stats.injected;
  check Alcotest.int "fired" 3 stats.fired;
  check Alcotest.int "outputs" 1 stats.outputs;
  check Alcotest.int "no dead ends" 0 stats.dead_ends;
  (* Two inter-node shipments of (tuple + overhead). *)
  check Alcotest.bool "bytes on the wire" true (Dpc_net.Sim.total_bytes sim > 0)

let test_runtime_dead_end () =
  let runtime, _ = line_world () in
  (* No route for destination 1 at node 0 and 0 <> 1: the event dies. *)
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:1 ~payload:"x");
  Runtime.run runtime;
  check Alcotest.int "no outputs" 0 (Runtime.stats runtime).outputs;
  check Alcotest.int "one dead end" 1 (Runtime.stats runtime).dead_ends

let test_runtime_rejects_non_event () =
  let runtime, _ = line_world () in
  Alcotest.check_raises "wrong relation"
    (Invalid_argument "Runtime.inject: expected a \"packet\" tuple, got \"route\"") (fun () ->
      Runtime.inject runtime (route ~at:0 ~dst:2 ~next:1))

let test_runtime_sig_broadcast_reaches_all_nodes () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let seen = ref [] in
  let hook = { Prov_hook.null with on_slow_update = (fun ~node ~op:_ _ -> seen := node :: !seen) } in
  let runtime = Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook () in
  Runtime.insert_slow_runtime runtime (route ~at:1 ~dst:2 ~next:2);
  Runtime.run runtime;
  check (Alcotest.list Alcotest.int) "all nodes signalled" [ 0; 1; 2 ]
    (List.sort compare !seen);
  check Alcotest.bool "tuple stored" true (Db.mem (Runtime.db runtime 1) (route ~at:1 ~dst:2 ~next:2))

let test_runtime_duplicate_insert_is_silent () =
  (* §5.5: re-inserting a slow tuple already present must neither broadcast
     [sig] nor charge any message accounting. *)
  let runtime, sim = line_world () in
  let msgs () =
    Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.shipped_msgs"
  in
  check Alcotest.int "load_slow ships nothing" 0 (msgs ());
  Runtime.insert_slow_runtime runtime (route ~at:0 ~dst:2 ~next:1);
  Runtime.run runtime;
  check Alcotest.int "duplicate insert ships nothing" 0 (msgs ());
  check Alcotest.int "no bytes on the wire" 0 (Dpc_net.Sim.total_bytes sim);
  Runtime.insert_slow_runtime runtime (route ~at:0 ~dst:5 ~next:1);
  Runtime.run runtime;
  check Alcotest.bool "fresh insert broadcasts" true (msgs () > 0)

let test_runtime_delete_broadcasts_sig () =
  (* §5.5 fix: a deletion is a slow-table update and must broadcast [sig]
     to every node, tagged with the delete op. *)
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let seen = ref [] in
  let hook =
    { Prov_hook.null with
      on_slow_update = (fun ~node ~op _ -> seen := (node, op) :: !seen)
    }
  in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook ()
  in
  Runtime.load_slow runtime [ route ~at:1 ~dst:2 ~next:2 ];
  (* Deleting an absent tuple is a no-op: no signal, returns false. *)
  check Alcotest.bool "absent delete" false
    (Runtime.delete_slow_runtime runtime (route ~at:1 ~dst:9 ~next:2));
  Runtime.run runtime;
  check Alcotest.int "absent delete is silent" 0 (List.length !seen);
  check Alcotest.bool "present delete" true
    (Runtime.delete_slow_runtime runtime (route ~at:1 ~dst:2 ~next:2));
  Runtime.run runtime;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "delete signalled on every node"
    [ (0, true); (1, true); (2, true) ]
    (List.sort compare
       (List.map (fun (n, op) -> (n, op = Prov_hook.Slow_delete)) !seen));
  check Alcotest.bool "tuple gone" false
    (Db.mem (Runtime.db runtime 1) (route ~at:1 ~dst:2 ~next:2));
  check Alcotest.bool "sig bytes accounted" true
    (Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.shipped_msgs" > 0)

let test_runtime_record_outputs_off () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ~record_outputs:false ()
  in
  Runtime.load_slow runtime [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Runtime.run runtime;
  check Alcotest.int "outputs not retained" 0 (List.length (Runtime.outputs runtime));
  check Alcotest.int "stats still count" 1 (Runtime.stats runtime).outputs;
  check Alcotest.int "metrics still count" 1
    (Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.outputs")

let test_runtime_multipath_derivations () =
  (* Two routes at n0 toward n2: the packet is duplicated (both derivations
     execute), and two recv outputs arrive. *)
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  Dpc_net.Topology.add_link topo 0 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime = Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null () in
  Runtime.load_slow runtime
    [ route ~at:0 ~dst:2 ~next:1; route ~at:0 ~dst:2 ~next:2; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Runtime.run runtime;
  (* The two copies produce the same recv tuple; both executions complete. *)
  check Alcotest.int "two deliveries" 2 (Runtime.stats runtime).outputs

(* The quickstart pipeline must report work through the metrics registry
   under either transport backend: the runtime records into per-node
   registries (Node.metrics) and [metrics_snapshot] merges them. *)
let run_quickstart transport =
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ()
  in
  Runtime.load_slow runtime [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  runtime

let check_metrics_nonzero runtime =
  let s = Runtime.metrics_snapshot runtime in
  check Alcotest.int "injected" 1 (Dpc_util.Metrics.counter s "runtime.injected");
  check Alcotest.int "fired" 3 (Dpc_util.Metrics.counter s "runtime.fired");
  check Alcotest.int "outputs" 1 (Dpc_util.Metrics.counter s "runtime.outputs");
  check Alcotest.bool "shipped msgs" true
    (Dpc_util.Metrics.counter s "runtime.shipped_msgs" > 0);
  check Alcotest.bool "shipped bytes" true
    (Dpc_util.Metrics.counter s "runtime.shipped_bytes" > 0)

let test_runtime_metrics_sim () =
  let runtime, _ = line_world () in
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  check_metrics_nonzero runtime

let test_runtime_metrics_direct () =
  let runtime = run_quickstart (Dpc_net.Transport.direct ~nodes:3 ()) in
  check_metrics_nonzero runtime;
  (* Same logical pipeline: stats agree with the sim-backed run. *)
  check Alcotest.int "one output" 1 (Runtime.stats runtime).outputs;
  check Alcotest.int "fired" 3 (Runtime.stats runtime).fired

let test_runtime_metrics_live_on_nodes () =
  (* Snapshots are per node: n0 forwards (fires), n2 receives (output). *)
  let runtime = run_quickstart (Dpc_net.Transport.direct ~nodes:3 ()) in
  let at n = Dpc_engine.Node.metrics (Runtime.node runtime n) in
  check Alcotest.int "n0 fired" 1 (Dpc_util.Metrics.counter_value (at 0) "runtime.fired");
  check Alcotest.int "n2 output" 1 (Dpc_util.Metrics.counter_value (at 2) "runtime.outputs");
  check Alcotest.int "n2 no injections" 0
    (Dpc_util.Metrics.counter_value (at 2) "runtime.injected")

(* ------------------------------------------------------------------ *)
(* Allocation budgets: minor-heap words of one call on the ingest path,
   after a warm-up call has created its counters and indexes. Each budget
   is the figure measured when the path was made allocation-lean, plus
   10 % rounded up, so a closure, option or list brought back into one of
   these paths fails here. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let check_budget name ~measured f =
  let budget = ((measured * 11) + 9) / 10 in
  f ();
  let words = minor_words f in
  Printf.printf "%s: %d words (budget %d)\n" name words budget;
  if words > budget then Alcotest.failf "%s allocates %d words, budget %d" name words budget

let test_budget_counters () =
  let node = Node.create ~id:0 in
  let m = Node.metrics node in
  check_budget "Metrics.incr" ~measured:0 (fun () -> Dpc_util.Metrics.incr m "runtime.fired");
  check_budget "Metrics.add" ~measured:0 (fun () ->
    Dpc_util.Metrics.add m "runtime.shipped_bytes" 640);
  check_budget "Node.tick" ~measured:0 (fun () -> Node.tick node "runtime.fired");
  check_budget "Node.add" ~measured:0 (fun () -> Node.add node "runtime.shipped_bytes" 640)

let test_budget_fire_into () =
  let db = Db.create () in
  List.iter
    (fun d -> ignore (Db.insert db (route ~at:0 ~dst:d ~next:1)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:(String.make 500 'x') in
  let r1 = Eval.plan ~env:Env.empty forwarding_r1 and r2 = Eval.plan ~env:Env.empty forwarding_r2 in
  let scratch = Eval.scratch [ r1; r2 ] in
  check Alcotest.int "r1 derives one head" 1 (Eval.fire_into scratch ~db ~plan:r1 ~event);
  (* The head's arguments (5) and tuple (5), and its slow list (3). *)
  check_budget "fire_into r1 (8 routes)" ~measured:13 (fun () ->
    ignore (Eval.fire_into scratch ~db ~plan:r1 ~event));
  (* Nothing. *)
  check_budget "fire_into r2 (no match)" ~measured:0 (fun () ->
    ignore (Eval.fire_into scratch ~db ~plan:r2 ~event))

let test_budget_sim_send () =
  let _, sim = line_world () in
  let k () = () in
  (* The boxed due time handed to the event queue (2). *)
  check_budget "Sim.send one hop" ~measured:2 (fun () ->
    Dpc_net.Sim.send sim ~src:0 ~dst:1 ~bytes:600 k);
  Dpc_net.Sim.run sim;
  check Alcotest.int "both delivered" 2 (Dpc_net.Sim.events_processed sim)

(* The fault-tolerance stack, one message at a time. *)

let test_budget_hashed_decide () =
  let decide =
    Dpc_net.Transport.hashed_decide
      ~config:(Dpc_net.Transport.fault_config ~drop:0.02 ~duplicate:0.01 ())
      ~seed:7 ~nodes:4
  in
  (* The SplitMix hash stays unboxed: nothing. *)
  check_budget "Transport.hashed_decide" ~measured:0 (fun () ->
    ignore (decide ~src:1 ~dst:2 ~bytes:600))

let test_budget_reliable_message () =
  let rel = Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:2 ()) in
  let tr = Dpc_net.Reliable.transport rel in
  let k () = () in
  (* The message record (10); the closures for its arrival (5), its ack
     timer (6, with the recursive group's environment) and its ack (4);
     the timer's boxed delay (2); and the boxed due times of the three
     queued events (6). *)
  check_budget "Reliable message, send through ack" ~measured:33 (fun () ->
    Dpc_net.Transport.send tr ~src:0 ~dst:1 ~bytes:600 k;
    Dpc_net.Transport.run tr);
  check Alcotest.int "each acked once" 2 (Dpc_net.Reliable.stats rel).acks

let test_budget_durable_append () =
  let delp = Dpc_apps.Forwarding.delp () and env = Dpc_apps.Forwarding.env in
  let backend = Dpc_core.Backend.make Dpc_core.Backend.S_advanced ~delp ~env ~nodes:3 in
  let transport, control = Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:3 ()) in
  let runtime =
    Runtime.create ~transport ~delp ~env ~hook:(Dpc_core.Backend.hook backend)
      ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  let durable =
    Dpc_core.Durable.attach ~backend ~runtime ~control
      ~config:{ Dpc_core.Durable.checkpoint_every = 0; rebase_every = 0 } ()
  in
  let entry =
    Journal.Arrival
      {
        event = pkt ~at:1 ~src:0 ~dst:2 ~payload:(String.make 500 'x');
        meta =
          {
            Prov_hook.evid = Dpc_util.Sha1.digest_string "input";
            exist_flag = false;
            eqkey = Some (Dpc_util.Sha1.digest_string "class");
            prev = Some (0, Dpc_util.Sha1.digest_string "rid");
          };
      }
  in
  let append () =
    Dpc_core.Durable.journal durable 1 entry;
    Dpc_core.Durable.flush_wal durable 1
  in
  (* Grow the node's wal buffer past two entries, then cut: the cut
     empties the buffer and keeps its capacity. *)
  for _ = 1 to 4 do
    append ()
  done;
  Dpc_core.Durable.checkpoint_now durable 1;
  (* The entry's bytes go straight into the buffer, and the flush only
     moves an offset: nothing. *)
  check_budget "Durable arrival append + flush" ~measured:0 append;
  check Alcotest.int "two entries in the wal" 2 (Dpc_core.Durable.node_stats durable 1).wal_entries

(* The record path: the identifiers every firing hashes, and one firing's
   provenance record, under each scheme. *)

(* [f] applied to [xs.(0)] on the warm-up call and [xs.(1)] on the
   measured one: a fresh value each time, built outside the measurement. *)
let each_fresh xs f =
  let next = ref 0 in
  fun () ->
    let x = xs.(!next) in
    incr next;
    f x

(* Checkpoint cuts: node 2 of [Fixture_world] under Advanced, at the
   fixture scenario's cut (after batch 1) and at its delta (after batch 2
   and the slow delete of tag "x"). The warm-up cut runs on a second,
   identical world, so the measured cut finds the domain's scratch writer
   and sort arrays grown and still has its own changes to write. Every
   blob is under 2 KB, so each word a cut allocates is a minor-heap word.
   A cut allocates its blob and a few closures per table; nothing per
   row. Each budget notes what the list-based writers allocated. *)
let cut_worlds ~delta =
  Array.init 2 (fun _ ->
    let w = Fixture_world.create Dpc_core.Backend.S_advanced in
    Fixture_world.batch1 w;
    if delta then begin
      ignore (Dpc_core.Backend.checkpoint_node w.backend 2);
      ignore (Db.snapshot w.db);
      Fixture_world.batch2 w;
      ignore (Db.remove w.db (Fixture_world.tag ~at:2 "x"))
    end;
    w)

let test_budget_cut name ~delta ~measured cut () =
  check_budget name ~measured (each_fresh (cut_worlds ~delta) (fun w -> ignore (cut w)))

let test_budget_channel_snapshot () =
  let rel = Fixture_world.channels () in
  (* The 21-byte blob (4) and the closures of two sorted lists; the
     list-based writer took 74. *)
  check_budget "Reliable.snapshot" ~measured:45 (fun () ->
    ignore (Dpc_net.Reliable.snapshot rel ~node:1))

let dns_request ~at ~rqid =
  Tuple.make "request"
    [ Value.Addr at; Value.Str "www.example.com"; Value.Addr 7; Value.Int rqid ]

let dns_rule name =
  List.find (fun (r : Ast.rule) -> String.equal r.name name) (Dpc_apps.Dns.delp ()).program.rules

let test_budget_fire_into_dns () =
  let r2 = Eval.plan ~env:Dpc_apps.Dns.env (dns_rule "r2") in
  let db = Db.create () in
  (* Of four name servers at node 1 only the first covers www.example.com:
     the others are another domain, a suffix without the label boundary and
     a domain longer than the URL. *)
  List.iter
    (fun (domain, server) ->
      ignore (Db.insert db (Dpc_apps.Dns.name_server ~at:1 ~domain ~server)))
    [ ("example.com", 2); ("example.org", 3); ("ample.com", 4); ("www.example.com.au", 5) ];
  let scratch = Eval.scratch [ r2 ] and event = dns_request ~at:1 ~rqid:0 in
  check Alcotest.int "one server matches" 1 (Eval.fire_into scratch ~db ~plan:r2 ~event);
  check tuple_t "to the matching server" (dns_request ~at:2 ~rqid:0)
    (Eval.derived_head scratch 0);
  (* The head's arguments (5) and tuple (5), and its slow list (3): the
     three rejected candidates allocate nothing. *)
  check_budget "fire_into DNS r2 (4 servers)" ~measured:13 (fun () ->
    ignore (Eval.fire_into scratch ~db ~plan:r2 ~event))

let test_budget_is_sub_domain () =
  match Env.lookup2 Dpc_apps.Dns.env "f_isSubDomain" with
  | None -> Alcotest.fail "f_isSubDomain has no two-argument form"
  | Some f ->
      let dm = Value.Str "example.com" and url = Value.Str "www.example.com" in
      check Alcotest.bool "covers" true (Value.equal (Value.Bool true) (f dm url));
      (* Nothing: the suffix is compared in place and the result is a
         static constant. *)
      check_budget "f_isSubDomain(DM, URL)" ~measured:0 (fun () -> ignore (f dm url))

let test_budget_tuple_digest () =
  (* The digest (4) and nothing else. *)
  check_budget "Tuple.digest of a DNS request" ~measured:4
    (each_fresh (Array.init 2 (fun rqid -> dns_request ~at:1 ~rqid)) (fun t ->
      ignore (Tuple.digest t)));
  let payload = String.make 500 'x' in
  ignore (Tuple.digest (pkt ~at:0 ~src:0 ~dst:2 ~payload));
  (* The payload's own digest comes from the cache: again only the
     result (4). *)
  check_budget "Tuple.digest of a 500-byte packet" ~measured:4
    (each_fresh (Array.init 2 (fun at -> pkt ~at ~src:0 ~dst:2 ~payload)) (fun t ->
      ignore (Tuple.digest t)))

let test_budget_key_hash () =
  let keys = Dpc_analysis.Equi_keys.compute (Dpc_apps.Forwarding.delp ()) in
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:(String.make 500 'x') in
  (* The digest (4). *)
  check_budget "Equi_keys.key_hash of a packet" ~measured:4 (fun () ->
    ignore (Dpc_analysis.Equi_keys.key_hash keys event))

(* DNS r2 at node 1 for a request that arrived from node 0, as an
   equivalence miss: one name server row, the same on every firing, and a
   fresh request each time, whose vid is still to take.
   ExSPAN (53): the request's vid (4), its prov row (5), table cell (7)
   and side-store cell (4), the body vids (6), the rid (4), the ruleExec
   row (6) and cell (7), and the returned meta with its back-pointer (10).
   Basic (36): the request's vid (4), the slow vids (3), the rid (4) and
   its tail (2), the ruleExec row (6) and cell (7), and the meta (10).
   Advanced (32): as Basic, less the request's vid, which it does not
   record. Advanced+interclass (33): its ruleExecNode rid ignores the
   chain, so the node row repeats and only the link row and cell are new.
   With dirty tracking on ([~track], as under [Durable] with delta cuts),
   each newly inserted row or side entry adds its dirty-list cell (3):
   ExSPAN 62, Basic 39, Advanced 35, Advanced+interclass 36. *)
let test_budget_on_fire ?(track = false) name scheme ~measured () =
  let delp = Dpc_apps.Dns.delp () and rule = dns_rule "r2" in
  let backend = Dpc_core.Backend.make scheme ~delp ~env:Dpc_apps.Dns.env ~nodes:3 in
  Dpc_core.Backend.set_dirty_tracking backend track;
  let hook = Dpc_core.Backend.hook backend in
  let slow = [ Dpc_apps.Dns.name_server ~at:1 ~domain:"example.com" ~server:2 ] in
  let firing rqid =
    let event = dns_request ~at:1 ~rqid and head = dns_request ~at:2 ~rqid in
    let meta =
      {
        Prov_hook.evid = Dpc_util.Sha1.digest_string "input";
        exist_flag = false;
        eqkey = Some (Dpc_util.Sha1.digest_string "class");
        prev = Some (0, Dpc_util.Sha1.digest_string (string_of_int rqid));
      }
    in
    (event, head, meta)
  in
  check_budget name ~measured
    (each_fresh (Array.init 2 firing) (fun (event, head, meta) ->
      ignore (hook.on_fire ~node:1 ~rule ~event ~slow ~head meta)))

let () =
  Alcotest.run "dpc_engine"
    [
      ( "db",
        [
          Alcotest.test_case "set semantics" `Quick test_db_set_semantics;
          Alcotest.test_case "deterministic scan" `Quick test_db_scan_deterministic;
          Alcotest.test_case "size bytes" `Quick test_db_size_bytes_grows;
          Alcotest.test_case "incremental size bytes" `Quick test_db_size_bytes_incremental;
          Alcotest.test_case "keyed lookup" `Quick test_db_lookup_indexed;
          Alcotest.test_case "bucket order" `Quick test_db_bucket_order;
        ] );
      ( "eval",
        [
          Alcotest.test_case "match atom" `Quick test_eval_match_atom;
          Alcotest.test_case "repeated variables" `Quick test_eval_match_atom_consistency;
          Alcotest.test_case "join" `Quick test_eval_fire_join;
          Alcotest.test_case "multiple matches" `Quick test_eval_fire_multiple_matches;
          Alcotest.test_case "comparison" `Quick test_eval_fire_comparison;
          Alcotest.test_case "wrong event relation" `Quick test_eval_fire_wrong_event_relation;
          Alcotest.test_case "assignment and arithmetic" `Quick test_eval_assignment_and_arith;
          Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
          Alcotest.test_case "udf" `Quick test_eval_udf;
          Alcotest.test_case "unknown udf" `Quick test_eval_unknown_udf;
          Alcotest.test_case "string ordering" `Quick test_eval_string_ordering;
          Alcotest.test_case "fire_with_slow rederives" `Quick test_fire_with_slow_rederives;
          Alcotest.test_case "fire_with_slow rejects mismatch" `Quick
            test_fire_with_slow_rejects_mismatched;
          Alcotest.test_case "fire_with_slow wrong count" `Quick test_fire_with_slow_wrong_count;
          Alcotest.test_case "planned fire matches naive" `Quick test_fire_planned_matches_fire;
          Alcotest.test_case "planned derivation order" `Quick test_fire_planned_order;
          Alcotest.test_case "planned = naive on DNS" `Quick test_fire_into_matches_fire_dns;
        ] );
      ("env", [ Alcotest.test_case "shadowing" `Quick test_env_shadowing ]);
      ( "runtime",
        [
          Alcotest.test_case "pipeline" `Quick test_runtime_pipeline;
          Alcotest.test_case "dead end" `Quick test_runtime_dead_end;
          Alcotest.test_case "rejects non-event" `Quick test_runtime_rejects_non_event;
          Alcotest.test_case "sig broadcast" `Quick test_runtime_sig_broadcast_reaches_all_nodes;
          Alcotest.test_case "duplicate insert silent" `Quick test_runtime_duplicate_insert_is_silent;
          Alcotest.test_case "delete broadcasts sig" `Quick test_runtime_delete_broadcasts_sig;
          Alcotest.test_case "record_outputs off" `Quick test_runtime_record_outputs_off;
          Alcotest.test_case "multipath derivations" `Quick test_runtime_multipath_derivations;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quickstart counters (sim)" `Quick test_runtime_metrics_sim;
          Alcotest.test_case "quickstart counters (direct)" `Quick test_runtime_metrics_direct;
          Alcotest.test_case "per-node attribution" `Quick test_runtime_metrics_live_on_nodes;
        ] );
      ( "allocation budgets",
        [
          Alcotest.test_case "counters on an existing name" `Quick test_budget_counters;
          Alcotest.test_case "fire_into of forwarding r1" `Quick test_budget_fire_into;
          Alcotest.test_case "fire_into of DNS r2" `Quick test_budget_fire_into_dns;
          Alcotest.test_case "f_isSubDomain two-arg form" `Quick test_budget_is_sub_domain;
          Alcotest.test_case "one-hop Sim.send" `Quick test_budget_sim_send;
          Alcotest.test_case "Transport.hashed_decide" `Quick test_budget_hashed_decide;
          Alcotest.test_case "one Reliable message, send through ack" `Quick
            test_budget_reliable_message;
          Alcotest.test_case "Durable arrival append and flush" `Quick
            test_budget_durable_append;
          (* List-based writers: 184. *)
          Alcotest.test_case "Db.snapshot cut" `Quick
            (test_budget_cut "Db.snapshot" ~delta:false ~measured:59 (fun (w : Fixture_world.t) ->
               Db.snapshot w.db));
          (* List-based writers: 78. *)
          Alcotest.test_case "Db.snapshot_delta cut" `Quick
            (test_budget_cut "Db.snapshot_delta" ~delta:true ~measured:23
               (fun (w : Fixture_world.t) -> Db.snapshot_delta w.db));
          Alcotest.test_case "Reliable.snapshot" `Quick test_budget_channel_snapshot;
          (* List-based writers: 518. *)
          Alcotest.test_case "Advanced checkpoint_node cut" `Quick
            (test_budget_cut "Advanced checkpoint_node" ~delta:false ~measured:262
               (fun (w : Fixture_world.t) -> Dpc_core.Backend.checkpoint_node w.backend 2));
          (* List-based writers: 406. *)
          Alcotest.test_case "Advanced checkpoint_delta cut" `Quick
            (test_budget_cut "Advanced checkpoint_delta" ~delta:true ~measured:208
               (fun (w : Fixture_world.t) -> Dpc_core.Backend.checkpoint_delta w.backend 2));
          Alcotest.test_case "Tuple.digest" `Quick test_budget_tuple_digest;
          Alcotest.test_case "Equi_keys.key_hash" `Quick test_budget_key_hash;
          Alcotest.test_case "on_fire of DNS r2, ExSPAN" `Quick
            (test_budget_on_fire "ExSPAN on_fire r2" Dpc_core.Backend.S_exspan ~measured:53);
          Alcotest.test_case "on_fire of DNS r2, Basic" `Quick
            (test_budget_on_fire "Basic on_fire r2" Dpc_core.Backend.S_basic ~measured:36);
          Alcotest.test_case "on_fire of DNS r2, Advanced" `Quick
            (test_budget_on_fire "Advanced on_fire r2 (miss)" Dpc_core.Backend.S_advanced
               ~measured:32);
          Alcotest.test_case "on_fire DNS r2, interclass" `Quick
            (test_budget_on_fire "Advanced+interclass on_fire r2 (miss)"
               Dpc_core.Backend.S_advanced_interclass ~measured:33);
          Alcotest.test_case "tracked on_fire, ExSPAN" `Quick
            (test_budget_on_fire ~track:true "ExSPAN on_fire r2, tracked"
               Dpc_core.Backend.S_exspan ~measured:62);
          Alcotest.test_case "tracked on_fire, Basic" `Quick
            (test_budget_on_fire ~track:true "Basic on_fire r2, tracked" Dpc_core.Backend.S_basic
               ~measured:39);
          Alcotest.test_case "tracked on_fire, Advanced" `Quick
            (test_budget_on_fire ~track:true "Advanced on_fire r2 (miss), tracked"
               Dpc_core.Backend.S_advanced ~measured:35);
          Alcotest.test_case "tracked on_fire, interclass" `Quick
            (test_budget_on_fire ~track:true "Advanced+interclass on_fire r2 (miss), tracked"
               Dpc_core.Backend.S_advanced_interclass ~measured:36);
        ] );
    ]
