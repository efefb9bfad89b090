(* Tests for dpc_workload: pair selection, the forwarding driver on a real
   transit-stub topology, the DNS workload generator and driver, and the
   measurement helpers. These double as scaled-down end-to-end runs of the
   evaluation scenarios. *)

open Dpc_workload

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pairs *)

let test_pairs_distinct () =
  let rng = Dpc_util.Rng.create ~seed:3 in
  let pairs = Pairs.select ~rng ~eligible:(List.init 20 (fun i -> i)) ~count:30 in
  check Alcotest.int "count" 30 (List.length pairs);
  check Alcotest.int "distinct" 30 (List.length (List.sort_uniq compare pairs));
  List.iter (fun (s, d) -> if s = d then Alcotest.fail "self pair") pairs

let test_pairs_errors () =
  let rng = Dpc_util.Rng.create ~seed:3 in
  Alcotest.check_raises "too few nodes"
    (Invalid_argument "Pairs.select: need at least two eligible nodes") (fun () ->
      ignore (Pairs.select ~rng ~eligible:[ 1 ] ~count:1));
  Alcotest.check_raises "too many pairs"
    (Invalid_argument "Pairs.select: more pairs requested than exist") (fun () ->
      ignore (Pairs.select ~rng ~eligible:[ 1; 2 ] ~count:3))

(* ------------------------------------------------------------------ *)
(* Forwarding driver on the paper's transit-stub topology *)

let transit_stub_world () =
  let rng = Dpc_util.Rng.create ~seed:17 in
  let ts = Dpc_net.Transit_stub.generate ~rng Dpc_net.Transit_stub.paper_params in
  let routing = Dpc_net.Routing.compute ts.topology in
  (ts, routing, rng)

let test_forwarding_driver_delivers_everything () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:10 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_advanced ~topology:ts.topology
      ~routing ~pairs ()
  in
  let injected = Forwarding_driver.inject_stream d ~rate_per_pair:5.0 ~duration:2.0 ~payload_size:100 in
  Forwarding_driver.run d;
  check Alcotest.int "all delivered" injected (List.length (Forwarding_driver.received d))

let test_forwarding_driver_storage_ordering () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:10 in
  let total scheme =
    let d = Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs () in
    ignore (Forwarding_driver.inject_stream d ~rate_per_pair:5.0 ~duration:2.0 ~payload_size:100);
    Forwarding_driver.run d;
    Measure.total_provenance_bytes d.backend
  in
  let ex = total Dpc_core.Backend.S_exspan in
  let ba = total Dpc_core.Backend.S_basic in
  let ad = total Dpc_core.Backend.S_advanced in
  check Alcotest.bool "basic < exspan" true (ba < ex);
  check Alcotest.bool "advanced << basic" true (ad * 2 < ba)

let test_forwarding_driver_inject_total_even_split () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:4 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_basic ~topology:ts.topology ~routing
      ~pairs ()
  in
  let injected = Forwarding_driver.inject_total d ~total:40 ~duration:1.0 ~payload_size:64 in
  Forwarding_driver.run d;
  check Alcotest.int "injected" 40 injected;
  check Alcotest.int "delivered" 40 (List.length (Forwarding_driver.received d))

let test_forwarding_driver_queries () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:5 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_advanced ~topology:ts.topology
      ~routing ~pairs ()
  in
  ignore (Forwarding_driver.inject_stream d ~rate_per_pair:2.0 ~duration:1.0 ~payload_size:100);
  Forwarding_driver.run d;
  let results =
    Forwarding_driver.query_random_outputs d ~rng ~cost:Dpc_core.Query_cost.emulation ~count:20
  in
  check Alcotest.int "20 queries" 20 (List.length results);
  List.iter
    (fun (r : Dpc_core.Query_result.t) ->
      check Alcotest.bool "found a tree" true (r.trees <> []);
      check Alcotest.bool "positive latency" true (r.latency > 0.0))
    results

(* ------------------------------------------------------------------ *)
(* DNS workload *)

let test_dns_spec_well_formed () =
  let rng = Dpc_util.Rng.create ~seed:23 in
  let spec = Dns_workload.paper_spec ~rng () in
  check Alcotest.int "100 servers" 100 (Array.length spec.domains);
  check Alcotest.int "38 urls" 38 (Array.length spec.urls);
  check Alcotest.int "10 clients" 10 (Array.length spec.clients);
  check Alcotest.string "root domain empty" "" spec.domains.(0);
  (* Every URL is a subdomain of each of its authority's ancestors. *)
  Array.iteri
    (fun k auth ->
      let url = spec.urls.(k) in
      let rec up v =
        if v >= 0 then begin
          if not (Dpc_apps.Dns.For_testing.is_sub_domain spec.domains.(v) url) then
            Alcotest.failf "url %s not under ancestor %s" url spec.domains.(v);
          up spec.tree.parent.(v)
        end
      in
      up auth)
    spec.authority;
  (* Domains are unique. *)
  let ds = Array.to_list spec.domains in
  check Alcotest.int "unique domains" (List.length ds)
    (List.length (List.sort_uniq compare ds))

let test_dns_driver_resolves_everything () =
  let rng = Dpc_util.Rng.create ~seed:23 in
  let spec = Dns_workload.generate ~rng ~servers:40 ~backbone_depth:10 ~urls:12 ~clients:5 in
  let t = Dns_workload.setup ~scheme:Dpc_core.Backend.S_advanced spec () in
  let injected = Dns_workload.inject_requests t ~rng ~rate:50.0 ~duration:1.0 in
  Dns_workload.run t;
  check Alcotest.int "every request answered" injected (List.length (Dns_workload.replies t));
  check Alcotest.int "no dead ends" 0 (Dpc_engine.Runtime.stats t.runtime).dead_ends

let test_dns_driver_storage_ordering () =
  let rng0 = Dpc_util.Rng.create ~seed:29 in
  let spec = Dns_workload.generate ~rng:rng0 ~servers:40 ~backbone_depth:10 ~urls:12 ~clients:5 in
  let total scheme =
    let rng = Dpc_util.Rng.create ~seed:31 in
    let t = Dns_workload.setup ~scheme spec () in
    ignore (Dns_workload.inject_requests t ~rng ~rate:100.0 ~duration:1.0);
    Dns_workload.run t;
    Measure.total_provenance_bytes t.backend
  in
  let ex = total Dpc_core.Backend.S_exspan in
  let ba = total Dpc_core.Backend.S_basic in
  let ad = total Dpc_core.Backend.S_advanced in
  check Alcotest.bool "basic < exspan" true (ba < ex);
  check Alcotest.bool "advanced < basic" true (ad < ba)

let test_dns_zipf_concentrates_requests () =
  (* With a Zipf workload the head URL receives far more requests than the
     tail; compression benefits concentrate correspondingly. *)
  let rng = Dpc_util.Rng.create ~seed:37 in
  let spec = Dns_workload.generate ~rng ~servers:40 ~backbone_depth:10 ~urls:10 ~clients:3 in
  let t = Dns_workload.setup ~scheme:Dpc_core.Backend.S_exspan spec () in
  ignore (Dns_workload.inject_requests t ~rng ~rate:300.0 ~duration:1.0);
  Dns_workload.run t;
  let by_url = Hashtbl.create 16 in
  List.iter
    (fun reply ->
      let url = Dpc_ndlog.Value.For_testing.str_exn (Dpc_ndlog.Tuple.arg reply 1) in
      Hashtbl.replace by_url url (1 + Option.value ~default:0 (Hashtbl.find_opt by_url url)))
    (Dns_workload.replies t);
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) by_url [] |> List.sort compare |> List.rev in
  match counts with
  | top :: _ ->
      check Alcotest.bool "head URL dominates" true
        (float_of_int top > 0.15 *. 300.0)
  | [] -> Alcotest.fail "no replies"

(* ------------------------------------------------------------------ *)
(* Query driver (seeded Zipfian storms) *)

let storm_world () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:5 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_advanced ~topology:ts.topology
      ~routing ~pairs ()
  in
  ignore (Forwarding_driver.inject_stream d ~rate_per_pair:4.0 ~duration:2.0 ~payload_size:100);
  Forwarding_driver.run d;
  (d, Array.of_list (Forwarding_driver.received d))

let test_query_driver_deterministic () =
  let d, targets = storm_world () in
  let storm seed =
    Query_driver.storm
      (Query_driver.create ~backend:d.Forwarding_driver.backend
         ~routing:d.Forwarding_driver.routing ~targets ~seed ())
      ~count:50 ()
  in
  let a = storm 11 and b = storm 11 in
  check Alcotest.int "issued" 50 a.Query_driver.issued;
  check Alcotest.int "all complete" 50 a.Query_driver.complete;
  check Alcotest.int "no partials" 0 a.Query_driver.partial;
  check Alcotest.int "no empties" 0 a.Query_driver.empty;
  check
    (Alcotest.list (Alcotest.float 1e-12))
    "same seed, same storm" a.Query_driver.latencies b.Query_driver.latencies;
  let c = storm 12 in
  if a.Query_driver.latencies = c.Query_driver.latencies then
    Alcotest.fail "different seeds issued identical 50-query storms";
  let p = Query_driver.percentiles_ms a in
  check Alcotest.bool "percentiles ordered" true (p.p50 <= p.p90 && p.p90 <= p.p99);
  check Alcotest.bool "positive latencies" true (p.p50 > 0.0)

let test_query_driver_open_loop () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:5 in
  (* Targets come from a completed twin world; the storm then rides the
     live transport of a second, still-running one. *)
  let _, targets = storm_world () in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_advanced ~topology:ts.topology
      ~routing ~pairs ()
  in
  ignore (Forwarding_driver.inject_stream d ~rate_per_pair:4.0 ~duration:2.0 ~payload_size:100);
  let driver =
    Query_driver.create ~backend:d.Forwarding_driver.backend
      ~routing:d.Forwarding_driver.routing ~targets ~seed:11 ()
  in
  let collect =
    Query_driver.schedule_storm driver ~transport:d.Forwarding_driver.transport ~start:0.5
      ~rate:100.0 ~count:30 ()
  in
  (* Nothing fires until the transport runs. *)
  check Alcotest.int "armed, not fired" 0 (collect ()).Query_driver.issued;
  Forwarding_driver.run d;
  let o = collect () in
  check Alcotest.int "all fired during the run" 30 o.Query_driver.issued;
  check Alcotest.int "all complete" 30 o.Query_driver.complete

let test_query_driver_errors () =
  let d, targets = storm_world () in
  let backend = d.Forwarding_driver.backend and routing = d.Forwarding_driver.routing in
  Alcotest.check_raises "empty targets"
    (Invalid_argument "Query_driver.create: no targets") (fun () ->
      ignore (Query_driver.create ~backend ~routing ~targets:[||] ()));
  let driver = Query_driver.create ~backend ~routing ~targets ~seed:1 () in
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Query_driver.schedule_storm: rate must be positive") (fun () ->
      ignore
        (Query_driver.schedule_storm driver ~transport:d.Forwarding_driver.transport
           ~start:0.0 ~rate:0.0 ~count:1 ()
          : unit -> Query_driver.outcome));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Query_driver.schedule_storm: negative count") (fun () ->
      ignore
        (Query_driver.schedule_storm driver ~transport:d.Forwarding_driver.transport
           ~start:0.0 ~rate:1.0 ~count:(-1) ()
          : unit -> Query_driver.outcome));
  Alcotest.check_raises "percentiles of nothing"
    (Invalid_argument "Query_driver.percentiles_ms: no latencies") (fun () ->
      ignore
        (Query_driver.percentiles_ms
           { Query_driver.issued = 0; complete = 0; partial = 0; empty = 0; latencies = [] }))

(* ------------------------------------------------------------------ *)
(* Measure *)

let test_measure_snapshots () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:3 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_exspan ~topology:ts.topology ~routing
      ~pairs ()
  in
  let series =
    Measure.storage_snapshots ~sim:(Forwarding_driver.sim_exn d) ~every:1.0 ~until:4.0 (fun () ->
      Measure.total_provenance_bytes d.backend)
  in
  ignore (Forwarding_driver.inject_stream d ~rate_per_pair:10.0 ~duration:4.0 ~payload_size:64);
  Forwarding_driver.run d;
  check Alcotest.int "five snapshots" 5 (List.length !series);
  let values = List.map snd !series in
  check Alcotest.bool "monotone growth" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 4) values) (List.tl values));
  check Alcotest.bool "grows overall" true (List.nth values 4 > List.hd values)

let test_measure_per_node_rates () =
  let ts, routing, rng = transit_stub_world () in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:5 in
  let d =
    Forwarding_driver.setup ~scheme:Dpc_core.Backend.S_exspan ~topology:ts.topology ~routing
      ~pairs ()
  in
  ignore (Forwarding_driver.inject_stream d ~rate_per_pair:10.0 ~duration:2.0 ~payload_size:64);
  Forwarding_driver.run d;
  let rates = Measure.per_node_rates ~backend:d.backend ~nodes:100 ~duration:2.0 in
  check Alcotest.int "one rate per node" 100 (List.length rates);
  check Alcotest.bool "some node stores provenance" true (List.exists (fun r -> r > 0.0) rates);
  check Alcotest.bool "no negative rates" true (List.for_all (fun r -> r >= 0.0) rates)

let () =
  Alcotest.run "dpc_workload"
    [
      ( "pairs",
        [
          Alcotest.test_case "distinct" `Quick test_pairs_distinct;
          Alcotest.test_case "errors" `Quick test_pairs_errors;
        ] );
      ( "forwarding driver",
        [
          Alcotest.test_case "delivers everything" `Quick
            test_forwarding_driver_delivers_everything;
          Alcotest.test_case "storage ordering" `Quick test_forwarding_driver_storage_ordering;
          Alcotest.test_case "inject_total" `Quick test_forwarding_driver_inject_total_even_split;
          Alcotest.test_case "queries" `Quick test_forwarding_driver_queries;
        ] );
      ( "dns workload",
        [
          Alcotest.test_case "spec well-formed" `Quick test_dns_spec_well_formed;
          Alcotest.test_case "resolves everything" `Quick test_dns_driver_resolves_everything;
          Alcotest.test_case "storage ordering" `Quick test_dns_driver_storage_ordering;
          Alcotest.test_case "zipf concentration" `Quick test_dns_zipf_concentrates_requests;
        ] );
      ( "query driver",
        [
          Alcotest.test_case "seeded storms are deterministic" `Quick
            test_query_driver_deterministic;
          Alcotest.test_case "open-loop scheduling" `Quick test_query_driver_open_loop;
          Alcotest.test_case "errors" `Quick test_query_driver_errors;
        ] );
      ( "measure",
        [
          Alcotest.test_case "snapshots" `Quick test_measure_snapshots;
          Alcotest.test_case "per-node rates" `Quick test_measure_per_node_rates;
        ] );
    ]
