(* Parallel-vs-sequential determinism oracle for the sharded runtime.

   The claim (see lib/net/shard_sim.mli): a run over Shard_sim with
   ~domains:N produces byte-identical provenance digests to ~domains:1,
   for every maintenance scheme — clean, under hashed fault injection
   (Transport.hashed_decide + Reliable), and under a seeded crash
   schedule with durable recovery. The clean case is exact structural
   determinism (same per-node event order, so also identical runtime
   stats and metrics); the fault/crash cases additionally lean on the
   confluence the chaos suite proves.

   Also here: the shard-partition unit test and the multi-domain
   Metrics hammer (satellite of the same PR). *)

open Dpc_core
open Dpc_testkit

let check = Alcotest.check

let all_schemes =
  [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let domain_counts = [ 1; 2; 4 ]

let tree_sig tree =
  Dpc_ndlog.Tuple.canonical (Prov_tree.event_of tree) ^ "|" ^ Prov_tree.to_string tree

let query w ?evid out =
  Backend.query w.Delp_gen.backend ~cost:Query_cost.free ~routing:w.Delp_gen.routing ?evid out

(* Same observable-state digest the chaos oracle compares. *)
let world_digests w =
  Delp_gen.queryable w.Delp_gen.runtime
  |> List.map (fun (out, evid) ->
       let sigs = List.sort_uniq compare (List.map tree_sig (query w ~evid out).trees) in
       ( (Dpc_ndlog.Tuple.canonical out, Dpc_util.Sha1.to_hex evid),
         Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (String.concat "\n" sigs)) ))
  |> List.sort compare

let render ds =
  String.concat "\n"
    (List.map (fun ((out, evid), d) -> Printf.sprintf "  %s @%s -> %s" out evid d) ds)

let shard_transport ~domains ~nodes =
  Dpc_net.Shard_sim.transport
    (Dpc_net.Shard_sim.create ~latency:0.001 ~jitter:0.0005 ~seed:42 ~domains ~nodes ())

(* ------------------------------------------------------------------ *)
(* Clean runs: exact structural determinism across domain counts. *)

let clean_world instance scheme domains =
  let w =
    Delp_gen.build_world
      ~transport:(shard_transport ~domains ~nodes:instance.Delp_gen.nodes)
      instance scheme
  in
  Delp_gen.run_events w instance.events;
  w

let test_clean_digests () =
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      List.iter
        (fun scheme ->
          let base = clean_world instance scheme 1 in
          let base_digests = world_digests base in
          let base_stats = Dpc_engine.Runtime.stats base.Delp_gen.runtime in
          let base_metrics = Dpc_engine.Runtime.metrics_snapshot base.Delp_gen.runtime in
          List.iter
            (fun domains ->
              let par = clean_world instance scheme domains in
              let par_digests = world_digests par in
              if base_digests <> par_digests then
                Alcotest.failf "seed %d, %s, ~domains:%d diverged from sequential\nseq:\n%s\npar:\n%s\nprogram:\n%s"
                  seed (Backend.scheme_name scheme) domains (render base_digests)
                  (render par_digests) instance.description;
              (* Clean parallel runs are exactly deterministic, not merely
                 confluent: same counters, same event totals. *)
              check
                (Alcotest.testable
                   (fun fmt (s : Dpc_engine.Runtime.stats) ->
                     Format.fprintf fmt "{injected=%d; fired=%d; outputs=%d; dead_ends=%d}"
                       s.injected s.fired s.outputs s.dead_ends)
                   ( = ))
                (Printf.sprintf "seed %d %s d%d runtime stats" seed
                   (Backend.scheme_name scheme) domains)
                base_stats
                (Dpc_engine.Runtime.stats par.Delp_gen.runtime);
              if base_metrics <> Dpc_engine.Runtime.metrics_snapshot par.Delp_gen.runtime then
                Alcotest.failf "seed %d, %s, ~domains:%d: metrics diverged from sequential" seed
                  (Backend.scheme_name scheme) domains)
            (List.tl domain_counts))
        all_schemes)
    [ 1; 2; 3 ]

(* DNS, whose r2 filters name servers through f_isSubDomain: the only
   builtin call among the programs run here, since Delp_gen programs have
   none. Each node's store tables and database, as one SHA-1 per node. *)
let dns_digests scheme domains =
  let module D = Dpc_workload.Dns_workload in
  let rng = Dpc_util.Rng.create ~seed:3 in
  let spec = D.generate ~rng ~servers:40 ~backbone_depth:8 ~urls:12 ~clients:5 in
  let nodes = Dpc_net.Topology.size spec.tree.topology in
  let delp = Dpc_apps.Dns.delp () and env = Dpc_apps.Dns.env in
  let backend = Backend.make scheme ~delp ~env ~nodes in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(shard_transport ~domains ~nodes) ~domains ~delp ~env
      ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime (D.slow_tuples spec);
  for rqid = 1 to 120 do
    let host = spec.clients.(Dpc_util.Rng.int rng (Array.length spec.clients))
    and url = spec.urls.(Dpc_util.Rng.int rng (Array.length spec.urls)) in
    Dpc_engine.Runtime.inject runtime ~delay:(0.0005 *. float_of_int rqid)
      (Dpc_apps.Dns.url ~host ~url ~rqid)
  done;
  Dpc_engine.Runtime.run runtime;
  let stats = Dpc_engine.Runtime.stats runtime in
  check Alcotest.int "every request answered" stats.injected stats.outputs;
  Array.to_list
    (Array.mapi
       (fun i node ->
         Dpc_util.Sha1.to_hex
           (Dpc_util.Sha1.digest_string
              (Backend.digest_node backend i ^ Dpc_engine.Db.canonical (Dpc_engine.Node.db node))))
       (Backend.nodes backend))

let test_dns_digests () =
  List.iter
    (fun scheme ->
      let base = dns_digests scheme 1 in
      List.iter
        (fun domains ->
          check (Alcotest.list Alcotest.string)
            (Printf.sprintf "%s, ~domains:%d" (Backend.scheme_name scheme) domains)
            base (dns_digests scheme domains))
        (List.tl domain_counts))
    all_schemes

(* Same domain count twice: run-to-run determinism (no scheduling or
   hash-order leak into the digest). *)
let test_run_to_run () =
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed:5) in
  List.iter
    (fun scheme ->
      let a = world_digests (clean_world instance scheme 4) in
      let b = world_digests (clean_world instance scheme 4) in
      if a <> b then
        Alcotest.failf "%s: two ~domains:4 runs diverged\nfirst:\n%s\nsecond:\n%s"
          (Backend.scheme_name scheme) (render a) (render b))
    all_schemes

(* ------------------------------------------------------------------ *)
(* Chaos runs: hashed per-channel fault schedule + Reliable. The decider
   consults only (seed, src, dst, channel count), so both runs face the
   same faults; digests must agree across domain counts. *)

let chaos_rates =
  Dpc_net.Transport.fault_config ~drop:0.1 ~duplicate:0.05 ~delay:0.2 ~delay_max:0.01 ()

(* Health invariant shared by every faulted run: at end of run no message
   is still parked on a suspended channel and no channel is still waiting
   on a heal probe — the reliable layer fully drained. *)
let assert_reliable_healthy ~label w =
  match Dpc_engine.Runtime.reliability w.Delp_gen.runtime with
  | None -> Alcotest.failf "%s: runtime lost its reliability layer" label
  | Some r ->
      let s = Dpc_net.Reliable.stats r in
      if s.abandoned > 0 then
        Alcotest.failf "%s: %d messages still parked at end of run" label s.abandoned;
      let stuck = Dpc_net.Reliable.suspended_channels r in
      if stuck > 0 then Alcotest.failf "%s: %d channels still suspended at end of run" label stuck

let chaos_world instance scheme domains =
  let nodes = instance.Delp_gen.nodes in
  let faulty, fstats =
    Dpc_net.Transport.faulty_with
      ~decide:(Dpc_net.Transport.hashed_decide ~config:chaos_rates ~seed:901 ~nodes)
      (shard_transport ~domains ~nodes)
  in
  let w =
    Delp_gen.build_world ~transport:faulty ~reliable:Dpc_net.Reliable.default_config instance
      scheme
  in
  Delp_gen.run_events w instance.events;
  (w, fstats)

let test_chaos_digests () =
  let faults_fired = ref 0 in
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      List.iter
        (fun scheme ->
          let base, _ = chaos_world instance scheme 1 in
          assert_reliable_healthy ~label:(Printf.sprintf "seed %d chaos base" seed) base;
          let base_digests = world_digests base in
          List.iter
            (fun domains ->
              let par, fstats = chaos_world instance scheme domains in
              assert_reliable_healthy
                ~label:(Printf.sprintf "seed %d chaos ~domains:%d" seed domains)
                par;
              faults_fired :=
                !faults_fired + Atomic.get fstats.dropped + Atomic.get fstats.duplicated;
              let par_digests = world_digests par in
              if base_digests <> par_digests then
                Alcotest.failf
                  "seed %d, %s, ~domains:%d diverged under faults\nseq:\n%s\npar:\n%s\nprogram:\n%s"
                  seed (Backend.scheme_name scheme) domains (render base_digests)
                  (render par_digests) instance.description)
            (List.tl domain_counts))
        all_schemes)
    [ 1; 2 ];
  check Alcotest.bool "faults actually fired" true (!faults_fired > 0)

(* ------------------------------------------------------------------ *)
(* Crash runs: seeded outages + durable recovery over the sharded
   transport. Crash/restart switches flip on the owning shard via the
   schedule_on-based Durable.schedule_crash path. *)

let crash_world instance scheme domains =
  let nodes = instance.Delp_gen.nodes in
  let crashable, control = Dpc_net.Transport.crashable (shard_transport ~domains ~nodes) in
  let w =
    Delp_gen.build_world ~transport:crashable ~reliable:Dpc_net.Reliable.default_config
      instance scheme
  in
  let durable =
    Durable.attach ~backend:w.Delp_gen.backend ~runtime:w.Delp_gen.runtime ~control
      ~config:{ Durable.checkpoint_every = 8; rebase_every = 4 } ()
  in
  let schedule =
    Durable.random_schedule ~seed:777 ~nodes ~count:2 ~horizon:3.0 ~min_down:0.3 ~max_down:1.0
  in
  Durable.schedule durable schedule;
  Delp_gen.run_events ~spacing:0.4 w instance.events;
  (w, durable, control)

let test_crash_digests () =
  let crashes = ref 0 in
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      List.iter
        (fun scheme ->
          let base, _, _ = crash_world instance scheme 1 in
          assert_reliable_healthy ~label:(Printf.sprintf "seed %d crash base" seed) base;
          let base_digests = world_digests base in
          List.iter
            (fun domains ->
              let par, durable, control = crash_world instance scheme domains in
              assert_reliable_healthy
                ~label:(Printf.sprintf "seed %d crash ~domains:%d" seed domains)
                par;
              crashes := !crashes + Atomic.get control.Dpc_net.Transport.crash_stats.crashes;
              for node = 0 to instance.Delp_gen.nodes - 1 do
                if not (Durable.is_up durable node) then
                  Alcotest.failf "seed %d, %s, ~domains:%d: node %d never restarted" seed
                    (Backend.scheme_name scheme) domains node
              done;
              let par_digests = world_digests par in
              if base_digests <> par_digests then
                Alcotest.failf
                  "seed %d, %s, ~domains:%d diverged across crashes\nseq:\n%s\npar:\n%s\nprogram:\n%s"
                  seed (Backend.scheme_name scheme) domains (render base_digests)
                  (render par_digests) instance.description)
            (List.tl domain_counts))
        all_schemes)
    [ 1; 2 ];
  check Alcotest.bool "crashes actually fired" true (!crashes > 0)

(* ------------------------------------------------------------------ *)
(* Query-cache transparency across domain counts: for every schedule
   kind (clean, chaos, crash), every scheme, and every shard count, a
   memoization cache attached after the run must not change one digest —
   the populating pass and the all-hit pass both reproduce the cache-off
   reading of the same world. *)

let test_cache_digests () =
  let hits = ref 0 in
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed:4) in
  List.iter
    (fun scheme ->
      List.iter
        (fun domains ->
          List.iter
            (fun (kind, w) ->
              let off = world_digests w in
              let cache = Backend.attach_query_cache w.Delp_gen.backend in
              List.iter
                (fun pass ->
                  let on = world_digests w in
                  if off <> on then
                    Alcotest.failf
                      "%s, %s, ~domains:%d: cache-on digests diverged (%s pass)\noff:\n%s\non:\n%s"
                      kind (Backend.scheme_name scheme) domains pass (render off) (render on))
                [ "populating"; "hit" ];
              hits := !hits + (Query_cache.stats cache).hits)
            [
              ("clean", clean_world instance scheme domains);
              ("chaos", fst (chaos_world instance scheme domains));
              ("crash", (let w, _, _ = crash_world instance scheme domains in w));
            ])
        domain_counts)
    all_schemes;
  check Alcotest.bool "cache served hits" true (!hits > 0)

(* ------------------------------------------------------------------ *)
(* Shard partition: total, disjoint, stable. *)

let test_partition () =
  List.iter
    (fun (domains, nodes) ->
      let p = Dpc_net.Shard_sim.partition ~domains ~nodes in
      check Alcotest.int "length" nodes (Array.length p);
      Array.iteri
        (fun n sid ->
          check Alcotest.bool (Printf.sprintf "node %d shard in range" n) true
            (sid >= 0 && sid < domains);
          check Alcotest.int (Printf.sprintf "node %d round-robin" n) (n mod domains) sid)
        p;
      (* Every shard owns at least one node when domains <= nodes. *)
      if domains <= nodes then begin
        let seen = Array.make domains false in
        Array.iter (fun sid -> seen.(sid) <- true) p;
        Array.iteri
          (fun sid s -> check Alcotest.bool (Printf.sprintf "shard %d non-empty" sid) true s)
          seen
      end;
      (* Stable: recomputing gives the same map, and the live transport
         agrees with the pure function. *)
      check Alcotest.bool "stable" true (p = Dpc_net.Shard_sim.partition ~domains ~nodes);
      let s = Dpc_net.Shard_sim.create ~domains ~nodes () in
      Array.iteri
        (fun n sid -> check Alcotest.int "transport agrees" sid (Dpc_net.Shard_sim.shard_of s n))
        p)
    [ (1, 4); (2, 4); (4, 4); (3, 7); (4, 2) ]

let test_partition_invalid () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Shard_sim.partition: domains must be positive")
    (fun () -> ignore (Dpc_net.Shard_sim.partition ~domains:0 ~nodes:4))

(* ------------------------------------------------------------------ *)
(* Metrics under concurrent writers: hammer one registry from several
   domains; the final counters must equal the sequential sum, and a
   merged per-domain snapshot must match a shared-registry snapshot. *)

let test_metrics_concurrent () =
  let writers = 4 and per_writer = 20_000 in
  let shared = Dpc_util.Metrics.create () in
  let locals = Array.init writers (fun _ -> Dpc_util.Metrics.create ()) in
  let work w () =
    for i = 1 to per_writer do
      Dpc_util.Metrics.incr shared "hits";
      Dpc_util.Metrics.add shared (if i mod 2 = 0 then "even" else "odd") 2;
      Dpc_util.Metrics.incr locals.(w) "hits";
      Dpc_util.Metrics.add locals.(w) (if i mod 2 = 0 then "even" else "odd") 2;
      Dpc_util.Metrics.observe shared "lat" (float_of_int (i land 7));
      Dpc_util.Metrics.observe locals.(w) "lat" (float_of_int (i land 7))
    done
  in
  let domains = Array.init writers (fun w -> Domain.spawn (work w)) in
  Array.iter Domain.join domains;
  let expected_hits = writers * per_writer in
  let shared_snap = Dpc_util.Metrics.snapshot shared in
  check Alcotest.int "hits = sequential sum" expected_hits
    (Dpc_util.Metrics.counter shared_snap "hits");
  check Alcotest.int "even = sequential sum" (writers * per_writer)
    (Dpc_util.Metrics.counter shared_snap "even");
  check Alcotest.int "odd = sequential sum" (writers * per_writer)
    (Dpc_util.Metrics.counter shared_snap "odd");
  (* Merge of the per-domain registries equals the shared registry: the
     merged snapshot is the cluster-wide truth whichever way the counts
     were collected. *)
  let merged =
    Array.fold_left
      (fun acc r -> Dpc_util.Metrics.merge acc (Dpc_util.Metrics.snapshot r))
      Dpc_util.Metrics.empty locals
  in
  if merged <> shared_snap then Alcotest.fail "merged per-domain snapshot <> shared snapshot"

(* A torn read would surface as an internally inconsistent snapshot:
   sample counters while writers are live and check monotonicity. *)
let test_metrics_snapshot_consistent () =
  let m = Dpc_util.Metrics.create () in
  let stop = Atomic.make false in
  let writer () =
    while not (Atomic.get stop) do
      Dpc_util.Metrics.incr m "a";
      Dpc_util.Metrics.incr m "b"
    done
  in
  let w1 = Domain.spawn writer and w2 = Domain.spawn writer in
  let last = ref 0 in
  for _ = 1 to 1_000 do
    let v = Dpc_util.Metrics.counter_value m "a" in
    check Alcotest.bool "counter monotone under writers" true (v >= !last);
    last := v
  done;
  Atomic.set stop true;
  Domain.join w1;
  Domain.join w2

let () =
  Alcotest.run "dpc_scaling"
    [
      ( "determinism",
        [
          Alcotest.test_case "clean digests across domains" `Quick test_clean_digests;
          Alcotest.test_case "run-to-run at 4 domains" `Quick test_run_to_run;
          Alcotest.test_case "DNS digests across domains" `Quick test_dns_digests;
          Alcotest.test_case "chaos digests across domains" `Quick test_chaos_digests;
          Alcotest.test_case "crash digests across domains" `Slow test_crash_digests;
          Alcotest.test_case "cache transparency across domains" `Quick test_cache_digests;
        ] );
      ( "partition",
        [
          Alcotest.test_case "round-robin total and stable" `Quick test_partition;
          Alcotest.test_case "invalid arguments" `Quick test_partition_invalid;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "concurrent counters sum" `Quick test_metrics_concurrent;
          Alcotest.test_case "snapshot consistent under writers" `Quick
            test_metrics_snapshot_consistent;
        ] );
    ]
