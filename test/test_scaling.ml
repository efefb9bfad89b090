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
  Backend.query w.Delp_gen.backend ~cost:Dpc_testkit.Query_kit.free ~routing:w.Delp_gen.routing ?evid out

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

(* The sharded simulator with every transmission held back by up to
   0.5 ms through the fault wrapper. The delays hash per channel, so every
   domain count sees the same ones. *)
let shard_transport ~domains ~nodes =
  fst
    (Dpc_net.Transport.faulty_with
       ~decide:
         (Dpc_net.Transport.hashed_decide
            ~config:(Dpc_net.Transport.fault_config ~delay:1.0 ~delay_max:0.0005 ())
            ~seed:42 ~nodes)
       (Dpc_net.Shard_sim.transport (Dpc_net.Shard_sim.create ~latency:0.001 ~domains ~nodes ())))

(* Deliveries that overtook an earlier send on their channel, counted by
   [reorder_probe] over every clean world. *)
let overtaken = Atomic.make 0

(* Number each channel's sends and check them at final delivery, after
   the delays of the transport it wraps. The send counter is written on
   the sender's shard and the delivery mark on the receiver's. *)
let reorder_probe inner =
  let n = Dpc_net.Transport.nodes inner in
  let sent = Array.make (n * n) 0 and delivered = Array.make (n * n) 0 in
  Dpc_net.Transport.intercept ~name:"probe" inner (fun ~src ~dst ~bytes k ->
    let c = (src * n) + dst in
    let i = sent.(c) + 1 in
    sent.(c) <- i;
    Dpc_net.Transport.send inner ~src ~dst ~bytes (fun () ->
      if i < delivered.(c) then Atomic.incr overtaken else delivered.(c) <- i;
      k ()))

(* ------------------------------------------------------------------ *)
(* Clean runs: exact structural determinism across domain counts. *)

let clean_world instance scheme domains =
  let w =
    Delp_gen.build_world
      ~transport:(reorder_probe (shard_transport ~domains ~nodes:instance.Delp_gen.nodes))
      instance scheme
  in
  Delp_gen.run_events w instance.events;
  w

let test_clean_digests () =
  let overtaken_before = Atomic.get overtaken in
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
    [ 1; 2; 3 ];
  check Alcotest.bool "deliveries were reordered" true (Atomic.get overtaken > overtaken_before)

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
              (Backend.digest_node backend i ^ Dpc_engine.Db.For_testing.canonical (Dpc_engine.Node.db node))))
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
   on a heal probe — the reliable layer fully drained — and no receive
   window ever reached its bound. *)
let assert_reliable_healthy ~label w =
  match Dpc_engine.Runtime.reliability w.Delp_gen.runtime with
  | None -> Alcotest.failf "%s: runtime lost its reliability layer" label
  | Some r ->
      let s = Dpc_net.Reliable.stats r in
      if s.abandoned > 0 then
        Alcotest.failf "%s: %d messages still parked at end of run" label s.abandoned;
      let stuck = Dpc_net.Reliable.suspended_channels r in
      if stuck > 0 then Alcotest.failf "%s: %d channels still suspended at end of run" label stuck;
      if Dpc_net.Reliable.For_testing.window_peak r >= Dpc_net.Reliable.For_testing.window then
        Alcotest.failf "%s: a receive window reached its bound" label

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
(* A callback that raises: [run] re-raises it on the caller once every
   shard has stopped, and the next [run] delivers what was left behind. *)

exception Boom

(* Exit instead of hanging when [f] does not return within [seconds]: a
   shard that left the window loop early would leave the others waiting
   at the barrier forever. *)
let within ~seconds f =
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
      let deadline = Unix.gettimeofday () +. seconds in
      while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      if not (Atomic.get finished) then begin
        prerr_endline "Shard_sim.run hung after a callback raised";
        exit 3
      end)
  in
  Fun.protect ~finally:(fun () -> Atomic.set finished true; Domain.join watchdog) f

(* Eight nodes each take two inputs every 0.5 ms for 5 ms, and each input
   sends a message three nodes on and another five nodes on, so every
   node also takes four arrivals at once, from two origins. Node 5's
   first input at 2 ms raises instead. Returns how many entries each node logged in the first
   run, and each node's log of (time, what) over both runs. *)
let raising_run domains =
  let nodes = 8 in
  let tr = Dpc_net.Shard_sim.transport (Dpc_net.Shard_sim.create ~domains ~nodes ()) in
  let logs = Array.make nodes [] in
  let log node what = logs.(node) <- (Dpc_net.Transport.now tr, what) :: logs.(node) in
  for batch = 0 to 9 do
    for node = 0 to nodes - 1 do
      for copy = 0 to 1 do
        let name = Printf.sprintf "in%d.%d" batch copy in
        Dpc_net.Transport.schedule_on tr ~node ~delay:(float_of_int batch *. 0.0005) (fun () ->
          if node = 5 && batch = 4 && copy = 0 then raise Boom;
          log node name;
          List.iter
            (fun hop ->
              let dst = (node + hop) mod nodes in
              Dpc_net.Transport.send tr ~src:node ~dst ~bytes:100 (fun () ->
                log dst (Printf.sprintf "%s from %d" name node)))
            [ 3; 5 ])
      done
    done
  done;
  within ~seconds:30.0 (fun () ->
    Alcotest.check_raises (Printf.sprintf "~domains:%d re-raises" domains) Boom (fun () ->
      Dpc_net.Transport.run tr);
    let first = Array.map List.length logs in
    Dpc_net.Transport.run tr;
    (first, Array.map List.rev logs))

let test_raising_callback () =
  let _, reference = raising_run 1 in
  (* Every input but the one that raised, and both of its messages. *)
  check Alcotest.int "all delivered" (3 * 159) (Array.fold_left (fun n l -> n + List.length l) 0 reference);
  List.iter
    (fun domains ->
      let first, logs = raising_run domains in
      Array.iteri
        (fun node log ->
          check Alcotest.bool (Printf.sprintf "~domains:%d node %d left some for the second run" domains node)
            true (first.(node) < List.length log);
          let times = List.map fst log in
          check Alcotest.bool (Printf.sprintf "~domains:%d node %d in time order" domains node) true
            (List.sort Float.compare times = times);
          check
            Alcotest.(list (pair (float 0.0) string))
            (Printf.sprintf "~domains:%d node %d as on one domain" domains node)
            reference.(node) log)
        logs)
    [ 2; 4 ]

(* A [run] called from a callback is refused on one domain as on two, and
   the simulator still runs afterwards. *)
let test_nested_run () =
  List.iter
    (fun domains ->
      let sim = Dpc_net.Shard_sim.create ~domains ~nodes:2 () in
      let tr = Dpc_net.Shard_sim.transport sim in
      let delivered = ref 0 in
      Dpc_net.Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> Dpc_net.Shard_sim.For_testing.run sim);
      check Alcotest.bool (Printf.sprintf "~domains:%d nested run refused" domains) true
        (match Dpc_net.Shard_sim.For_testing.run sim with
        | () -> false
        | exception Invalid_argument _ -> true);
      Dpc_net.Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
      Dpc_net.Shard_sim.For_testing.run sim;
      check Alcotest.int (Printf.sprintf "~domains:%d a later run delivers" domains) 1 !delivered)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Shard partition: total, disjoint, stable. *)

let test_partition () =
  List.iter
    (fun (domains, nodes) ->
      let p = Dpc_net.Shard_sim.For_testing.partition ~domains ~nodes in
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
      check Alcotest.bool "stable" true (p = Dpc_net.Shard_sim.For_testing.partition ~domains ~nodes);
      let s = Dpc_net.Shard_sim.create ~domains ~nodes () in
      Array.iteri
        (fun n sid -> check Alcotest.int "transport agrees" sid (Dpc_net.Shard_sim.For_testing.shard_of s n))
        p)
    [ (1, 4); (2, 4); (4, 4); (3, 7); (4, 2) ]

let test_partition_invalid () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Shard_sim.partition: domains must be positive")
    (fun () -> ignore (Dpc_net.Shard_sim.For_testing.partition ~domains:0 ~nodes:4))

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
      Dpc_util.Metrics.add locals.(w) (if i mod 2 = 0 then "even" else "odd") 2
    done
  in
  let domains = Array.init writers (fun w -> Domain.spawn (work w)) in
  Array.iter Domain.join domains;
  let expected_hits = writers * per_writer in
  let shared_snap = Dpc_util.Metrics.snapshot shared in
  check Alcotest.int "hits = sequential sum" expected_hits
    (Dpc_util.Metrics.For_testing.counter shared_snap "hits");
  check Alcotest.int "even = sequential sum" (writers * per_writer)
    (Dpc_util.Metrics.For_testing.counter shared_snap "even");
  check Alcotest.int "odd = sequential sum" (writers * per_writer)
    (Dpc_util.Metrics.For_testing.counter shared_snap "odd");
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
      ( "errors",
        [
          Alcotest.test_case "a raising callback at 2 and 4 domains" `Quick test_raising_callback;
          Alcotest.test_case "a nested run at 1 and 2 domains" `Quick test_nested_run;
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
