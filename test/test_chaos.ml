(* Chaos/property harness: the paper's cross-node invariants under a
   fault-injecting transport.

   The oracle: for seeded random DELP instances (Delp_gen) and all four
   maintenance schemes, the same event stream run over a clean
   Transport.direct and over faulty+Reliable (drops, duplicates, delays on)
   must produce byte-identical query results and provenance-tree digests —
   and the retry/dedup counters must be nonzero, proving the faults
   actually fired. A dedicated regression drops the first transmission of
   every §5.5 sig broadcast and checks the flush still reaches every node
   once the retransmits land.

   The sweep defaults to 10 instances so tier-1 stays fast; the 50-instance
   run is the `chaos` CI step (DPC_CHAOS_FULL=1, see scripts/ci.sh and
   `make chaos`). DPC_CHAOS_INSTANCES overrides the full count. *)

open Dpc_core
open Dpc_testkit

let check = Alcotest.check

let all_schemes =
  [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

(* Fault rates: at least the 10% drop / 5% duplication the acceptance
   criteria demand, plus delays to force reordering beyond what jitter
   alone produces. *)
let chaos_rates =
  Dpc_net.Transport.fault_config ~drop:0.12 ~duplicate:0.06 ~delay:0.25 ~delay_max:0.02 ()

let fault_seed_base = 0xC4A05

let tree_sig tree =
  Dpc_ndlog.Tuple.canonical (Prov_tree.event_of tree) ^ "|" ^ Prov_tree.to_string tree

let query w ?evid out =
  Backend.query w.Delp_gen.backend ~cost:Dpc_testkit.Query_kit.free ~routing:w.Delp_gen.routing ?evid out

(* Every distinct (output, evid) pair with a byte digest of its tree set:
   the world's complete observable provenance state, comparable with (=). *)
let world_digests w =
  Delp_gen.queryable w.Delp_gen.runtime
  |> List.map (fun (out, evid) ->
       let sigs = List.sort_uniq compare (List.map tree_sig (query w ~evid out).trees) in
       ( (Dpc_ndlog.Tuple.canonical out, Dpc_util.Sha1.to_hex evid),
         Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (String.concat "\n" sigs)) ))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The chaos oracle on one generated instance. Returns the fault totals so
   the sweep can prove the faults fired. *)

type totals = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmits : int;
  mutable dup_dropped : int;
  mutable cache_hits : int;
}

let sweep_totals =
  { dropped = 0; duplicated = 0; retransmits = 0; dup_dropped = 0; cache_hits = 0 }

(* The receive window's bound must never bite in the simulator: the most
   arrivals any channel of a run held stays below it. The largest over
   the sweeps so far is printed with each sweep's checks. *)
let window_peak = ref 0

let check_window ~fail r =
  let peak = Dpc_net.Reliable.For_testing.window_peak r in
  window_peak := max !window_peak peak;
  if peak >= Dpc_net.Reliable.For_testing.window then fail peak

let report_window () =
  Printf.printf "largest receive window held: %d (bound %d)\n" !window_peak
    Dpc_net.Reliable.For_testing.window

(* Cache-correctness satellite: attach a memoization cache to a finished
   world and read its full observable state twice — once populating, once
   served from the cache. Both passes must reproduce [reference] byte for
   byte; the hit count is returned so the sweep can prove the second pass
   actually served from memory. *)
let check_cached_digests ~(fail : string -> unit) w reference =
  let cache = Backend.attach_query_cache w.Delp_gen.backend in
  if world_digests w <> reference then
    fail "cache-on digests diverged from cache-off (populating pass)";
  if world_digests w <> reference then
    fail "cache-on digests diverged from cache-off (hit pass)";
  let stats = Query_cache.stats cache in
  Backend.detach_query_cache w.Delp_gen.backend;
  stats.Query_cache.hits

let chaos_instance seed =
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
  let fault_seed = fault_seed_base + seed in
  List.iter
    (fun scheme ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Alcotest.failf "seed %d, fault seed %d, %s: %s\nprogram:\n%s" seed fault_seed
              (Backend.scheme_name scheme) msg instance.description)
          fmt
      in
      (* Baseline: clean zero-latency delivery. *)
      let clean =
        Delp_gen.build_world
          ~transport:(Dpc_net.Transport.direct ~nodes:instance.nodes ())
          instance scheme
      in
      Delp_gen.run_events clean instance.events;
      (* Chaos: the same transport behind fault injection, with the
         reliable layer giving the runtime its guarantees back. *)
      let faulty, fstats =
        Dpc_net.Transport.faulty ~config:chaos_rates
          ~rng:(Dpc_util.Rng.create ~seed:fault_seed)
          (Dpc_net.Transport.direct ~nodes:instance.nodes ())
      in
      let chaos =
        Delp_gen.build_world ~transport:faulty ~reliable:Dpc_net.Reliable.default_config
          instance scheme
      in
      Delp_gen.run_events chaos instance.events;
      let rstats =
        match Dpc_engine.Runtime.reliability chaos.Delp_gen.runtime with
        | Some r ->
            check_window r ~fail:(fail "a receive window reached its bound (%d held)");
            Dpc_net.Reliable.stats r
        | None -> fail "runtime lost its reliability layer"
      in
      if rstats.abandoned > 0 then
        fail "reliable layer abandoned %d messages (retry budget too small for the fault rates)"
          rstats.abandoned;
      let clean_digests = world_digests clean and chaos_digests = world_digests chaos in
      if clean_digests <> chaos_digests then begin
        let render ds =
          String.concat "\n"
            (List.map (fun ((out, evid), d) -> Printf.sprintf "  %s @%s -> %s" out evid d) ds)
        in
        fail "provenance diverged under faults\nclean:\n%s\nchaos:\n%s" (render clean_digests)
          (render chaos_digests)
      end;
      sweep_totals.cache_hits <-
        sweep_totals.cache_hits
        + check_cached_digests ~fail:(fun msg -> fail "%s" msg) chaos clean_digests;
      sweep_totals.dropped <- sweep_totals.dropped + Atomic.get fstats.dropped;
      sweep_totals.duplicated <- sweep_totals.duplicated + Atomic.get fstats.duplicated;
      sweep_totals.retransmits <- sweep_totals.retransmits + rstats.retransmits;
      sweep_totals.dup_dropped <- sweep_totals.dup_dropped + rstats.dup_dropped)
    all_schemes

let run_sweep ~instances =
  List.iter chaos_instance (List.init instances (fun i -> i + 1));
  (* The oracle is vacuous if the faults never fired. *)
  check Alcotest.bool "messages were dropped" true (sweep_totals.dropped > 0);
  check Alcotest.bool "messages were duplicated" true (sweep_totals.duplicated > 0);
  check Alcotest.bool "retransmits happened" true (sweep_totals.retransmits > 0);
  check Alcotest.bool "dedup suppressed duplicates" true (sweep_totals.dup_dropped > 0);
  check Alcotest.bool "query cache served hits" true (sweep_totals.cache_hits > 0);
  report_window ()

let test_sweep_quick () = run_sweep ~instances:10

let test_sweep_full () =
  match Sys.getenv_opt "DPC_CHAOS_FULL" with
  | None -> print_endline "skipped (set DPC_CHAOS_FULL=1; `make chaos` does)"
  | Some _ ->
      let instances =
        match Sys.getenv_opt "DPC_CHAOS_INSTANCES" with
        | Some s -> int_of_string s
        | None -> 50
      in
      run_sweep ~instances

(* ------------------------------------------------------------------ *)
(* Crash/recovery oracle: the same instance and event stream, run once
   crash-free and once under a seeded schedule of whole-node crashes with
   durable recovery (Transport.crashable + Durable WAL/checkpoints).
   Events are spread over a time window so outages land mid-stream; after
   the last restart the provenance digests must be byte-identical — the
   recovered nodes rebuilt exactly the state they lost. *)

let crash_seed_base = 0xDEAD5

type crash_totals = {
  mutable crashes : int;
  mutable suppressed : int;
  mutable recovered_entries : int;  (* journal entries replayed across all restarts *)
  mutable crash_cache_hits : int;
}

let crash_sweep_totals =
  { crashes = 0; suppressed = 0; recovered_entries = 0; crash_cache_hits = 0 }

(* Event spacing and outage windows sized together: downtimes stay far
   below the reliable layer's ~16 s retry budget, and the crash horizon
   covers the injection window so outages overlap live traffic. *)
let crash_spacing = 0.4
let crash_horizon = 4.0

let crash_instance seed =
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
  let schedule =
    Durable.random_schedule ~seed:(crash_seed_base + seed) ~nodes:instance.nodes ~count:3
      ~horizon:crash_horizon ~min_down:0.3 ~max_down:1.2
  in
  List.iter
    (fun scheme ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Alcotest.failf "seed %d, %s: %s\nschedule: %s\nprogram:\n%s" seed
              (Backend.scheme_name scheme) msg
              (String.concat "; "
                 (List.map
                    (fun (n, at, d) -> Printf.sprintf "node %d down %.2f-%.2f" n at (at +. d))
                    schedule))
              instance.description)
          fmt
      in
      let clean =
        Delp_gen.build_world
          ~transport:(Dpc_net.Transport.direct ~nodes:instance.nodes ())
          instance scheme
      in
      Delp_gen.run_events ~spacing:crash_spacing clean instance.events;
      let crashable, control =
        Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:instance.nodes ())
      in
      let world =
        Delp_gen.build_world ~transport:crashable ~reliable:Dpc_net.Reliable.default_config
          instance scheme
      in
      let durable =
        Durable.attach ~backend:world.Delp_gen.backend ~runtime:world.Delp_gen.runtime ~control
          ~config:{ Durable.checkpoint_every = 8; rebase_every = 4 } ()
      in
      Durable.schedule durable schedule;
      (* A cache lives through the crashes too, so every Node.reset runs
         the registered invalidation hook on a real recovery path. *)
      ignore (Backend.attach_query_cache world.Delp_gen.backend);
      Delp_gen.run_events ~spacing:crash_spacing world instance.events;
      (* Every scheduled outage ended inside the run. *)
      Array.iteri
        (fun node _ -> if not (Durable.is_up durable node) then fail "node %d never restarted" node)
        (Dpc_engine.Runtime.nodes world.Delp_gen.runtime |> Array.map (fun _ -> ()));
      let rstats =
        match Dpc_engine.Runtime.reliability world.Delp_gen.runtime with
        | Some r ->
            check_window r ~fail:(fail "a receive window reached its bound (%d held)");
            Dpc_net.Reliable.stats r
        | None -> fail "runtime lost its reliability layer"
      in
      if rstats.abandoned > 0 then
        fail "reliable layer abandoned %d messages (outage longer than the retry budget)"
          rstats.abandoned;
      let clean_digests = world_digests clean and crash_digests = world_digests world in
      if clean_digests <> crash_digests then begin
        let render ds =
          String.concat "\n"
            (List.map (fun ((out, evid), d) -> Printf.sprintf "  %s @%s -> %s" out evid d) ds)
        in
        fail "provenance diverged across crashes\nclean:\n%s\ncrashed:\n%s" (render clean_digests)
          (render crash_digests)
      end;
      crash_sweep_totals.crash_cache_hits <-
        crash_sweep_totals.crash_cache_hits
        + check_cached_digests ~fail:(fun msg -> fail "%s" msg) world clean_digests;
      let stats = control.Dpc_net.Transport.crash_stats in
      crash_sweep_totals.crashes <- crash_sweep_totals.crashes + Atomic.get stats.crashes;
      crash_sweep_totals.suppressed <- crash_sweep_totals.suppressed + Atomic.get stats.suppressed;
      Array.iteri
        (fun node _ ->
          crash_sweep_totals.recovered_entries <-
            crash_sweep_totals.recovered_entries + (Durable.node_stats durable node).wal_entries)
        (Dpc_core.Backend.nodes world.Delp_gen.backend))
    all_schemes

let run_crash_sweep ~instances =
  List.iter crash_instance (List.init instances (fun i -> i + 1));
  (* The oracle is vacuous if no node ever went down or no delivery was
     ever cut by an outage. *)
  check Alcotest.bool "nodes crashed" true (crash_sweep_totals.crashes > 0);
  check Alcotest.bool "deliveries were suppressed at down nodes" true
    (crash_sweep_totals.suppressed > 0);
  check Alcotest.bool "journals were non-trivial" true (crash_sweep_totals.recovered_entries > 0);
  check Alcotest.bool "query cache served hits after recovery" true
    (crash_sweep_totals.crash_cache_hits > 0);
  report_window ()

let test_crash_quick () = run_crash_sweep ~instances:6

let test_crash_full () =
  match Sys.getenv_opt "DPC_CHAOS_FULL" with
  | None -> print_endline "skipped (set DPC_CHAOS_FULL=1; `make crash` does)"
  | Some _ ->
      let instances =
        match Sys.getenv_opt "DPC_CHAOS_INSTANCES" with
        | Some s -> int_of_string s
        | None -> 25
      in
      run_crash_sweep ~instances

(* ------------------------------------------------------------------ *)
(* Partition oracle: the same instance and event stream, run clean and
   behind partitionable + Reliable under a link-outage plan. Every plan
   cuts links for far longer than the retry budget below, so channels
   must suspend, park their unacked tails, and resurrect on heal — and
   after the heal the observable provenance must be byte-identical to
   the perfect-network run, with nothing left parked. Four plan
   families run per instance: a symmetric split, an asymmetric one-way
   cut, a flapping link, and a seeded-random schedule. *)

let partition_seed_base = 0x9A47

(* Retry budget the outages outlast cheaply: attempts at 0.05 / 0.1 /
   0.2 s (the cap), then the channel parks — ~0.35 s of in-flight
   budget against cuts of 1.5 s and up. Jitter is on so the hardened
   backoff path runs inside the oracle, not just in unit tests. *)
let partition_reliable =
  {
    Dpc_net.Reliable.default_config with
    timeout = 0.05;
    max_timeout = 0.2;
    max_retries = 3;
    jitter = 0.3;
  }

let partition_spacing = 0.3

let partition_plans ~nodes ~seed =
  [
    ("split", Dpc_net.Transport.split_plan ~nodes ~left:[ 0 ] ~at:0.5 ~duration:2.0);
    ("asymmetric", Dpc_testkit.Partition_plans.oneway_plan ~src:0 ~dst:1 ~at:0.4 ~duration:1.8);
    ("flapping", Dpc_testkit.Partition_plans.flap_plan ~a:0 ~b:1 ~at:0.3 ~cycles:3 ~down:0.5 ~dwell:0.25);
    ( "random",
      Dpc_testkit.Partition_plans.random_plan ~seed ~nodes ~count:4 ~horizon:2.5 ~min_down:0.6
        ~max_down:2.0 ~dwell:0.2 () );
  ]

type partition_totals = {
  mutable cuts : int;
  mutable lost : int;
  mutable suspensions : int;
  mutable resurrections : int;
  mutable parked : int;
}

let partition_sweep_totals =
  { cuts = 0; lost = 0; suspensions = 0; resurrections = 0; parked = 0 }

let partition_instance seed =
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
  List.iter
    (fun scheme ->
      let clean =
        Delp_gen.build_world
          ~transport:(Dpc_net.Transport.direct ~nodes:instance.nodes ())
          instance scheme
      in
      Delp_gen.run_events ~spacing:partition_spacing clean instance.events;
      let clean_digests = world_digests clean in
      List.iter
        (fun (plan_name, plan) ->
          let fail fmt =
            Printf.ksprintf
              (fun msg ->
                Alcotest.failf "seed %d, %s, %s plan: %s\nprogram:\n%s" seed
                  (Backend.scheme_name scheme) plan_name msg instance.description)
              fmt
          in
          let parted, control =
            Dpc_net.Transport.partitionable
              (Dpc_net.Transport.direct ~nodes:instance.nodes ())
          in
          let world =
            Delp_gen.build_world ~transport:parted ~reliable:partition_reliable instance scheme
          in
          Dpc_net.Transport.schedule_plan parted control plan;
          Delp_gen.run_events ~spacing:partition_spacing world instance.events;
          let r =
            match Dpc_engine.Runtime.reliability world.Delp_gen.runtime with
            | Some r -> r
            | None -> fail "runtime lost its reliability layer"
          in
          let rstats = Dpc_net.Reliable.stats r in
          check_window r ~fail:(fail "a receive window reached its bound (%d held)");
          (* The health invariant: nothing parked, nothing suspended once
             every outage has healed. *)
          if rstats.abandoned > 0 then
            fail "%d messages still parked after the heal" rstats.abandoned;
          let stuck = Dpc_net.Reliable.suspended_channels r in
          if stuck > 0 then fail "%d channels still suspended after the heal" stuck;
          let part_digests = world_digests world in
          if clean_digests <> part_digests then begin
            let render ds =
              String.concat "\n"
                (List.map (fun ((out, evid), d) -> Printf.sprintf "  %s @%s -> %s" out evid d) ds)
            in
            fail "provenance diverged across the partition\nclean:\n%s\npartitioned:\n%s"
              (render clean_digests) (render part_digests)
          end;
          let pstats = control.Dpc_net.Transport.partition_stats in
          partition_sweep_totals.cuts <- partition_sweep_totals.cuts + Atomic.get pstats.cuts;
          partition_sweep_totals.lost <- partition_sweep_totals.lost + Atomic.get pstats.lost;
          partition_sweep_totals.suspensions <-
            partition_sweep_totals.suspensions + rstats.suspensions;
          partition_sweep_totals.resurrections <-
            partition_sweep_totals.resurrections + rstats.resurrections;
          partition_sweep_totals.parked <- partition_sweep_totals.parked + rstats.parked)
        (partition_plans ~nodes:instance.nodes ~seed:(partition_seed_base + seed)))
    all_schemes

let run_partition_sweep ~instances =
  List.iter partition_instance (List.init instances (fun i -> i + 1));
  (* The oracle is vacuous unless links actually cut traffic and some
     channel rode the full suspend/park/resurrect path. *)
  check Alcotest.bool "links were cut" true (partition_sweep_totals.cuts > 0);
  check Alcotest.bool "deliveries were lost on down links" true (partition_sweep_totals.lost > 0);
  check Alcotest.bool "channels suspended" true (partition_sweep_totals.suspensions > 0);
  check Alcotest.bool "channels resurrected" true (partition_sweep_totals.resurrections > 0);
  check Alcotest.bool "messages were parked" true (partition_sweep_totals.parked > 0);
  check Alcotest.int "every suspension was matched by a resurrection"
    partition_sweep_totals.suspensions partition_sweep_totals.resurrections;
  report_window ()

let test_partition_quick () = run_partition_sweep ~instances:3

let test_partition_full () =
  match Sys.getenv_opt "DPC_CHAOS_FULL" with
  | None -> print_endline "skipped (set DPC_CHAOS_FULL=1; `make partitions` does)"
  | Some _ ->
      let instances =
        match Sys.getenv_opt "DPC_CHAOS_INSTANCES" with
        | Some s -> int_of_string s
        | None -> 15
      in
      run_partition_sweep ~instances

(* ------------------------------------------------------------------ *)
(* §5.5 under loss: drop the first transmission of every sig broadcast and
   check the flush (and so re-materialization) still reaches every node
   once the retransmits land. Guards the fig11 delete/insert path. *)

let sig_nodes = 3

(* Line routing for queries; transport is direct, so topology only feeds
   the query-time cost model. *)
let sig_routing () =
  let topo = Dpc_net.Topology.create ~n:sig_nodes in
  let link = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e8 } in
  Dpc_net.Topology.add_link topo 0 1 link;
  Dpc_net.Topology.add_link topo 1 2 link;
  Dpc_net.Routing.compute topo

(* A sig data message on the wire: the runtime's fixed sig payload plus
   the reliable layer's header. Everything else (packets with payloads and
   provenance meta, 12-byte acks) has a different size, so a byte-count
   filter picks out exactly the sig transmissions. *)
let sig_wire_bytes = 28 + 4 + Dpc_net.Reliable.For_testing.data_header_bytes

let sig_world ~faults =
  let routing = sig_routing () in
  let inner = Dpc_net.Transport.direct ~nodes:sig_nodes () in
  let transport, fstats, reliable =
    if not faults then (inner, None, None)
    else begin
      let seen = Hashtbl.create 16 in
      let tr, stats =
        Dpc_net.Transport.faulty_with inner ~decide:(fun ~src ~dst ~bytes ->
          if bytes <> sig_wire_bytes then Dpc_net.Transport.F_deliver
          else begin
            (* The scenario makes exactly two sig broadcasts (delete +
               reinsert), sent back-to-back — so per channel the first two
               sig transmissions are precisely the first attempt of each
               broadcast. Drop those; let every retransmit through. *)
            let n = Option.value ~default:0 (Hashtbl.find_opt seen (src, dst)) in
            Hashtbl.replace seen (src, dst) (n + 1);
            if n < 2 then Dpc_net.Transport.F_drop else Dpc_net.Transport.F_deliver
          end)
      in
      (tr, Some stats, Some Dpc_net.Reliable.default_config)
    end
  in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes:sig_nodes in
  (* Count sig arrivals per node around the store's own hook. *)
  let flushes = Array.make sig_nodes 0 in
  let hook = Backend.hook backend in
  let counting_hook =
    {
      hook with
      Dpc_engine.Prov_hook.on_slow_update =
        (fun ~node ~op tuple ->
          flushes.(node) <- flushes.(node) + 1;
          hook.Dpc_engine.Prov_hook.on_slow_update ~node ~op tuple);
    }
  in
  let runtime =
    Dpc_engine.Runtime.create ~transport ?reliable ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:counting_hook ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  (* Phase A: packets against the original table; then a §5.5 route
     refresh (delete + reinsert, the fig11 update pattern — two sig
     broadcasts); then phase B packets that must see re-materialization. *)
  for i = 1 to 5 do
    Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "pre%d" i))
  done;
  let refreshed = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 in
  Dpc_net.Transport.schedule transport ~delay:1.0 (fun () ->
    ignore (Dpc_engine.Runtime.delete_slow_runtime runtime refreshed);
    Dpc_engine.Runtime.insert_slow_runtime runtime refreshed);
  for i = 1 to 5 do
    Dpc_engine.Runtime.inject runtime ~delay:2.0
      (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "post%d" i))
  done;
  Dpc_engine.Runtime.run runtime;
  (runtime, backend, routing, flushes, fstats)

let test_sig_under_loss () =
  let rt_ref, backend_ref, routing, flushes_ref, _ = sig_world ~faults:false in
  let rt, backend, _, flushes, fstats = sig_world ~faults:true in
  (* The faults fired: 2 broadcasts x 3 destinations, first transmission
     of each dropped. *)
  let fstats = Option.get fstats in
  check Alcotest.bool "first sig transmissions dropped" true (Atomic.get fstats.dropped >= 6);
  let rstats = Option.get (Dpc_engine.Runtime.reliability rt) |> Dpc_net.Reliable.stats in
  check Alcotest.bool "sig retransmits happened" true (rstats.retransmits >= 6);
  check Alcotest.int "no message abandoned" 0 rstats.abandoned;
  (* Every node still saw both sig flushes, exactly once each. *)
  Array.iteri
    (fun node n ->
      check Alcotest.int (Printf.sprintf "flushes at clean node %d" node) 2 n;
      check Alcotest.int (Printf.sprintf "flushes at faulty node %d" node) 2 flushes.(node))
    flushes_ref;
  (* And the provenance is byte-identical to the fault-free run: the
     flushed classes re-materialized on every path. *)
  let digest backend out =
    let trees =
      (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing out).trees
      |> List.map tree_sig |> List.sort_uniq compare
    in
    Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (String.concat "\n" trees))
  in
  let outputs rt =
    List.map (fun (out, _) -> out) (Dpc_engine.Runtime.outputs rt)
    |> List.sort_uniq Dpc_ndlog.Tuple.compare
  in
  let ref_outs = outputs rt_ref and got_outs = outputs rt in
  check Alcotest.int "all packets delivered" 10 (List.length got_outs);
  check
    (Alcotest.list Alcotest.string)
    "same outputs"
    (List.map Dpc_ndlog.Tuple.canonical ref_outs)
    (List.map Dpc_ndlog.Tuple.canonical got_outs);
  List.iter2
    (fun a b ->
      check Alcotest.string
        (Printf.sprintf "tree digest for %s" (Dpc_ndlog.Tuple.to_string a))
        (digest backend_ref a) (digest backend b))
    ref_outs got_outs

let () =
  Alcotest.run "dpc_chaos"
    [
      ( "chaos oracle",
        [
          Alcotest.test_case "sweep (quick, 10 instances)" `Quick test_sweep_quick;
          Alcotest.test_case "sweep (full, 50 instances)" `Slow test_sweep_full;
        ] );
      ( "crash oracle",
        [
          Alcotest.test_case "crash sweep (quick, 6 instances)" `Quick test_crash_quick;
          Alcotest.test_case "crash sweep (full, 25 instances)" `Slow test_crash_full;
        ] );
      ( "partition oracle",
        [
          Alcotest.test_case "partition sweep (quick, 3 instances)" `Quick test_partition_quick;
          Alcotest.test_case "partition sweep (full, 15 instances)" `Slow test_partition_full;
        ] );
      ( "sig under loss",
        [ Alcotest.test_case "first transmission dropped" `Quick test_sig_under_loss ] );
    ]
