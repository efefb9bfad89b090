(* dpcbench: end-to-end benchmark of provenance maintenance and querying.

     dpcbench.exe --workload <name> --seed <n> [--seconds 12] [--trace 0|1]
                  [--trace-dir DIR] [--perturb store|send|query:<ns>]...
     dpcbench.exe --smoke BENCHMARK.json [--trace-dir DIR]

   One workload per process. An untraced run warms up on one repetition,
   then measures repetitions of about a second each, every one on a fresh
   world, until [--seconds] have passed. Prints every metric as
   "<workload> <metric> <value> <unit>", the spread of the wall-clock
   metrics over the repetitions, the checks and a digest of the final
   store state, and ends with one JSON line. [--trace 0] reports the
   end-to-end metrics; [--trace 1] runs the workload untraced and traced,
   prints the per-layer table, writes a Chrome trace to
   DIR/<workload>.trace.json (DIR defaults to _build/dpcbench), and
   reports the per-layer metrics, the wall-clock ones among them.
   [--perturb] busy-waits the given nanoseconds in every call into one
   layer (the sensitivity self-test). Exits 1 if a check fails.
   [--smoke] runs every workload in both modes at a tiny size and also
   fails when the metric names or units differ from the spec. *)

open Dpc_core
module Rt = Dpc_engine.Runtime
module W = Workloads

let secs ns = float_of_int ns *. 1e-9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct xs p = if xs = [] then 0.0 else Dpc_util.Stats.percentile xs p
let median xs = pct xs 50.0
let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Words allocated on every domain: minor allocations plus direct major
   ones. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

type measured = {
  w : W.world;
  wall_ns : int;  (** ingest plus closed-loop queries *)
  run_ns : int;  (** [Runtime.run], queries fired inside it included *)
  ingest_words : float;
  slice_ns : float array;  (** ingest time of each leg, queries inside it excluded *)
  latency_ms : float list;  (** inject→output, virtual time *)
  cache : Query_cache.stats option;
  digest : string;
  checks : (string * bool) list;
}

let digest (w : W.world) =
  let nodes = Array.length (Backend.nodes w.backend) in
  Dpc_util.Sha1.to_hex
    (Dpc_util.Sha1.digest_string (String.concat "" (List.init nodes (Backend.digest_node w.backend))))

(* Ingest runs in [slices] legs: equal steps of virtual time up to the
   last input's due time, then the drain to quiescence. Pausing the event
   loop changes nothing it computes. *)
let measure ?(slices = 1) (w : W.world) =
  Gc.full_major ();
  let words0 = allocated_words () in
  let slice_ns = Array.make slices 0.0 in
  let t0 = Trace.now_ns () in
  for s = 0 to slices - 1 do
    let t = Trace.now_ns () and q0 = w.q.total_ns in
    let until = if s = slices - 1 then None else Some (w.horizon *. float_of_int (s + 1) /. float_of_int (slices - 1)) in
    Rt.run ?until w.runtime;
    slice_ns.(s) <- float_of_int (Trace.now_ns () - t - (w.q.total_ns - q0))
  done;
  let run_ns = Trace.now_ns () - t0 in
  let ingest_words = allocated_words () -. words0 -. w.q.words in
  let query_ns = w.query_phase () in
  let cache = Option.map Query_cache.stats (Backend.query_cache w.backend) in
  let digest = digest w in
  let stats = Rt.stats w.runtime in
  let latency_ms, unmatched = W.output_latencies w.lat in
  let checks =
    [
      ("outputs = injected", stats.injected = w.injected && stats.outputs = w.injected);
      ("dead_ends = 0", stats.dead_ends = 0);
      ("every output matched to its input", unmatched = 0 && List.length latency_ms = w.injected);
      ("every query answered", w.q.failed = 0 && w.q.answered = w.q.ops && w.q.ops > 0);
    ]
    @ w.checks ()
  in
  { w; wall_ns = run_ns + query_ns; run_ns; ingest_words; slice_ns; latency_ms; cache; digest; checks }

let attempted m = m.w.injected + m.w.q.ops

let failed m =
  let stats = Rt.stats m.w.runtime in
  max 0 (m.w.injected - stats.outputs) + stats.dead_ends + m.w.q.failed

(* What the end-to-end metrics need from one untraced repetition, so its
   world can be collected before the next one is built. *)
type rep = {
  events : float;
  slice_ns : float array;  (** each leg of ingest *)
  query_us : float array;  (** each query attempt, in issue order *)
  counted : (string * float) list;  (** must repeat exactly *)
  alloc_words_per_event : float;
  digest : string;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
}

let rep m =
  let ev = float_of_int m.w.injected and q = m.w.q in
  {
    events = ev;
    slice_ns = m.slice_ns;
    query_us = Array.of_list (List.rev q.wall_us);
    counted =
      [
        ("output_latency_modeled_ms_p50", pct m.latency_ms 50.0);
        ("output_latency_modeled_ms_p99", pct m.latency_ms 99.0);
        ("query_modeled_ms_p99", pct q.modeled_ms 99.0);
        ("prov_bytes_per_event", float_of_int (Rows.provenance_bytes (Backend.total_storage m.w.backend)) /. ev);
        ("wire_bytes_per_event", float_of_int (Dpc_net.Transport.total_bytes m.w.inner) /. ev);
      ];
    alloc_words_per_event = m.ingest_words /. ev;
    digest = m.digest;
    checks = m.checks;
    attempted = attempted m;
    failed = failed m;
  }

(* Allocation repeats within 0.1 % inside a process, between repetitions
   run in the same legs (each leg of a sharded run spawns its domains);
   the rest exactly. *)
let agree ?(alloc = true) a b =
  a.digest = b.digest && a.counted = b.counted
  && Array.length a.query_us = Array.length b.query_us
  && ((not alloc) || Float.abs (a.alloc_words_per_event -. b.alloc_words_per_event) <= 0.01 *. a.alloc_words_per_event)

(* Host noise only ever slows work down, and on a shared machine it
   comes in bursts shorter than a repetition. Every leg of ingest and
   every query is the same work in every repetition, so the wall-clock
   metrics take each one's fastest run over the repetitions: ingest is
   the events over the sum of the fastest legs, and the query metrics are
   over each query's fastest latency. A repetition of another length
   fails [repetitions agree]; it is left out here, so that the run still
   reports. *)
let fastest f reps =
  let first = f (List.hd reps) in
  let alike = List.filter (fun r -> Array.length (f r) = Array.length first) reps in
  Array.mapi (fun i x -> List.fold_left (fun m r -> Float.min m (f r).(i)) x alike) first

let sum = Array.fold_left ( +. ) 0.0

type wall = { events_per_s : float; query_us_p50 : float; query_us_p99 : float; queries_per_s : float }

let wall_of ~events ~slice_ns ~query_us =
  let queries = Array.to_list query_us in
  {
    events_per_s = events /. (sum slice_ns *. 1e-9);
    query_us_p50 = pct queries 50.0;
    query_us_p99 = pct queries 99.0;
    queries_per_s = float_of_int (Array.length query_us) /. (sum query_us *. 1e-6);
  }

let rep_wall r = wall_of ~events:r.events ~slice_ns:r.slice_ns ~query_us:r.query_us

(* Ingest and query throughput and latency in wall clock. On a shared
   host their medians drift by more than 10 % over an hour, so they are
   reported beside the end-to-end metrics, not gated: per layer under
   [--trace 1], and as comment lines under [--trace 0]. *)
let wall_metrics reps =
  let first = List.hd reps in
  let w =
    wall_of ~events:first.events ~slice_ns:(fastest (fun r -> r.slice_ns) reps)
      ~query_us:(fastest (fun r -> r.query_us) reps)
  in
  [
    ("wall.ingest_events_per_s", w.events_per_s, "events/s");
    ("wall.query_us_p50", w.query_us_p50, "us");
    ("wall.query_us_p99", w.query_us_p99, "us");
    ("wall.queries_per_s", w.queries_per_s, "1/s");
  ]

(* Set-up time is the median of the set-up builds. Counted and modeled
   metrics come from the first repetition; the others must agree with
   it. *)
let end_to_end ~setups reps =
  let first = List.hd reps in
  let counted k u = (k, List.assoc k first.counted, u) in
  [
    ("setup_s", median setups, "s");
    ("alloc_words_per_event", first.alloc_words_per_event, "words");
    counted "output_latency_modeled_ms_p50" "ms_modeled";
    counted "output_latency_modeled_ms_p99" "ms_modeled";
    counted "query_modeled_ms_p99" "ms_modeled";
    counted "prov_bytes_per_event" "B";
    counted "wire_bytes_per_event" "B";
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ]

(* Beside each wall-clock metric, the same metric of each whole
   repetition: the best one, the median and the quartiles. *)
let print_spread name ~setups reps =
  let row metric ~higher xs =
    let best = List.fold_left (if higher then Float.max else Float.min) (List.hd xs) xs in
    Printf.printf "# %s %s per repetition (%d): best %.6g, median %.6g, quartiles %.6g .. %.6g\n" name metric
      (List.length xs) best (median xs) (pct xs 25.0) (pct xs 75.0)
  in
  Printf.printf "# %s setup_s over %d builds: median %.6g, quartiles %.6g .. %.6g\n" name (List.length setups)
    (median setups) (pct setups 25.0) (pct setups 75.0);
  List.iter (fun (k, v, u) -> Printf.printf "# %s %s %.6g %s (not gated)\n" name k v u) (wall_metrics reps);
  let ws = List.map rep_wall reps in
  let fastest_us = Array.to_list (fastest (fun r -> r.query_us) reps) in
  let n = List.length fastest_us in
  Printf.printf "# %s query latency over %d attempts per repetition%s\n" name n
    (if n >= 10_000 then Printf.sprintf "; fastest p999 %.6g us" (pct fastest_us 99.9) else "");
  row "wall.ingest_events_per_s" ~higher:true (List.map (fun w -> w.events_per_s) ws);
  row "wall.query_us_p50" ~higher:false (List.map (fun w -> w.query_us_p50) ws);
  row "wall.query_us_p99" ~higher:false (List.map (fun w -> w.query_us_p99) ws);
  row "wall.queries_per_s" ~higher:true (List.map (fun w -> w.queries_per_s) ws)

let per_layer m (tr : Trace.t) ~wall ~setup ~overhead ~speedup =
  let ev = float_of_int m.w.injected and q = m.w.q in
  let per_event x = float_of_int x /. ev in
  let stats = Rt.stats m.w.runtime in
  let storage = Backend.total_storage m.w.backend in
  let reliable = Option.map Dpc_net.Reliable.stats (Rt.reliability m.w.runtime) in
  let rel f = match reliable with None -> 0 | Some s -> f s in
  let dur f =
    match m.w.durable with
    | None -> 0
    | Some d ->
        let n = Array.length (Backend.nodes m.w.backend) in
        List.fold_left (fun acc i -> acc + f (Durable.node_stats d i)) 0 (List.init n Fun.id)
  in
  let cache f = match m.cache with None -> 0 | Some s -> f s in
  let store_calls = Trace.calls tr (fun a -> a.store) and store_ns = Trace.ns tr (fun a -> a.store) in
  let engine_ns = Trace.engine_self_ns tr in
  (* The shard rows describe the barrier loop; a sequential run has none. *)
  let busy = Trace.busy_ns tr in
  let sharded = List.length busy > 1 in
  let shard x = if sharded then x else 0.0 in
  let busy_max = List.fold_left max 0 busy in
  let busy_mean = float_of_int (List.fold_left ( + ) 0 busy) /. float_of_int (max 1 (List.length busy)) in
  let s : W.setup_times = setup in
  wall
  @ [
    ("setup.topology_s", s.topology_s, "s");
    ("setup.backend_s", s.backend_s, "s");
    ("setup.inputs_s", s.inputs_s, "s");
    ("engine.self_s", secs engine_ns, "s");
    ("engine.ns_per_event", float_of_int engine_ns /. ev, "ns");
    ("engine.fired_per_event", per_event stats.fired, "count");
    ("engine.alloc_words_per_event", Trace.engine_self_words tr /. ev, "words");
    ("store.calls", float_of_int store_calls, "count");
    ("store.self_s", secs store_ns, "s");
    ("store.ns_per_call", ratio store_ns store_calls, "ns");
    ("store.alloc_words_per_event", Trace.words tr (fun a -> a.store) /. ev, "words");
    ("store.rows_per_event", per_event (storage.prov_rows + storage.rule_exec_rows), "count");
    ("store.equi_hit_ratio", ratio (Trace.equi_hits tr) (Trace.inputs tr), "ratio");
    ("transport.send_s", secs (Trace.ns tr (fun a -> a.send)), "s");
    ("transport.loop_self_s", secs (Trace.loop_self_ns tr) /. float_of_int (max 1 (List.length busy)), "s");
    ("transport.msgs_per_event", per_event (Dpc_net.Transport.messages m.w.inner), "count");
    ("shard.busy_s_max", shard (secs busy_max), "s");
    ("shard.wait_s", shard (secs (Trace.loop_self_ns tr)), "s");
    ("shard.imbalance", shard (float_of_int busy_max /. busy_mean), "ratio");
    ("shard.speedup_vs_1", shard speedup, "ratio");
    ("reliable.retransmit_ratio", ratio (rel (fun s -> s.retransmits)) (rel (fun s -> s.data_msgs)), "ratio");
    ("reliable.ack_bytes_per_event", per_event (rel (fun s -> s.ack_bytes_total)), "B");
    ("reliable.dup_dropped", float_of_int (rel (fun s -> s.dup_dropped)), "count");
    ("reliable.held", float_of_int (rel (fun s -> s.held)), "count");
    ("reliable.suspensions", float_of_int (rel (fun s -> s.suspensions)), "count");
    ("durable.wal_bytes_per_event", per_event (dur (fun s -> s.wal_bytes)), "B");
    ("durable.checkpoint_bytes_per_event", per_event (dur (fun s -> s.checkpoint_bytes)), "B");
    ("durable.delta_cut_ratio", ratio (dur (fun s -> s.delta_cuts)) (dur (fun s -> s.checkpoints)), "ratio");
    ("durable.recovery_ms", float_of_int (dur (fun s -> s.recovery_ms)), "ms");
    ("query.self_us_p50", pct q.wall_us 50.0, "us");
    ("query.self_us_p99", pct q.wall_us 99.0, "us");
    ("query.cache_hit_ratio", ratio (cache (fun s -> s.hits)) (cache (fun s -> s.hits + s.misses)), "ratio");
    ("query.cache_evictions", float_of_int (cache (fun s -> s.evictions)), "count");
    ("query.cache_invalidations", float_of_int (cache (fun s -> s.invalidations)), "count");
    ("query.rederives_per_query", ratio q.rederives q.attempts, "count");
    ("query.entries_per_query", ratio q.entries q.attempts, "count");
    ("query.degraded_ratio", ratio q.degraded q.attempts, "ratio");
    ("trace.residual_ratio", float_of_int (m.wall_ns - Trace.accounted_ns tr) /. float_of_int m.wall_ns, "ratio");
    ("trace.overhead_ratio", overhead, "ratio");
  ]

(* The per-layer split of the traced measured phase. Time inside the run
   loop is divided by the number of domains that ran callbacks, so on a
   sharded run a row is its share of the wall clock and the rows still
   sum to it; the loop row then includes the barrier wait. Reliable and
   Durable run inside the runtime's own closures, so on fwd-churn their
   time is part of the engine row. *)
let print_layers name m (tr : Trace.t) =
  let ev = float_of_int m.w.injected in
  let domains = max 1 (List.length (Trace.busy_ns tr)) in
  let in_run ns = ns / domains in
  let layer pick = in_run (Trace.ns tr pick - Trace.outside_ns tr pick) + Trace.outside_ns tr pick in
  let engine =
    (if m.w.durable = None then "engine" else "engine+reliable+durable")
    ^ if domains > 1 then Printf.sprintf " (/%d domains)" domains else ""
  in
  let loop = if domains > 1 then "transport.loop+shard wait" else "transport.loop" in
  let residual = m.wall_ns - Trace.accounted_ns tr in
  let row label calls ns words =
    [
      label;
      (match calls with None -> "" | Some c -> string_of_int c);
      Printf.sprintf "%.4f" (secs ns);
      Printf.sprintf "%.1f%%" (100.0 *. float_of_int ns /. float_of_int m.wall_ns);
      (match words with None -> "" | Some w -> Printf.sprintf "%.1f" (w /. ev));
    ]
  in
  let calls pick = Some (Trace.calls tr pick) and words pick = Some (Trace.words tr pick) in
  Printf.printf "# %s per-layer split of the traced measured phase\n" name;
  Dpc_util.Table_fmt.print
    ~header:[ "layer"; "calls"; "self s"; "share"; "words/event" ]
    ~rows:
      [
        row engine (calls (fun a -> a.callback)) (in_run (Trace.engine_self_ns tr)) (Some (Trace.engine_self_words tr));
        row "store" (calls (fun a -> a.store)) (layer (fun a -> a.store)) (words (fun a -> a.store));
        row "transport.send" (calls (fun a -> a.send)) (layer (fun a -> a.send)) (words (fun a -> a.send));
        row loop (calls (fun a -> a.run)) (in_run (Trace.loop_self_ns tr)) None;
        row "query" (calls (fun a -> a.query)) (layer (fun a -> a.query)) (words (fun a -> a.query));
        row "residual" None residual None;
        row "measured wall" None m.wall_ns None;
      ]

let print_run name metrics ~digest ~checks =
  List.iter (fun (k, v, u) -> Printf.printf "%s %s %.6g %s\n" name k v u) metrics;
  Printf.printf "%s digest %s\n" name digest;
  List.iter (fun (check, ok) -> Printf.printf "%s check %s: %s\n" name check (if ok then "ok" else "FAILED")) checks

let print_queries name (q : W.queries) =
  Printf.printf "# %s queries: %d operations, %d attempts (%d degraded), %d failed\n" name q.ops q.attempts
    q.degraded q.failed

let json_line ~correct ~attempted ~failed metrics =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", "
       (List.map (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (value v) u) metrics))

(* Set-up builds per repetition, each on its own world after a full major
   collection, spread over the run so that a burst of host noise hits only
   a few of them. *)
let builds_per_rep = 3

(* Ingest legs of a measured repetition. *)
let legs = 17

(* The report of an untraced run, from its set-up times, its warm-up and
   its measured repetitions. A failed check, such as a repetition that
   disagrees, makes the run incorrect but leaves every metric to report. *)
let report_untraced ~name ~setups ~warm reps =
  let first = List.hd reps in
  let all = warm :: reps in
  let checks =
    List.map (fun (check, _) -> (check, List.for_all (fun r -> List.assoc check r.checks) all)) first.checks
    @ [ ("repetitions agree", agree ~alloc:false first warm && List.for_all (agree first) reps) ]
  in
  let metrics = end_to_end ~setups reps in
  print_spread name ~setups reps;
  print_run name metrics ~digest:first.digest ~checks;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 all in
  let failed = sum (fun r -> r.failed) in
  (metrics, sum (fun r -> r.attempted), failed, failed = 0 && List.for_all snd checks)

(* Untraced: a warm-up repetition, then repetitions until [seconds] have
   passed (at least four, so at least twelve set-up builds). *)
let run_untraced ~name ~build ~seconds =
  let timed_build () =
    Gc.full_major ();
    W.timed build
  in
  let one ~slices =
    let setups = List.init (builds_per_rep - 1) (fun _ -> snd (timed_build ())) in
    let w, setup_s = timed_build () in
    (setup_s :: setups, rep (measure ~slices w))
  in
  (* The warm-up runs ingest in one leg: [repetitions agree] then shows
     that the legs change nothing. *)
  let warm = snd (one ~slices:1) in
  let start = Trace.now_ns () in
  let rec loop acc n =
    if n >= 4 && secs (Trace.now_ns () - start) >= seconds then List.rev acc else loop (one ~slices:legs :: acc) (n + 1)
  in
  let measured = loop [] 0 in
  report_untraced ~name ~setups:(List.concat_map fst measured) ~warm (List.map snd measured)

(* Traced: untraced and traced worlds alternate three times; the fastest
   of each kind gives the tracing overhead, the untraced ones the
   wall-clock metrics, and the fastest traced world the per-layer
   metrics. A sharded workload also runs the same job on one domain,
   untraced, for its speedup. *)
let run_traced ~name ~build ~single ~trace_dir ~full =
  let untraced () =
    Gc.full_major ();
    measure ~slices:legs (build W.untraced)
  in
  ignore (untraced ());
  let pairs =
    List.init 3 (fun _ ->
      let u = untraced () in
      Gc.full_major ();
      let tr = Trace.create () in
      (u, (measure (build { W.untraced with trace = Some tr }), tr)))
  in
  let us = List.map fst pairs in
  let quickest wall = function
    | x :: xs -> List.fold_left (fun a b -> if wall b < wall a then b else a) x xs
    | [] -> invalid_arg "quickest"
  in
  let u_best = quickest (fun u -> u.wall_ns) us in
  let m, tr = quickest (fun (m, _) -> m.wall_ns) (List.map snd pairs) in
  let overhead = (float_of_int m.wall_ns /. float_of_int u_best.wall_ns) -. 1.0 in
  let setup =
    let med f = median (List.map (fun u -> f u.w.setup) us) in
    { W.topology_s = med (fun s -> s.topology_s); backend_s = med (fun s -> s.backend_s); inputs_s = med (fun s -> s.inputs_s) }
  in
  let speedup, single_checks =
    match single with
    | None -> (0.0, [])
    | Some single ->
        let ones =
          List.init 3 (fun _ ->
            Gc.full_major ();
            measure (single W.untraced))
        in
        let best = List.fold_left (fun a o -> min a o.run_ns) max_int in
        ( float_of_int (best ones) /. float_of_int (best us),
          [ ("one-domain digest = sharded digest", List.for_all (fun (o : measured) -> o.digest = m.digest) ones) ] )
  in
  let trees = Trace.event_trees tr in
  let checks =
    m.checks
    @ [
        ("untraced checks", List.for_all (fun (u : measured) -> List.for_all snd u.checks) us);
        ("traced digest = untraced digest", List.for_all (fun (u : measured) -> u.digest = m.digest) us);
        ("chrome trace holds >= 20 event trees", trees >= 20 || not full);
      ]
    @ single_checks
  in
  let metrics = per_layer m tr ~wall:(wall_metrics (List.map rep us)) ~setup ~overhead ~speedup in
  print_layers name m tr;
  Printf.printf "# %s tracing overhead %.1f%% (%.3f s traced vs %.3f s untraced, best of 3 each)\n" name
    (100.0 *. overhead) (secs m.wall_ns) (secs u_best.wall_ns);
  print_queries name m.w.q;
  print_run name metrics ~digest:m.digest ~checks;
  let path = Filename.concat trace_dir (name ^ ".trace.json") in
  Trace.write_chrome tr path;
  Printf.printf "# %s chrome trace: %s (%d spans, %d event trees)\n" name path (List.length (Trace.spans tr)) trees;
  let failed = failed m + List.fold_left (fun acc u -> acc + failed u) 0 us in
  (metrics, attempted m, failed, failed = 0 && List.for_all snd checks)

(* Returns the metrics, the operations attempted and failed, and whether
   every check passed. *)
let run_workload (wl : W.workload) ~seed ~scale ~perturb ~trace ~trace_dir ~seconds =
  let perturbed (b : W.builder) p = b ~seed ~scale { p with W.perturb } in
  if trace then
    run_traced ~name:wl.name ~build:(perturbed wl.build) ~single:(Option.map perturbed wl.single) ~trace_dir
      ~full:(scale >= 1.0)
  else run_untraced ~name:wl.name ~build:(fun () -> perturbed wl.build W.untraced) ~seconds

(* The entries of BENCHMARK.json's [key] list, as "<name>" or, where the
   entry has a unit, "<name> <unit>". *)
let spec_names spec key =
  let field k item = match Json.member k item with Some (Json.String s) -> Some s | _ -> None in
  match Json.member key spec with
  | Some (Json.List items) ->
      List.filter_map
        (fun item ->
          match (field "name" item, field "unit" item) with
          | Some n, Some u -> Some (n ^ " " ^ u)
          | Some n, None -> Some n
          | None, _ -> None)
        items
  | _ -> []

let smoke spec_path ~trace_dir =
  let spec = Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) in
  let problems = ref [] in
  let expect what declared emitted =
    if List.sort compare declared <> List.sort compare emitted then
      problems :=
        Printf.sprintf "%s: declared [%s], emitted [%s]" what (String.concat " " declared) (String.concat " " emitted)
        :: !problems
  in
  expect "workloads" (spec_names spec "workloads") (List.map (fun (w : W.workload) -> w.name) W.all);
  List.iter
    (fun (wl : W.workload) ->
      List.iter
        (fun (trace, key) ->
          let metrics, _, _, ok =
            run_workload wl ~seed:1 ~scale:0.01 ~perturb:Trace.Perturb.none ~trace ~trace_dir ~seconds:0.0
          in
          if not ok then problems := Printf.sprintf "%s: a check failed" wl.name :: !problems;
          expect (wl.name ^ " " ^ key) (spec_names spec key) (List.map (fun (k, _, u) -> k ^ " " ^ u) metrics))
        [ (false, "end_to_end"); (true, "per_layer") ])
    W.all;
  (* A repetition that issued fewer queries must fail the run, not stop it
     before its report. *)
  let r = rep (measure ~slices:legs ((List.hd W.all).build ~seed:1 ~scale:0.01 W.untraced)) in
  let short = { r with query_us = Array.sub r.query_us 1 (Array.length r.query_us - 1) } in
  let metrics, _, _, ok = report_untraced ~name:"disagreeing" ~setups:[ 0.0 ] ~warm:r [ r; short ] in
  if ok then problems := "a disagreeing repetition passed its checks" :: !problems;
  expect "disagreeing end_to_end" (spec_names spec "end_to_end") (List.map (fun (k, _, u) -> k ^ " " ^ u) metrics);
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

let usage () =
  prerr_endline
    "usage: dpcbench.exe --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-dir <dir>]\n\
    \                    [--perturb store|send|query:<ns>]...\n\
    \       dpcbench.exe --smoke <BENCHMARK.json> [--trace-dir <dir>]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all));
  exit 2

let () =
  (* Same trade as the figure harness: the runs retain every provenance
     row they create, so a lazier major GC saves time for memory. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 400 };
  let workload = ref None and seed = ref None and seconds = ref 12 and trace = ref false in
  let trace_dir = ref "_build/dpcbench" and spec = ref None and perturb = ref Trace.Perturb.none in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (int n);
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := int n;
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--trace-dir" :: d :: rest ->
        trace_dir := d;
        parse rest
    | "--perturb" :: p :: rest ->
        (perturb := match Trace.Perturb.parse !perturb p with Some p -> p | None -> usage ());
        parse rest
    | "--smoke" :: path :: rest ->
        spec := Some path;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!spec, !workload, !seed) with
  | Some path, _, _ -> smoke path ~trace_dir:!trace_dir
  | None, Some name, Some seed when !seconds > 0 ->
      let wl = match List.find_opt (fun (w : W.workload) -> w.name = name) W.all with Some w -> w | None -> usage () in
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      if !trace then mkdir_p !trace_dir;
      let metrics, attempted, failed, ok =
        run_workload wl ~seed ~scale:1.0 ~perturb:!perturb ~trace:!trace ~trace_dir:!trace_dir
          ~seconds:(float_of_int !seconds)
      in
      print_endline (json_line ~correct:ok ~attempted ~failed metrics);
      if not ok then exit 1
  | _ -> usage ()
