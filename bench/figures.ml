(* The figure registry: one record per figure of the paper's evaluation
   (§6, Figures 8-16), per ablation and per system figure. Each runner
   prints the series the paper plots and shape-check lines comparing the
   measured ratios with the paper's qualitative claims; main.ml runs the
   records, and golden.ml pins their output.

   Default parameters are scaled down from the paper's for wall-clock
   sanity; [paper_scale] selects the published parameters. Absolute numbers
   are not expected to match (the substrate is a simulator); the shapes
   are. *)

open Dpc_util
open Dpc_net
open Dpc_engine
open Dpc_core
open Dpc_apps
open Dpc_workload

type config = { paper_scale : bool; tiny : bool; seed : int; domains : int }

let default_config = { paper_scale = false; tiny = false; seed = 1; domains = 4 }

let scale_name cfg = if cfg.tiny then "tiny" else if cfg.paper_scale then "paper" else "scaled-down"

(* What one run of one figure reports besides its printed text. main.ml
   makes one per figure and reads it back. *)
type ctx = {
  mutable events : int;
  mutable series : (string * (float * int) list) list;  (** newest first *)
  mutable mismatches : int;
}

(* An output of a figure that reads the wall clock, which the golden and
   CI's determinism diff strip: a JSON series by its label, the printed
   lines that start with a prefix, or a table column by its header. *)
type wall = Series of string | Line of string | Column of string

type t = { id : string; title : string; run : config -> ctx -> unit; wall : wall list }

let add_events ctx n = ctx.events <- ctx.events + n
let add_series ctx label points = ctx.series <- (label, points) :: ctx.series

let shape_check ctx name ok detail =
  if not ok then ctx.mismatches <- ctx.mismatches + 1;
  Printf.printf "SHAPE CHECK [%s]: %s (%s)\n" name (if ok then "OK" else "MISMATCH") detail

let schemes = [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced ]
let label = Backend.scheme_name
let last l = List.nth l (List.length l - 1)

(* How far [a] exceeds [b], in percent of [b]. *)
let pct a b = 100.0 *. ((float_of_int a /. float_of_int b) -. 1.0)

(* Wall-clock seconds to run [rt] to quiescence. *)
let timed_run rt =
  let t0 = Clock.now () in
  Runtime.run rt;
  Clock.now () -. t0

(* ------------------------------------------------------------------ *)
(* Shared worlds *)

let transit_stub cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  (ts, Routing.compute ts.topology, rng)

let sim_transport (ts : Transit_stub.t) routing =
  Transport.of_sim (Sim.create ~topology:ts.topology ~routing ())

(* Provenance bytes every [every] seconds until [duration], if asked. *)
let snapshots ?every sim backend ~duration =
  match every with
  | None -> ref []
  | Some every ->
      Measure.storage_snapshots ~sim ~every ~until:duration (fun () ->
        Measure.total_provenance_bytes backend)

let forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload ?snapshots_every ?record_outputs () =
  let ts, routing, rng = transit_stub cfg in
  let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
  let d =
    Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list ?record_outputs ()
  in
  let series = snapshots ?every:snapshots_every (Forwarding_driver.sim_exn d) d.backend ~duration in
  let injected = Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:payload in
  Forwarding_driver.run d;
  (d, injected, series, rng)

let dns_run cfg ~scheme ~urls ~rate ~duration ?total ?snapshots_every
    ?record_outputs () =
  let rng = Rng.create ~seed:cfg.seed in
  let spec = Dns_workload.generate ~rng ~servers:100 ~backbone_depth:27 ~urls ~clients:10 in
  let t = Dns_workload.setup ~scheme spec ?record_outputs () in
  let series = snapshots ?every:snapshots_every t.sim t.backend ~duration in
  let injected =
    match total with
    | Some total -> Dns_workload.inject_n_requests t ~rng ~total ~duration
    | None -> Dns_workload.inject_requests t ~rng ~rate ~duration
  in
  Dns_workload.run t;
  (t, injected, series)

(* Fig 1's forwarding program on [transport] with [routes] loaded: the
   world of fig11's no-provenance baseline and of ablation A4. *)
let forwarding_world ~transport ~delp ~hook routes =
  let rt = Runtime.create ~transport ~delp ~env:Forwarding.env ~hook () in
  Runtime.load_slow rt routes;
  rt

(* Fig 2's three-node world: 0 - 1 - 2 over 1 ms links, the forwarding
   program under [scheme] and the two routes that carry 0's packets to
   2. The crash, queries and metrics figures and the micro-benchmarks run
   on it. *)
let three_node_topology () =
  let topo = Topology.create ~n:3 in
  let l = { Topology.latency = 0.001; bandwidth = 1e9 } in
  Topology.add_link topo 0 1 l;
  Topology.add_link topo 1 2 l;
  topo

let three_node_sim () =
  let topology = three_node_topology () in
  Transport.of_sim (Sim.create ~topology ~routing:(Routing.compute topology) ())

let three_node ?reliable ?record_outputs ~scheme transport =
  let delp = Forwarding.delp () in
  let backend =
    Backend.make scheme ~delp ~env:Forwarding.env ~nodes:(Transport.nodes transport)
  in
  let runtime =
    Runtime.create ~transport ?reliable ~delp ~env:Forwarding.env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ?record_outputs ()
  in
  Runtime.load_slow runtime
    [ Forwarding.route ~at:0 ~dst:2 ~next:1; Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  (backend, runtime)

(* [n] packets from node 0 to node 2, [spacing] seconds apart. *)
let inject_packets runtime ~spacing n =
  for i = 0 to n - 1 do
    Runtime.inject runtime ~delay:(float_of_int i *. spacing)
      (Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
  done

let crash_spacing = 0.01

(* The three-node world as the crash figures run it: a crashable direct
   transport under Reliable, Advanced, and [packets] packets 10 ms apart;
   with [durable], a WAL and checkpoints attached first and four seeded
   outages over most of the injection window. Downtimes stay far below
   the retry budget. *)
let crash_world cfg ~packets ~durable =
  let crashable, control = Transport.crashable (Transport.direct ~nodes:3 ()) in
  let backend, runtime =
    three_node ~reliable:Reliable.default_config ~record_outputs:false ~scheme:Backend.S_advanced
      crashable
  in
  let config = { Durable.checkpoint_every = 32; rebase_every = 8 } in
  let durable = if durable then Some (Durable.attach ~backend ~runtime ~control ~config ()) else None in
  inject_packets runtime ~spacing:crash_spacing packets;
  let schedule =
    match durable with
    | None -> []
    | Some d ->
        let s =
          Durable.random_schedule ~seed:cfg.seed ~nodes:3 ~count:4
            ~horizon:(float_of_int packets *. crash_spacing *. 0.8)
            ~min_down:(10.0 *. crash_spacing) ~max_down:(40.0 *. crash_spacing)
        in
        Durable.schedule d s;
        s
  in
  (backend, runtime, control, durable, schedule)

(* ------------------------------------------------------------------ *)
(* Shared runners *)

let pct_levels = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

(* Figures 8 and 13: the CDF of per-node storage growth rate, a row per
   scheme. [run scheme] returns the run's backend and input count; the
   result gives each scheme's rates to the shape check. *)
let cdf_figure ctx ~duration run =
  let per_scheme =
    List.map
      (fun s ->
        let backend, injected = run s in
        add_events ctx injected;
        (s, Measure.per_node_rates ~backend ~nodes:100 ~duration))
      schemes
  in
  Table_fmt.print
    ~header:("scheme" :: List.map (Printf.sprintf "p%.0f") pct_levels)
    ~rows:
      (List.map
         (fun (s, rates) ->
           label s :: List.map (fun p -> Table_fmt.human_rate (Stats.percentile rates p)) pct_levels)
         per_scheme);
  fun s -> List.assoc s per_scheme

(* Figures 9 and 16: provenance bytes over time, a column per scheme, and
   each scheme's growth per second, which the result gives to the shape
   check. [run scheme] returns the run's input count and snapshots; the
   disk-fill time is printed in [unit]s of [secs] seconds. *)
let growth_figure ctx ~duration ~fill:(unit, secs) run =
  let runs =
    List.map
      (fun s ->
        let injected, snaps = run s in
        add_events ctx injected;
        add_series ctx (label s) snaps;
        (s, snaps))
      schemes
  in
  Table_fmt.print
    ~header:("t (s)" :: List.map label schemes)
    ~rows:
      (List.mapi
         (fun i (t, _) ->
           Printf.sprintf "%.0f" t
           :: List.map (fun (_, snaps) -> Table_fmt.human_bytes (snd (List.nth snaps i))) runs)
         (snd (List.hd runs)));
  let growth s = float_of_int (snd (last (List.assoc s runs))) /. duration in
  List.iter
    (fun s ->
      let g = growth s in
      Printf.printf "%-10s grows at %s; would fill a 1TB disk in %.1f %s\n" (label s)
        (Table_fmt.human_rate g) (1e12 /. g /. secs) unit)
    schemes;
  growth

(* Figures 10 and 14: storage after a fixed input, swept over [xs] (a row
   per point, a column per scheme), and the shape both claim: ExSPAN flat
   within [flat] and Advanced growing with x yet lowest throughout.
   [run scheme x] returns the run's input count and storage. *)
let sweep_figure ctx ~check ~xname ~flat ~claim xs run =
  let results =
    List.map
      (fun x ->
        ( x,
          List.map
            (fun s ->
              let injected, bytes = run s x in
              add_events ctx injected;
              (s, bytes))
            schemes ))
      xs
  in
  let series s = List.map (fun (_, ps) -> List.assoc s ps) results in
  List.iter
    (fun s -> add_series ctx (label s) (List.map2 (fun x b -> (float_of_int x, b)) xs (series s)))
    schemes;
  Table_fmt.print
    ~header:(xname :: List.map label schemes)
    ~rows:
      (List.map
         (fun (x, ps) -> string_of_int x :: List.map (fun (_, b) -> Table_fmt.human_bytes b) ps)
         results);
  let ex = series Backend.S_exspan and ad = series Backend.S_advanced in
  let spread =
    float_of_int (List.fold_left max 0 ex) /. float_of_int (max 1 (List.fold_left min max_int ex))
  in
  shape_check ctx check
    (spread < flat && last ad > List.hd ad && List.for_all2 ( > ) ex ad)
    (Printf.sprintf "ExSPAN spread x%.2f %s" spread claim)

(* ------------------------------------------------------------------ *)
(* Figure 8: CDF of per-node storage growth rate (forwarding). *)

let fig8 cfg ctx =
  let pairs = if cfg.paper_scale then 100 else 30 in
  let rate = if cfg.paper_scale then 100.0 else 20.0 in
  let duration = if cfg.paper_scale then 10.0 else 5.0 in
  Printf.printf "workload: %d pairs, %.0f packets/s each, %.0fs, 100-node transit-stub\n"
    pairs rate duration;
  let rates =
    cdf_figure ctx ~duration (fun scheme ->
      let d, injected, _, _ =
        forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500 ~record_outputs:false ()
      in
      (d.backend, injected))
  in
  let median s = Stats.median (rates s) and p90 s = Stats.percentile (rates s) 90.0 in
  shape_check ctx "fig8"
    (median Backend.S_basic < median Backend.S_exspan
    && p90 Backend.S_advanced *. 3.0 < p90 Backend.S_exspan)
    (Printf.sprintf "median ExSPAN %s, Basic %s; p90 Advanced %s vs ExSPAN %s"
       (Table_fmt.human_rate (median Backend.S_exspan))
       (Table_fmt.human_rate (median Backend.S_basic))
       (Table_fmt.human_rate (p90 Backend.S_advanced))
       (Table_fmt.human_rate (p90 Backend.S_exspan)))

(* ------------------------------------------------------------------ *)
(* Figure 9: total storage growth over time (forwarding). *)

let fig9 cfg ctx =
  let pairs = if cfg.tiny then 5 else if cfg.paper_scale then 100 else 30 in
  let rate = if cfg.tiny then 5.0 else if cfg.paper_scale then 100.0 else 20.0 in
  (* The paper ran 100 s (1M packets); ExSPAN's tables for that run need
     several GB, so even paper scale caps the duration — growth is linear,
     so the per-second rates are unaffected. *)
  let duration = if cfg.tiny then 2.0 else if cfg.paper_scale then 20.0 else 10.0 in
  let every = if cfg.paper_scale then 2.0 else 1.0 in
  Printf.printf "workload: %d pairs, %.0f packets/s each, %.0fs, snapshots every %.0fs%s\n"
    pairs rate duration every
    (if cfg.paper_scale then " (paper ran 100 s; duration capped, rates are per-second)" else "");
  let growth =
    growth_figure ctx ~duration ~fill:("hours", 3600.0) (fun scheme ->
      let _, injected, snaps, _ =
        forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500 ~snapshots_every:every
          ~record_outputs:false ()
      in
      (injected, !snaps))
  in
  let gx = growth Backend.S_exspan and gb = growth Backend.S_basic and ga = growth Backend.S_advanced in
  shape_check ctx "fig9"
    (gb < gx && ga *. 5.0 < gx)
    (Printf.sprintf "growth ExSPAN %s, Basic %s, Advanced %s (paper: 131/109/10.3 MB/s)"
       (Table_fmt.human_rate gx) (Table_fmt.human_rate gb) (Table_fmt.human_rate ga))

(* ------------------------------------------------------------------ *)
(* Figure 10: storage vs number of communicating pairs, fixed packets. *)

let fig10 cfg ctx =
  sweep_figure ctx ~check:"fig10" ~xname:"pairs" ~flat:1.6
    ~claim:"(flat), Advanced grows with pairs yet stays lowest"
    (if cfg.paper_scale then [ 10; 25; 50; 75; 100 ] else [ 10; 20; 40; 60; 80 ])
    (fun scheme pairs ->
      let ts, routing, rng = transit_stub cfg in
      let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
      let d = Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list () in
      let injected = Forwarding_driver.inject_total d ~total:2000 ~duration:10.0 ~payload_size:500 in
      Forwarding_driver.run d;
      (injected, Measure.total_provenance_bytes d.backend))

(* ------------------------------------------------------------------ *)
(* Figure 11: bandwidth during forwarding (+ §5.5 update variant). *)

let fig11 cfg ctx =
  let pairs = if cfg.tiny then 8 else if cfg.paper_scale then 500 else 50 in
  let per_pair = if cfg.tiny then 20 else 100 in
  let duration = 10.0 in
  let rate = float_of_int per_pair /. duration in
  Printf.printf "workload: %d pairs x %d packets, 500-byte payloads\n" pairs per_pair;
  let ts, routing, _ = transit_stub cfg in
  let pair_list = Pairs.select ~rng:(Rng.create ~seed:cfg.seed) ~eligible:ts.stub_nodes ~count:pairs in
  let run_driver ?(updates = false) (d : Forwarding_driver.t) =
    add_events ctx (Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500);
    if updates then begin
      (* §5.5 variant: refresh one pair's routes periodically (the paper
         updates a route every 10 seconds). A refresh is a delete followed
         by a reinsert — re-inserting a present tuple alone is a no-op and
         would broadcast nothing. *)
      let update_every = 5.0 in
      let pair_arr = Array.of_list pair_list in
      for k = 0 to int_of_float (duration /. update_every) - 1 do
        Sim.schedule (Forwarding_driver.sim_exn d)
          ~delay:((float_of_int k +. 0.5) *. update_every) (fun () ->
          let src, dst = pair_arr.(k mod Array.length pair_arr) in
          List.iter
            (fun t ->
              ignore (Runtime.delete_slow_runtime d.runtime t);
              Runtime.insert_slow_runtime d.runtime t)
            (Forwarding.routes_for_pair routing ~src ~dst))
      done
    end;
    Forwarding_driver.run d;
    Transport.total_bytes d.transport
  in
  let setup ?faults ?fault_seed ?reliable scheme =
    Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list ?faults
      ?fault_seed ?reliable ()
  in
  let baseline =
    (* No provenance at all: the null hook. *)
    let delp = Forwarding.delp () in
    let runtime =
      forwarding_world ~transport:(sim_transport ts routing) ~delp ~hook:Prov_hook.null
        (Forwarding.routes_for_pairs routing pair_list)
    in
    let backend = Backend.make Backend.S_basic ~delp ~env:Forwarding.env ~nodes:100 in
    let transport = Runtime.transport runtime in
    run_driver { sim = None; transport; runtime; backend; routing; pairs = pair_list; fault_stats = None }
  in
  let results = List.map (fun s -> (label s, run_driver (setup s))) schemes in
  let adv_updates = run_driver ~updates:true (setup Backend.S_advanced) in
  (* Same workload over a lossy network, with the reliable-delivery layer
     keeping effects exactly-once. Total bytes now include the delivery
     layer's own traffic; the ack/retransmit adders are reported apart so
     the protocol overhead is visible next to the provenance overhead. *)
  let adv_reliable, (rel : Reliable.stats) =
    let d =
      setup Backend.S_advanced
        ~faults:(Transport.fault_config ~drop:0.05 ~duplicate:0.02 ~delay:0.1 ~delay_max:0.005 ())
        ~fault_seed:(cfg.seed + 11) ~reliable:Reliable.default_config
    in
    let total = run_driver d in
    (total, Reliable.stats (Option.get (Runtime.reliability d.runtime)))
  in
  let rows =
    ("no provenance", baseline, 0.0)
    :: List.map
         (fun (name, b) -> (name, b, pct b baseline))
         (results
         @ [ ("Advanced + route updates", adv_updates); ("Advanced + reliable (lossy net)", adv_reliable) ])
  in
  Table_fmt.print ~header:[ "scheme"; "total bytes"; "overhead vs baseline" ]
    ~rows:(List.map (fun (n, b, p) -> [ n; Table_fmt.human_bytes b; Printf.sprintf "%.2f%%" p ]) rows);
  Printf.printf
    "reliable delivery adders: %s retransmitted (%d msgs), %s acks (%d msgs), %d duplicates suppressed, %d abandoned\n"
    (Table_fmt.human_bytes rel.retransmit_bytes) rel.retransmits
    (Table_fmt.human_bytes rel.ack_bytes_total) rel.acks rel.dup_dropped rel.abandoned;
  let x = float_of_int pairs in
  List.iter (fun (name, b, _) -> add_series ctx name [ (x, b) ]) rows;
  add_series ctx "reliable retransmit bytes" [ (x, rel.retransmit_bytes) ];
  add_series ctx "reliable ack bytes" [ (x, rel.ack_bytes_total) ];
  let ad = List.assoc "Advanced" results and ex = List.assoc "ExSPAN" results in
  let upd_increase = pct adv_updates ad in
  (* The update-overhead bound assumes the packet stream dwarfs the fixed
     per-update broadcast cost; at tiny scale it does not, so only the
     scheme comparison and the delivery-layer sanity apply there. *)
  let updates_ok = cfg.tiny || upd_increase < 5.0 in
  let reliable_ok = rel.abandoned = 0 && rel.retransmits > 0 && adv_reliable > ad in
  shape_check ctx "fig11"
    (float_of_int ad < 1.15 *. float_of_int ex && updates_ok && reliable_ok)
    (Printf.sprintf
       "Advanced within %.1f%% of ExSPAN (payload dominates); updates add %.2f%%%s (paper: 0.6%%); lossy run lost nothing"
       (pct ad ex) upd_increase
       (if cfg.tiny then " (not checked at tiny scale)" else ""))

(* ------------------------------------------------------------------ *)
(* Figure 12: CDF of provenance query latency. *)

let fig12 cfg ctx =
  let pairs = if cfg.paper_scale then 100 else 30 in
  let queries = 100 in
  Printf.printf "workload: %d pairs, %d random queries, LAN hop latency + processing costs\n"
    pairs queries;
  let latencies scheme =
    let d, _, _, rng = forwarding_run cfg ~scheme ~pairs ~rate:5.0 ~duration:2.0 ~payload:500 () in
    Forwarding_driver.query_random_outputs d ~rng ~cost:Query_cost.emulation ~count:queries
    |> List.map (fun (r : Query_result.t) -> r.latency *. 1000.0)
  in
  let per_scheme = List.map (fun s -> (s, latencies s)) schemes in
  Table_fmt.print
    ~header:[ "scheme"; "mean (ms)"; "median (ms)"; "p90 (ms)"; "max (ms)" ]
    ~rows:
      (List.map
         (fun (s, ls) ->
           label s
           :: List.map (Printf.sprintf "%.1f")
                [ Stats.mean ls; Stats.median ls; Stats.percentile ls 90.0; Stats.maximum ls ])
         per_scheme);
  let mean s = Stats.mean (List.assoc s per_scheme) in
  let ratio = mean Backend.S_exspan /. mean Backend.S_basic in
  shape_check ctx "fig12"
    (ratio > 1.8 && mean Backend.S_advanced < mean Backend.S_exspan)
    (Printf.sprintf "ExSPAN/Basic mean ratio %.2fx (paper: ~3x; 75ms vs 25.5ms)" ratio)

(* ------------------------------------------------------------------ *)
(* Figure 13: CDF of per-nameserver storage growth rate (DNS). *)

let fig13 cfg ctx =
  let rate = if cfg.paper_scale then 1000.0 else 200.0 in
  let duration = if cfg.paper_scale then 100.0 else 5.0 in
  Printf.printf "workload: %.0f requests/s aggregate, %.0fs, 100 servers, 38 URLs (Zipf)\n"
    rate duration;
  let rates =
    cdf_figure ctx ~duration (fun scheme ->
      let t, injected, _ = dns_run cfg ~scheme ~urls:38 ~rate ~duration () in
      (t.backend, injected))
  in
  let p80 s = Stats.percentile (rates s) 80.0 in
  let reduction = p80 Backend.S_exspan /. max 1.0 (p80 Backend.S_advanced) in
  shape_check ctx "fig13"
    (p80 Backend.S_basic <= p80 Backend.S_exspan && reduction > 2.0)
    (Printf.sprintf "p80 ExSPAN/Advanced = %.1fx (paper: ~4x; 476 vs 121 Kbps)" reduction)

(* ------------------------------------------------------------------ *)
(* Figure 14: DNS storage vs number of URLs, fixed 200 requests. *)

let fig14 cfg ctx =
  sweep_figure ctx ~check:"fig14" ~xname:"URLs" ~flat:1.5
    ~claim:"(flat); Advanced grows with URLs yet stays lowest" [ 5; 10; 20; 30; 38 ]
    (fun scheme urls ->
      let t, injected, _ = dns_run cfg ~scheme ~urls ~rate:0.0 ~duration:5.0 ~total:200 () in
      (injected, Measure.total_provenance_bytes t.backend))

(* ------------------------------------------------------------------ *)
(* Figure 15: DNS bandwidth with continuous requests. *)

let fig15 cfg ctx =
  let total = if cfg.paper_scale then 100_000 else 5_000 in
  let duration = if cfg.paper_scale then 100.0 else 10.0 in
  Printf.printf "workload: %d requests over %.0fs\n" total duration;
  let bytes_of scheme =
    let t, injected, _ =
      dns_run cfg ~scheme ~urls:38 ~rate:0.0 ~duration ~total ~record_outputs:false ()
    in
    add_events ctx injected;
    Sim.total_bytes t.sim
  in
  let results = List.map (fun s -> (s, bytes_of s)) schemes in
  Table_fmt.print
    ~header:[ "scheme"; "total bytes"; "mean bandwidth" ]
    ~rows:
      (List.map
         (fun (s, b) ->
           [ label s; Table_fmt.human_bytes b; Table_fmt.human_rate (float_of_int b /. duration) ])
         results);
  let bytes s = float_of_int (List.assoc s results) in
  let overhead = 100.0 *. (bytes Backend.S_advanced /. bytes Backend.S_exspan -. 1.0) in
  shape_check ctx "fig15"
    (bytes Backend.S_basic < 1.1 *. bytes Backend.S_exspan && overhead > 5.0 && overhead < 80.0)
    (Printf.sprintf
       "Advanced uses %.0f%% more bandwidth than ExSPAN (paper: ~25%%; meta dominates payload-less requests)"
       overhead)

(* ------------------------------------------------------------------ *)
(* Figure 16: DNS storage growth over time. *)

let fig16 cfg ctx =
  let rate = if cfg.paper_scale then 1000.0 else 200.0 in
  let duration = if cfg.paper_scale then 100.0 else 10.0 in
  let every = if cfg.paper_scale then 10.0 else 1.0 in
  Printf.printf "workload: %.0f requests/s, %.0fs, snapshots every %.0fs\n" rate duration every;
  let growth =
    growth_figure ctx ~duration ~fill:("days", 86400.0) (fun scheme ->
      let _, injected, snaps =
        dns_run cfg ~scheme ~urls:38 ~rate ~duration ~snapshots_every:every ~record_outputs:false ()
      in
      (injected, !snaps))
  in
  let gx = growth Backend.S_exspan and gb = growth Backend.S_basic and ga = growth Backend.S_advanced in
  shape_check ctx "fig16"
    (gb < gx && ga < gb)
    (Printf.sprintf "growth %s / %s / %s (paper: 13.15 / 11.57 / 3.81 Mbps)"
       (Table_fmt.human_rate gx) (Table_fmt.human_rate gb) (Table_fmt.human_rate ga))

(* ------------------------------------------------------------------ *)
(* Ablation: §5.4 inter-class compression. *)

let ablation_interclass cfg ctx =
  (* Many clients requesting the same URLs: every (client, URL) pair is its
     own equivalence class, but all classes for one URL share the whole
     server-side chain — exactly the §5.4 sharing opportunity. *)
  let seed = cfg.seed in
  let spec =
    Dns_workload.generate ~rng:(Rng.create ~seed) ~servers:60 ~backbone_depth:15 ~urls:5 ~clients:10
  in
  let run scheme =
    let t = Dns_workload.setup ~scheme spec () in
    ignore (Dns_workload.inject_n_requests t ~rng:(Rng.create ~seed:(seed + 1)) ~total:500 ~duration:5.0);
    Dns_workload.run t;
    let s = Backend.total_storage t.backend in
    (Rows.provenance_bytes s, s.rule_exec_rows)
  in
  let plain_bytes, plain_rows = run Backend.S_advanced in
  let inter_bytes, inter_rows = run Backend.S_advanced_interclass in
  Table_fmt.print
    ~header:[ "variant"; "prov+ruleExec bytes"; "ruleExec rows" ]
    ~rows:
      [
        [ "Advanced (intra-class only)"; Table_fmt.human_bytes plain_bytes; string_of_int plain_rows ];
        [ "Advanced + inter-class"; Table_fmt.human_bytes inter_bytes; string_of_int inter_rows ];
      ];
  shape_check ctx "ablation-interclass" (inter_bytes < plain_bytes)
    (Printf.sprintf "inter-class saves %.1f%% on crossing DNS traffic"
       (100.0 *. (1.0 -. (float_of_int inter_bytes /. float_of_int plain_bytes))))

(* ------------------------------------------------------------------ *)
(* Ablation: runtime computation overhead of provenance maintenance (the
   paper claims "negligible network overhead added to each monitored
   network application at runtime"; this measures the computational side —
   wall-clock per event with each scheme versus no provenance at all). *)

let ablation_overhead cfg ctx =
  let ts, routing, rng = transit_stub cfg in
  let pairs = Array.of_list (Pairs.select ~rng ~eligible:ts.stub_nodes ~count:20) in
  let delp = Forwarding.delp () in
  let routes = Forwarding.routes_for_pairs routing (Array.to_list pairs) in
  let events = 4000 in
  let run hook =
    let rt = forwarding_world ~transport:(sim_transport ts routing) ~delp ~hook routes in
    for seq = 0 to events - 1 do
      let src, dst = pairs.(seq mod Array.length pairs) in
      Runtime.inject rt (Forwarding.packet ~src ~dst ~payload:(Printf.sprintf "p%d" seq))
    done;
    timed_run rt
  in
  let baseline = run Prov_hook.null in
  let rows =
    ("no provenance", baseline)
    :: List.map
         (fun scheme ->
           let backend = Backend.make scheme ~delp ~env:Forwarding.env ~nodes:100 in
           (label scheme, run (Backend.hook backend)))
         (schemes @ [ Backend.S_advanced_interclass ])
  in
  let over secs = 100.0 *. (secs /. baseline -. 1.0) in
  Table_fmt.print
    ~header:[ "scheme"; "wall time"; "events/s"; "overhead vs baseline" ]
    ~rows:
      (List.map
         (fun (name, secs) ->
           [
             name;
             Printf.sprintf "%.3f s" secs;
             Printf.sprintf "%.0f" (float_of_int events /. secs);
             Printf.sprintf "%.0f%%" (over secs);
           ])
         rows);
  let advanced = List.assoc "Advanced" rows and exspan = List.assoc "ExSPAN" rows in
  shape_check ctx "ablation-overhead" (advanced < exspan)
    (Printf.sprintf "Advanced's runtime cost (%.0f%% over baseline) below ExSPAN's (%.0f%%)"
       (over advanced) (over exspan))

(* ------------------------------------------------------------------ *)
(* Ablation: delta checkpoints vs full-state cuts on the Fig 8
   forwarding workload. Same world, same compaction cadence; the only
   knob is [rebase_every] (1 = serialize full node state at every cut, 8
   = ship dirty rows and rebase every 8th cut). The claim: once tables
   are large, serialized bytes per cut shrink by well over 5x. *)

let ablation_checkpoint cfg ctx =
  let pairs = if cfg.tiny then 5 else 30 in
  let rate = if cfg.tiny then 5.0 else 20.0 in
  (* Twice the Fig 8 window: full cuts grow with accumulated state while
     deltas stay O(changes), so the gap needs room to open. *)
  let duration = if cfg.tiny then 2.0 else 10.0 in
  let ts, routing, rng = transit_stub cfg in
  let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
  let run scheme rebase_every =
    let crashable, control = Transport.crashable (sim_transport ts routing) in
    let d =
      Forwarding_driver.setup_on ~transport:crashable ~scheme ~routing ~pairs:pair_list
        ~record_outputs:false ()
    in
    let durable =
      Durable.attach ~backend:d.backend ~runtime:d.runtime ~control
        ~config:{ Durable.checkpoint_every = (if cfg.tiny then 8 else 32); rebase_every } ()
    in
    let injected = Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500 in
    Forwarding_driver.run d;
    (* Count only nodes that compacted beyond the attach-time checkpoint
       0 — idle transit nodes would otherwise swamp the average with
       empty full cuts (identical under both configs). *)
    let stats =
      List.init (Array.length (Backend.nodes d.backend)) (Durable.node_stats durable)
      |> List.filter (fun (s : Durable.node_stats) -> s.checkpoints >= 2)
    in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    ( injected, List.length stats, sum (fun s -> s.checkpoints), sum (fun s -> s.checkpoint_bytes),
      sum (fun s -> s.delta_cuts), sum (fun s -> s.delta_bytes) )
  in
  let measurements =
    List.map
      (fun scheme ->
        let injected, _, fo_cuts, fo_bytes, _, _ = run scheme 1 in
        let _, counted, cuts, bytes, dcuts, dbytes = run scheme 8 in
        add_events ctx injected;
        (* Within the delta run: average full rebase vs average delta. *)
        let full_avg = float_of_int (bytes - dbytes) /. float_of_int (max 1 (cuts - dcuts)) in
        let delta_avg = float_of_int dbytes /. float_of_int (max 1 dcuts) in
        let blended_full = float_of_int fo_bytes /. float_of_int (max 1 fo_cuts) in
        let blended_delta = float_of_int bytes /. float_of_int (max 1 cuts) in
        (* Each counted node's checkpoint 0 is a full cut; a rebase
           is any full cut beyond those. *)
        let rebased = cuts - dcuts > counted in
        (scheme, dcuts, full_avg, delta_avg, blended_full /. blended_delta, rebased))
      schemes
  in
  Table_fmt.print
    ~header:
      [ "scheme"; "delta cuts"; "full bytes/cut"; "delta bytes/cut"; "shrink"; "total vs full-only" ]
    ~rows:
      (List.map
         (fun (scheme, dcuts, full_avg, delta_avg, blended, _) ->
           [
             label scheme;
             string_of_int dcuts;
             Table_fmt.human_bytes (int_of_float full_avg);
             Table_fmt.human_bytes (int_of_float delta_avg);
             Printf.sprintf "%.1fx" (full_avg /. delta_avg);
             Printf.sprintf "%.1fx" blended;
           ])
         measurements);
  List.iteri
    (fun i (scheme, _, full_avg, delta_avg, _, _) ->
      add_series ctx
        (label scheme ^ " bytes per cut")
        [ (float_of_int i, int_of_float full_avg); (float_of_int i +. 0.5, int_of_float delta_avg) ])
    measurements;
  let ratios = List.map (fun (_, _, full_avg, delta_avg, _, _) -> full_avg /. delta_avg) measurements in
  let worst = List.fold_left Float.min infinity ratios in
  if List.for_all (fun (_, _, _, _, _, rebased) -> rebased) measurements then
    shape_check ctx "ablation-checkpoint" (worst >= 5.0)
      (Printf.sprintf "bytes per cut shrink %.1fx-%.1fx (full -> delta), every scheme >= 5x" worst
         (List.fold_left Float.max 0.0 ratios))
  else
    print_endline
      "SHAPE CHECK [ablation-checkpoint]: SKIPPED (no node cut a full checkpoint after \
       checkpoint 0, so full bytes/cut is the empty checkpoint 0 and the shrink is undefined)"

(* ------------------------------------------------------------------ *)
(* Metrics registry dump: the three-node world under both transports.
   The sim-backed run and the zero-latency direct run process the same
   events, so the runtime.* and store.* counters must agree; only shipped
   bytes differ (the direct backend charges each message once instead of
   per hop). *)

let metrics_report _cfg _ctx =
  let sim = three_node_sim () in
  List.iter
    (fun transport ->
      let _, rt = three_node ~scheme:Backend.S_advanced transport in
      inject_packets rt ~spacing:0.0 10;
      Runtime.run rt;
      Printf.printf "\n-- transport: %s --\n" (Transport.name transport);
      Table_fmt.print ~header:[ "metric"; "kind"; "value" ] ~rows:(Measure.metrics_rows rt))
    [ sim; Transport.direct ~nodes:3 () ]

(* ------------------------------------------------------------------ *)
(* Crash-fault tolerance (not a paper figure: §6 assumes fault-free runs).
   The three-node forwarding pipeline under a seeded schedule of
   whole-node crashes with durable recovery (Durable WAL + checkpoints),
   against the same pipeline bare. Reports: the journaling overhead in
   wall clock and bytes, per-node crash.* counters, and a query fired
   mid-outage that must degrade (partial, bounded) instead of hanging. *)

let fig_crash cfg ctx =
  let packets = if cfg.tiny then 60 else if cfg.paper_scale then 4000 else 600 in
  let routing = Routing.compute (three_node_topology ()) in
  (* Baseline: same transport stack, durability off, no crashes. *)
  let _, bare_runtime, _, _, _ = crash_world cfg ~packets ~durable:false in
  let bare_wall = timed_run bare_runtime in
  let bare_outputs = (Runtime.stats bare_runtime).outputs in
  let backend, runtime, control, durable, schedule = crash_world cfg ~packets ~durable:true in
  let durable = Option.get durable in
  (* Fire a provenance query from inside every outage: each must come
     back promptly, marked partial. (The crash.queries_degraded ticks of
     queries whose querier crashes again later are wiped with that node's
     registry — store counters are volatile by design.) *)
  let out = Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"p0" in
  let query () =
    Backend.query backend ~cost:Query_cost.simulation ~routing ~up:(Durable.is_up durable) out
  in
  let mid_outage = ref [] in
  List.iter
    (fun (_, at, downtime) ->
      Transport.schedule (Runtime.transport runtime) ~delay:(at +. (downtime /. 2.0)) (fun () ->
        mid_outage := query () :: !mid_outage))
    schedule;
  let wall = timed_run runtime in
  let outputs = (Runtime.stats runtime).outputs in
  Printf.printf
    "workload: %d packets over %.0fs (sim), %d scheduled outages, checkpoint every 32 entries\n"
    packets (float_of_int packets *. crash_spacing) (List.length schedule);
  List.iter
    (fun (node, at, downtime) ->
      Printf.printf "  outage: node %d down %.2fs-%.2fs\n" node at (at +. downtime))
    schedule;
  let stats = List.init 3 (Durable.node_stats durable) in
  let degraded n =
    Metrics.counter_value (Node.metrics (Backend.nodes backend).(n)) "crash.queries_degraded"
  in
  Table_fmt.print
    ~header:
      [ "node"; "crashes"; "checkpoints"; "ckpt bytes"; "wal entries"; "wal bytes";
        "recovery ms"; "queries degraded" ]
    ~rows:
      (List.mapi
         (fun n (s : Durable.node_stats) ->
           [
             string_of_int n;
             string_of_int s.crashes;
             string_of_int s.checkpoints;
             Table_fmt.human_bytes s.checkpoint_bytes;
             string_of_int s.wal_entries;
             Table_fmt.human_bytes s.wal_bytes;
             string_of_int s.recovery_ms;
             string_of_int (degraded n);
           ])
         stats);
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let wal_bytes = total (fun (s : Durable.node_stats) -> s.wal_bytes) in
  let prov_bytes = Measure.total_provenance_bytes backend in
  Printf.printf "journal: %s for %s of provenance (%.1fx); wall %.3fs vs %.3fs bare (+%.0f%%)\n"
    (Table_fmt.human_bytes wal_bytes)
    (Table_fmt.human_bytes prov_bytes)
    (float_of_int wal_bytes /. float_of_int (max 1 prov_bytes))
    wall bare_wall
    (100.0 *. ((wall /. Float.max 1e-9 bare_wall) -. 1.0));
  shape_check ctx "crash-lossless"
    (outputs = bare_outputs && bare_outputs = packets)
    (Printf.sprintf "%d/%d packets delivered across %d crashes" outputs packets
       (total (fun (s : Durable.node_stats) -> s.crashes)));
  (match !mid_outage with
  | [] -> shape_check ctx "crash-degraded-query" false "no outage was scheduled"
  | rs ->
      shape_check ctx "crash-degraded-query"
        (List.for_all (fun r -> (not r.Query_result.complete) && r.latency < 60.0) rs)
        (Printf.sprintf "%d mid-outage queries, all partial, slowest %.2fs (bounded)"
           (List.length rs)
           (List.fold_left (fun acc r -> Float.max acc r.Query_result.latency) 0.0 rs)));
  let healed = query () in
  shape_check ctx "crash-recovered"
    (healed.complete && healed.trees <> [])
    "post-recovery query complete and non-empty";
  add_events ctx packets;
  let per_node f = List.mapi (fun n s -> (float_of_int n, f n s)) stats in
  List.iter
    (fun (name, f) -> add_series ctx name (per_node f))
    [
      ("crashes", fun _ (s : Durable.node_stats) -> s.crashes);
      ("checkpoints", fun _ s -> s.checkpoints);
      ("wal bytes", fun _ s -> s.wal_bytes);
      ("checkpoint bytes", fun _ s -> s.checkpoint_bytes);
      ("queries degraded", fun n _ -> degraded n);
    ];
  add_series ctx "suppressed deliveries" [ (0.0, Atomic.get control.Transport.crash_stats.suppressed) ];
  (* Wall clock: declared in the registry, stripped by the golden. *)
  add_series ctx "recovery ms" (per_node (fun _ s -> s.recovery_ms))

(* ------------------------------------------------------------------ *)
(* Domain scaling: the forwarding workload over the sharded multicore
   transport (Shard_sim), swept over shard counts up to [cfg.domains].
   Two claims per point: (a) the digest of the run — runtime stats, total
   provenance bytes, merged metrics — is byte-identical to the 1-domain
   run (the determinism contract of lib/net/shard_sim.mli); (b) on a
   machine with enough cores, wall clock shrinks. The speedup shape check
   is core-gated: on a single-core host the parallel run only pays
   barrier overhead and the check reports the gating instead of failing. *)

let fig_scaling cfg ctx =
  let pairs = if cfg.tiny then 4 else if cfg.paper_scale then 60 else 20 in
  let rate = if cfg.tiny then 5.0 else 20.0 in
  let duration = if cfg.tiny then 2.0 else 5.0 in
  let domain_counts =
    let rec up d = if d > cfg.domains then [] else d :: up (d * 2) in
    match up 1 with [] -> [ 1 ] | l -> l
  in
  Printf.printf "workload: %d pairs, %.0f packets/s each, %.0fs, domains %s\n" pairs rate
    duration
    (String.concat "/" (List.map string_of_int domain_counts));
  let run_at domains =
    let ts, routing, rng = transit_stub cfg in
    let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
    let nodes = Topology.size ts.topology in
    let transport = Shard_sim.transport (Shard_sim.create ~latency:0.0005 ~domains ~nodes ()) in
    let d =
      Forwarding_driver.setup_on ~transport ~scheme:Backend.S_advanced ~routing
        ~pairs:pair_list ~record_outputs:false ()
    in
    let injected = Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500 in
    let wall = timed_run d.runtime in
    let digest =
      ( Runtime.stats d.runtime,
        Measure.total_provenance_bytes d.backend,
        Runtime.metrics_snapshot d.runtime )
    in
    add_events ctx injected;
    (domains, float_of_int injected /. wall, wall, digest)
  in
  let results = List.map run_at domain_counts in
  let _, _, wall1, digest1 = List.hd results in
  Table_fmt.print
    ~header:[ "domains"; "wall (s)"; "events/s"; "speedup"; "digest" ]
    ~rows:
      (List.map
         (fun (domains, eps, wall, digest) ->
           [
             string_of_int domains;
             Printf.sprintf "%.3f" wall;
             Printf.sprintf "%.0f" eps;
             Printf.sprintf "%.2fx" (wall1 /. wall);
             (if digest = digest1 then "= sequential" else "DIVERGED");
           ])
         results);
  add_series ctx "events_per_s_by_domains"
    (List.map (fun (domains, eps, _, _) -> (float_of_int domains, int_of_float eps)) results);
  shape_check ctx "scaling-digests"
    (List.for_all (fun (_, _, _, d) -> d = digest1) results)
    (Printf.sprintf "every shard count reproduces the 1-domain digest (%d points)"
       (List.length results));
  let cores = Domain.recommended_domain_count () in
  let top_domains, _, top_wall, _ = last results in
  let speedup = wall1 /. top_wall in
  if cores >= 4 && top_domains >= 4 then
    shape_check ctx "scaling-speedup" (speedup >= 1.6)
      (Printf.sprintf "%d domains: %.2fx over sequential on %d cores" top_domains speedup cores)
  else
    Printf.printf
      "SHAPE CHECK [scaling-speedup]: SKIPPED (%d core(s) available; %.2fx at %d domains is \
       barrier overhead, not parallelism)\n"
      cores speedup top_domains

(* ------------------------------------------------------------------ *)
(* Query serving tier (not a paper figure): the memoized re-execution
   cache under a Zipfian query storm. Three storms per scheme over one
   forwarding world — cache off (baseline), cold cache (populates; its
   hit rate is the steady-state claim), warm cache (repeat of the same
   seeded storm; its p99 is the speedup claim) — then two liveness
   phases on the Advanced scheme: a storm open-loop-scheduled against a
   still-ingesting run, and a storm across crash windows riding the
   degraded [?up] path. All latencies are modeled (Query_cost), so the
   series are deterministic and the bench gate can pin them. *)

let fig_queries cfg ctx =
  let pairs = if cfg.tiny then 5 else if cfg.paper_scale then 60 else 20 in
  let rate = if cfg.tiny then 5.0 else 20.0 in
  let duration = if cfg.tiny then 2.0 else 5.0 in
  let storm_n = if cfg.tiny then 80 else if cfg.paper_scale then 2000 else 400 in
  let storm_seed = cfg.seed + 3 in
  (* The distinct outputs of a run, cut to a hot set scaled to the storm
     so the Zipf head actually repeats. *)
  let hot_set outputs =
    let seen = Hashtbl.create 256 in
    let targets =
      Array.of_list
        (List.filter
           (fun t -> if Hashtbl.mem seen t then false else (Hashtbl.add seen t (); true))
           outputs)
    in
    Array.sub targets 0 (min (Array.length targets) (max 8 (storm_n / 4)))
  in
  let world scheme = forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500 () in
  Printf.printf
    "workload: %d pairs, %.0f packets/s each, %.0fs; storms of %d Zipfian queries (seed %d)\n"
    pairs rate duration storm_n storm_seed;
  let per_scheme =
    List.map
      (fun scheme ->
        let d, injected, _, _ = world scheme in
        add_events ctx injected;
        let targets = hot_set (Forwarding_driver.received d) in
        let storm () =
          Query_driver.storm
            (Query_driver.create ~backend:d.backend ~routing:d.routing ~targets ~seed:storm_seed ())
            ~count:storm_n ()
        in
        let off = storm () in
        let cache = Backend.attach_query_cache d.backend in
        let cold = storm () in
        let st = Query_cache.stats cache in
        let warm = storm () in
        let hit = float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)) in
        let po = Query_driver.percentiles_ms off and pw = Query_driver.percentiles_ms warm in
        (* The cache must be invisible to results: every storm (off, cold
           populate, warm hit) sees the same completeness and emptiness. *)
        let same (a : Query_driver.outcome) (b : Query_driver.outcome) =
          a.complete = b.complete && a.empty = b.empty
        in
        let transparent = same off cold && same cold warm in
        (scheme, Array.length targets, hit, (po.p50, po.p99), (pw.p50, pw.p99), transparent))
      schemes
  in
  Table_fmt.print
    ~header:
      [ "scheme"; "targets"; "hit rate"; "p50 off (ms)"; "p99 off (ms)"; "p50 warm (ms)";
        "p99 warm (ms)"; "p99 speedup" ]
    ~rows:
      (List.map
         (fun (s, n, hit, (o50, o99), (w50, w99), _) ->
           [ label s; string_of_int n; Printf.sprintf "%.0f%%" (100.0 *. hit) ]
           @ List.map (Printf.sprintf "%.2f") [ o50; o99; w50; w99 ]
           @ [ Printf.sprintf "%.1fx" (o99 /. w99) ])
         per_scheme);
  List.iteri
    (fun i (s, _, hit, (o50, o99), (w50, w99), _) ->
      let point v = [ (float_of_int i, int_of_float v) ] in
      List.iter
        (fun (name, ms) -> add_series ctx (label s ^ name) (point (ms *. 1000.0)))
        [
          (" p99 us (no cache)", o99); (" p50 us (no cache)", o50); (" p99 us (warm cache)", w99);
          (" p50 us (warm cache)", w50);
        ];
      add_series ctx (label s ^ " hit rate %") (point (100.0 *. hit)))
    per_scheme;
  let each f = String.concat ", " (List.map f per_scheme) in
  shape_check ctx "queries-hit-rate"
    (List.for_all (fun (_, _, hit, _, _, _) -> hit >= 0.5) per_scheme)
    (each (fun (s, _, hit, _, _, _) -> Printf.sprintf "%s %.0f%%" (label s) (100.0 *. hit)));
  shape_check ctx "queries-speedup"
    (List.for_all (fun (_, _, _, (_, o99), (_, w99), _) -> w99 < o99) per_scheme)
    (each (fun (s, _, _, (_, o99), (_, w99), _) -> Printf.sprintf "%s %.1fx" (label s) (o99 /. w99)));
  shape_check ctx "queries-transparent"
    (List.for_all (fun (_, _, _, _, _, same) -> same) per_scheme)
    "off/cold/warm storms agree on complete and empty counts";
  (* Phase 2: the same storm open-loop against a run still ingesting —
     queries interleave with writes, the generation checks keep entries
     honest, and every result is complete (nothing is down). *)
  let live =
    let ts, routing, rng = transit_stub cfg in
    let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
    let d =
      Forwarding_driver.setup ~scheme:Backend.S_advanced ~topology:ts.topology ~routing
        ~pairs:pair_list ()
    in
    ignore (Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500);
    ignore (Backend.attach_query_cache d.backend);
    (* Targets from a completed twin of this world: same seed, same
       topology, same injection — its outputs are this run's future. *)
    let targets =
      let d0, _, _, _ = world Backend.S_advanced in
      hot_set (Forwarding_driver.received d0)
    in
    let driver = Query_driver.create ~backend:d.backend ~routing:d.routing ~targets ~seed:storm_seed () in
    let collect =
      Query_driver.schedule_storm driver ~transport:d.transport ~start:(duration /. 4.0)
        ~rate:(float_of_int storm_n /. (duration /. 2.0)) ~count:storm_n ()
    in
    Forwarding_driver.run d;
    collect ()
  in
  Printf.printf
    "concurrent-with-ingest storm: %d issued, %d complete, %d empty (queried before derivation)\n"
    live.issued live.complete live.empty;
  add_series ctx "live storm empty" [ (0.0, live.empty) ];
  shape_check ctx "queries-live"
    (live.issued = storm_n && live.partial = 0 && live.complete = storm_n)
    (Printf.sprintf "%d open-loop queries during ingest, all complete, %d hit not-yet-derived outputs"
       live.issued live.empty);
  (* Phase 3: a storm across the crash figure's outages. Queries landing
     in an outage degrade via [?up] instead of hanging; the cache never
     serves an entry whose dependency is down, and Node.reset
     invalidation drops entries owned by the crashed node. *)
  let crash_outcome, crash_invalidations =
    let packets = if cfg.tiny then 60 else 600 in
    let backend, runtime, _, durable, _ = crash_world cfg ~packets ~durable:true in
    let cache = Backend.attach_query_cache backend in
    (* Query the early packets: derived before the storm starts, so an
       incomplete result means a crash window, not a missing output. *)
    let targets =
      Array.init 16 (fun i -> Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
    in
    let driver =
      Query_driver.create ~backend ~routing:(Routing.compute (three_node_topology ())) ~targets
        ~cost:Query_cost.simulation ~seed:storm_seed ()
    in
    let count = if cfg.tiny then 40 else 120 in
    let start = 20.0 *. crash_spacing in
    let collect =
      Query_driver.schedule_storm driver ~transport:(Runtime.transport runtime)
        ~up:(Durable.is_up (Option.get durable)) ~start
        ~rate:(float_of_int count /. ((float_of_int packets *. crash_spacing) -. start)) ~count ()
    in
    Runtime.run runtime;
    (collect (), (Query_cache.stats cache).invalidations)
  in
  Printf.printf
    "crash-window storm: %d issued, %d complete, %d degraded, %d cache invalidations on reset\n"
    crash_outcome.issued crash_outcome.complete crash_outcome.partial crash_invalidations;
  add_series ctx "crash storm degraded" [ (0.0, crash_outcome.partial) ];
  shape_check ctx "queries-crash-degraded"
    (crash_outcome.partial > 0 && List.for_all (fun l -> l < 60.0) crash_outcome.latencies)
    (Printf.sprintf "%d of %d storm queries degraded inside outages, all bounded"
       crash_outcome.partial crash_outcome.issued)

(* ------------------------------------------------------------------ *)
(* Partition faults: heal latency and the retransmit storm, with and
   without backoff jitter. A star of senders all pointed at one sink is
   cut off for longer than the retry budget, so every channel suspends
   and parks its tail; on the heal they all probe, resurrect, and
   re-offer at once. Without jitter the channels move in lockstep and
   the whole backlog slams the sink in one simulated instant; the
   deterministic per-channel jitter decorrelates them. *)

let fig_partitions cfg ctx =
  let senders = if cfg.tiny then 4 else if cfg.paper_scale then 64 else 16 in
  let per_sender = if cfg.tiny then 3 else 5 in
  let nodes = senders + 1 in
  let heal_at = 2.0 in
  (* Short budget so the outage comfortably outlasts it: retransmits at
     0.05 / 0.1 / 0.2 s after the first send, then the channel parks. *)
  let config jitter =
    { Reliable.timeout = 0.05; backoff = 2.0; max_timeout = 0.2; max_retries = 3; jitter }
  in
  Printf.printf "workload: %d senders x %d messages into node 0, links down 0.0-%.1f s\n" senders
    per_sender heal_at;
  let run jitter =
    let inner, control = Transport.partitionable (Transport.direct ~nodes ()) in
    let rel = Reliable.wrap ~config:(config jitter) inner in
    let tr = Reliable.transport rel in
    (* Cut the whole star before any traffic moves; heal everything at
       [heal_at]. *)
    Transport.schedule_plan tr control
      (Transport.split_plan ~nodes ~left:[ 0 ] ~at:0.0 ~duration:heal_at);
    let delivered = ref 0 in
    let bursts : (float, int) Hashtbl.t = Hashtbl.create 64 in
    for src = 1 to senders do
      for _i = 1 to per_sender do
        Transport.schedule tr ~delay:0.1 (fun () ->
            Transport.send tr ~src ~dst:0 ~bytes:200 (fun () ->
                incr delivered;
                let t = Transport.now tr in
                Hashtbl.replace bursts t (1 + Option.value ~default:0 (Hashtbl.find_opt bursts t))))
      done
    done;
    Transport.run tr;
    let peak_burst = Hashtbl.fold (fun _ n acc -> max n acc) bursts 0 in
    ( Transport.now tr -. heal_at,
      peak_burst,
      !delivered,
      Reliable.stats rel,
      Atomic.get control.Transport.partition_stats.lost )
  in
  let heal_off, burst_off, delivered_off, s_off, lost_off = run 0.0 in
  let heal_on, burst_on, delivered_on, s_on, _ = run 0.3 in
  let row label heal burst (s : Reliable.stats) =
    [
      label;
      Printf.sprintf "%.3f s" heal;
      string_of_int s.retransmits;
      Table_fmt.human_bytes s.retransmit_bytes;
      string_of_int s.probes;
      string_of_int burst;
    ]
  in
  Table_fmt.print
    ~header:[ "backoff"; "heal latency"; "retransmits"; "storm bytes"; "probes"; "peak burst" ]
    ~rows:[ row "no jitter" heal_off burst_off s_off; row "jitter 0.3" heal_on burst_on s_on ];
  Printf.printf
    "suspensions/resurrections: %d/%d without jitter, %d/%d with; %d deliveries lost on down links\n"
    s_off.suspensions s_off.resurrections s_on.suspensions s_on.resurrections lost_off;
  add_events ctx (2 * senders * per_sender);
  add_series ctx "heal latency (s)"
    [ (0.0, int_of_float (1000.0 *. heal_off)); (0.3, int_of_float (1000.0 *. heal_on)) ];
  add_series ctx "storm bytes" [ (0.0, s_off.retransmit_bytes); (0.3, s_on.retransmit_bytes) ];
  add_series ctx "peak burst" [ (0.0, burst_off); (0.3, burst_on) ];
  let total = senders * per_sender in
  shape_check ctx "partitions"
    (delivered_off = total && delivered_on = total
    && s_off.abandoned = 0 && s_on.abandoned = 0
    && s_off.suspensions = senders
    && s_off.suspensions = s_off.resurrections
    && s_on.suspensions = s_on.resurrections
    && lost_off > 0
    && heal_off <= 1.0 && heal_on <= 1.0
    && burst_on < burst_off)
    (Printf.sprintf
       "all %d messages exactly once after heal, nothing left parked; jitter cuts the peak burst %d -> %d"
       total burst_off burst_on)

(* ------------------------------------------------------------------ *)
(* The registry: the only list of figures. [--fig], [--list], the run-all
   default, the golden and CI's determinism diff all iterate it. *)

let fig ?(wall = []) id title run = { id; title; run; wall }

let all =
  [
    fig "fig8" "8: CDF of per-node provenance storage growth rate (packet forwarding)" fig8;
    fig "fig9" "9: Provenance storage growth over time (packet forwarding)" fig9;
    fig "fig10" "10: Storage vs number of communicating pairs (2000 packets total)" fig10;
    fig "fig11" "11: Bandwidth consumption during packet forwarding" fig11;
    fig "fig12" "12: CDF of provenance query latency (emulation cost model)" fig12;
    fig "fig13" "13: CDF of per-nameserver storage growth rate (DNS)" fig13;
    fig "fig14" "14: DNS storage vs number of requested URLs (200 requests total)" fig14;
    fig "fig15" "15: Bandwidth for DNS resolution (continuous requests)" fig15;
    fig "fig16" "16: DNS provenance storage growth over time" fig16;
    fig "ablation_interclass" "A1 (ablation): Inter-equivalence-class compression (§5.4)"
      ablation_interclass;
    fig "ablation_overhead" "A4 (ablation): Runtime overhead of provenance maintenance"
      ablation_overhead
      ~wall:
        [ Line "SHAPE CHECK [ablation-overhead]"; Column "wall time"; Column "events/s";
          Column "overhead vs baseline" ];
    fig "ablation_checkpoint" "A5 (ablation): Delta checkpoints vs full cuts (Fig 8 forwarding workload)"
      ablation_checkpoint;
    fig "crash" "crash: crash-fault tolerance: WAL overhead, recovery, degraded queries" fig_crash
      ~wall:[ Series "recovery ms"; Line "journal: "; Column "recovery ms" ];
    fig "partitions" "partitions: link partitions: heal latency and retransmit storms"
      fig_partitions;
    fig "queries" "Q: Query serving tier: memoized re-execution under a Zipfian query storm"
      fig_queries;
    fig "scaling" "S: Domain scaling: throughput and digest equality vs shard count" fig_scaling
      ~wall:
        [ Series "events_per_s_by_domains"; Line "SHAPE CHECK [scaling-speedup]";
          Column "wall (s)"; Column "events/s"; Column "speedup" ];
    fig "metrics" "metrics: Per-node metrics registry (quickstart under both transports)"
      metrics_report;
  ]
