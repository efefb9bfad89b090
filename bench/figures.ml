(* Regeneration harnesses for every figure in the paper's evaluation
   (§6, Figures 8-16), plus the §5.4 ablation. Each harness prints the same
   series the paper plots and a shape-check line comparing the measured
   ratios against the paper's qualitative claims.

   Default parameters are scaled down from the paper's for wall-clock
   sanity; [paper_scale] selects the published parameters. Absolute numbers
   are not expected to match (the substrate is a simulator); the shapes
   are. *)

open Dpc_util
open Dpc_core
open Dpc_workload

type config = { paper_scale : bool; tiny : bool; seed : int; domains : int }

let default_config = { paper_scale = false; tiny = false; seed = 1; domains = 4 }

let scale_name cfg = if cfg.tiny then "tiny" else if cfg.paper_scale then "paper" else "scaled-down"

let schemes = [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced ]

let scheme_label s = Backend.scheme_name s

let header fig title =
  Printf.printf "\n=== Figure %s: %s ===\n" fig title

(* Shape checks that failed this run: main.exe exits non-zero on any. *)
let mismatches = ref 0

let shape_check name ok detail =
  if not ok then incr mismatches;
  Printf.printf "SHAPE CHECK [%s]: %s (%s)\n" name (if ok then "OK" else "MISMATCH") detail

let pct_levels = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let cdf_row label samples =
  label
  :: List.map (fun p -> Table_fmt.human_rate (Stats.percentile samples p)) pct_levels

let cdf_table rows =
  Table_fmt.print
    ~header:("scheme" :: List.map (fun p -> Printf.sprintf "p%.0f" p) pct_levels)
    ~rows

(* ------------------------------------------------------------------ *)
(* Shared setups *)

let transit_stub cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let ts = Dpc_net.Transit_stub.generate ~rng Dpc_net.Transit_stub.paper_params in
  let routing = Dpc_net.Routing.compute ts.topology in
  (ts, routing, rng)

let forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload ?bucket_width ?snapshots_every
    ?record_outputs () =
  let ts, routing, rng = transit_stub cfg in
  let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
  let d =
    Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list
      ?bucket_width ?record_outputs ()
  in
  let series =
    match snapshots_every with
    | None -> ref []
    | Some every ->
        Measure.storage_snapshots ~sim:(Forwarding_driver.sim_exn d) ~every ~until:duration (fun () ->
          Measure.total_provenance_bytes d.backend)
  in
  let injected = Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:payload in
  Forwarding_driver.run d;
  (d, injected, series, rng)

let dns_run cfg ~scheme ~urls ~rate ~duration ?total ?bucket_width ?snapshots_every
    ?record_outputs () =
  let rng = Rng.create ~seed:cfg.seed in
  let spec = Dns_workload.generate ~rng ~servers:100 ~backbone_depth:27 ~urls ~clients:10 in
  let t = Dns_workload.setup ~scheme spec ?bucket_width ?record_outputs () in
  let series =
    match snapshots_every with
    | None -> ref []
    | Some every ->
        Measure.storage_snapshots ~sim:t.sim ~every ~until:duration (fun () ->
          Measure.total_provenance_bytes t.backend)
  in
  let injected =
    match total with
    | Some total -> Dns_workload.inject_n_requests t ~rng ~total ~duration
    | None -> Dns_workload.inject_requests t ~rng ~rate ~duration
  in
  Dns_workload.run t;
  (t, injected, series)

(* ------------------------------------------------------------------ *)
(* Figure 8: CDF of per-node storage growth rate (forwarding). *)

let fig8 cfg =
  header "8" "CDF of per-node provenance storage growth rate (packet forwarding)";
  let pairs = if cfg.paper_scale then 100 else 30 in
  let rate = if cfg.paper_scale then 100.0 else 20.0 in
  let duration = if cfg.paper_scale then 10.0 else 5.0 in
  Printf.printf "workload: %d pairs, %.0f packets/s each, %.0fs, 100-node transit-stub\n"
    pairs rate duration;
  let rates_of scheme =
    let d, injected, _, _ =
      forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500 ~record_outputs:false ()
    in
    Report.add_events "fig8" injected;
    Measure.per_node_rates ~backend:d.backend ~nodes:100 ~duration
  in
  let per_scheme = List.map (fun s -> (s, rates_of s)) schemes in
  cdf_table (List.map (fun (s, rates) -> cdf_row (scheme_label s) rates) per_scheme);
  let median s = Stats.median (List.assoc s per_scheme) in
  let p90 s = Stats.percentile (List.assoc s per_scheme) 90.0 in
  shape_check "fig8"
    (median Backend.S_basic < median Backend.S_exspan
    && p90 Backend.S_advanced *. 3.0 < p90 Backend.S_exspan)
    (Printf.sprintf "median ExSPAN %s, Basic %s; p90 Advanced %s vs ExSPAN %s"
       (Table_fmt.human_rate (median Backend.S_exspan))
       (Table_fmt.human_rate (median Backend.S_basic))
       (Table_fmt.human_rate (p90 Backend.S_advanced))
       (Table_fmt.human_rate (p90 Backend.S_exspan)))

(* ------------------------------------------------------------------ *)
(* Figure 9: total storage growth over time (forwarding). *)

let fig9 cfg =
  header "9" "Provenance storage growth over time (packet forwarding)";
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
  let runs =
    List.map
      (fun scheme ->
        let _, injected, series, _ =
          forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500
            ~snapshots_every:every ~record_outputs:false ()
        in
        Report.add_events "fig9" injected;
        Report.add_series "fig9" (scheme_label scheme) !series;
        (scheme, !series))
      schemes
  in
  let times = List.map fst (snd (List.hd runs)) in
  Table_fmt.print
    ~header:("t (s)" :: List.map (fun (s, _) -> scheme_label s) runs)
    ~rows:
      (List.mapi
         (fun i t ->
           Printf.sprintf "%.0f" t
           :: List.map (fun (_, series) -> Table_fmt.human_bytes (snd (List.nth series i))) runs)
         times);
  let growth scheme =
    let series = List.assoc scheme runs in
    let _, last = List.nth series (List.length series - 1) in
    float_of_int last /. duration
  in
  let gx = growth Backend.S_exspan and gb = growth Backend.S_basic and ga = growth Backend.S_advanced in
  List.iter
    (fun (name, g) ->
      Printf.printf "%-10s grows at %s; would fill a 1TB disk in %.1f hours\n" name
        (Table_fmt.human_rate g)
        (1e12 /. g /. 3600.0))
    [ ("ExSPAN", gx); ("Basic", gb); ("Advanced", ga) ];
  shape_check "fig9"
    (gb < gx && ga *. 5.0 < gx)
    (Printf.sprintf "growth ExSPAN %s, Basic %s, Advanced %s (paper: 131/109/10.3 MB/s)"
       (Table_fmt.human_rate gx) (Table_fmt.human_rate gb) (Table_fmt.human_rate ga))

(* ------------------------------------------------------------------ *)
(* Figure 10: storage vs number of communicating pairs, fixed packets. *)

let fig10 cfg =
  header "10" "Storage vs number of communicating pairs (2000 packets total)";
  let total = 2000 in
  let pair_counts = if cfg.paper_scale then [ 10; 25; 50; 75; 100 ] else [ 10; 20; 40; 60; 80 ] in
  let storage scheme pairs =
    let ts, routing, rng = transit_stub cfg in
    let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
    let d = Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list () in
    ignore (Forwarding_driver.inject_total d ~total ~duration:10.0 ~payload_size:500);
    Forwarding_driver.run d;
    Measure.total_provenance_bytes d.backend
  in
  let results =
    List.map (fun pairs -> (pairs, List.map (fun s -> (s, storage s pairs)) schemes)) pair_counts
  in
  Report.add_events "fig10" (total * List.length pair_counts * List.length schemes);
  List.iter
    (fun s ->
      Report.add_series "fig10" (scheme_label s)
        (List.map (fun (pairs, ps) -> (float_of_int pairs, List.assoc s ps)) results))
    schemes;
  Table_fmt.print
    ~header:("pairs" :: List.map scheme_label schemes)
    ~rows:
      (List.map
         (fun (pairs, per_scheme) ->
           string_of_int pairs
           :: List.map (fun (_, b) -> Table_fmt.human_bytes b) per_scheme)
         results);
  (* ExSPAN/Basic roughly flat; Advanced grows with pairs but stays lowest. *)
  let series scheme = List.map (fun (_, ps) -> List.assoc scheme ps) results in
  let flatness xs =
    let lo = List.fold_left min max_int xs and hi = List.fold_left max 0 xs in
    float_of_int hi /. float_of_int (max 1 lo)
  in
  let adv = series Backend.S_advanced in
  let adv_grows = List.nth adv (List.length adv - 1) > List.hd adv in
  let adv_below =
    List.for_all2 ( > ) (series Backend.S_exspan) adv
  in
  shape_check "fig10"
    (flatness (series Backend.S_exspan) < 1.6 && adv_grows && adv_below)
    (Printf.sprintf "ExSPAN spread x%.2f (flat), Advanced grows with pairs yet stays lowest"
       (flatness (series Backend.S_exspan)))

(* ------------------------------------------------------------------ *)
(* Figure 11: bandwidth during forwarding (+ §5.5 update variant). *)

let fig11 cfg =
  header "11" "Bandwidth consumption during packet forwarding";
  let pairs = if cfg.tiny then 8 else if cfg.paper_scale then 500 else 50 in
  let per_pair = if cfg.tiny then 20 else 100 in
  let duration = 10.0 in
  let rate = float_of_int per_pair /. duration in
  Printf.printf "workload: %d pairs x %d packets, 500-byte payloads\n" pairs per_pair;
  let ts, routing, _ = transit_stub cfg in
  let pair_list =
    Pairs.select ~rng:(Rng.create ~seed:cfg.seed) ~eligible:ts.stub_nodes ~count:pairs
  in
  let run_driver d ~updates =
    let injected =
      Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500
    in
    Report.add_events "fig11" injected;
    if updates then begin
      (* §5.5 variant: refresh one pair's routes periodically (the paper
         updates a route every 10 seconds). A refresh is a delete followed
         by a reinsert — re-inserting a present tuple alone is a no-op and
         would broadcast nothing. *)
      let update_every = 5.0 in
      let pair_arr = Array.of_list pair_list in
      for k = 0 to int_of_float (duration /. update_every) - 1 do
        Dpc_net.Sim.schedule (Forwarding_driver.sim_exn d)
          ~delay:((float_of_int k +. 0.5) *. update_every) (fun () ->
          let src, dst = pair_arr.(k mod Array.length pair_arr) in
          List.iter
            (fun t ->
              ignore (Dpc_engine.Runtime.delete_slow_runtime d.Forwarding_driver.runtime t);
              Dpc_engine.Runtime.insert_slow_runtime d.Forwarding_driver.runtime t)
            (Dpc_apps.Forwarding.routes_for_pair routing ~src ~dst))
      done
    end;
    Forwarding_driver.run d;
    Dpc_net.Transport.total_bytes d.Forwarding_driver.transport
  in
  let run ?(updates = false) scheme =
    run_driver
      (Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs:pair_list ())
      ~updates
  in
  let baseline =
    (* No provenance at all: the null hook. *)
    let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
    let delp = Dpc_apps.Forwarding.delp () in
    let runtime =
      Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
        ~env:Dpc_apps.Forwarding.env ~hook:Dpc_engine.Prov_hook.null ()
    in
    Dpc_engine.Runtime.load_slow runtime (Dpc_apps.Forwarding.routes_for_pairs routing pair_list);
    let d : Forwarding_driver.t =
      {
        sim = Some sim;
        transport = Dpc_engine.Runtime.transport runtime;
        runtime;
        backend = Backend.make Backend.S_basic ~delp ~env:Dpc_apps.Forwarding.env ~nodes:100;
        routing;
        pairs = pair_list;
        fault_stats = None;
      }
    in
    run_driver d ~updates:false
  in
  let results = List.map (fun s -> (scheme_label s, run s)) schemes in
  let adv_updates = run ~updates:true Backend.S_advanced in
  (* Same workload over a lossy network, with the reliable-delivery layer
     keeping effects exactly-once. Total bytes now include the delivery
     layer's own traffic; the ack/retransmit adders are reported apart so
     the protocol overhead is visible next to the provenance overhead. *)
  let adv_reliable, rel_adders =
    let d =
      Forwarding_driver.setup ~scheme:Backend.S_advanced ~topology:ts.topology ~routing
        ~pairs:pair_list
        ~faults:(Dpc_net.Transport.fault_config ~drop:0.05 ~duplicate:0.02 ~delay:0.1 ~delay_max:0.005 ())
        ~fault_seed:(cfg.seed + 11) ~reliable:Dpc_net.Reliable.default_config ()
    in
    let total = run_driver d ~updates:false in
    let rs =
      match Dpc_engine.Runtime.reliability d.Forwarding_driver.runtime with
      | Some r -> Dpc_net.Reliable.stats r
      | None -> assert false (* setup was given ~reliable *)
    in
    (total, rs)
  in
  let rows =
    ("no provenance", baseline, 0.0)
    :: List.map
         (fun (name, b) ->
           (name, b, 100.0 *. (float_of_int b /. float_of_int baseline -. 1.0)))
         results
    @ [
        ( "Advanced + route updates",
          adv_updates,
          100.0 *. (float_of_int adv_updates /. float_of_int baseline -. 1.0) );
        ( "Advanced + reliable (lossy net)",
          adv_reliable,
          100.0 *. (float_of_int adv_reliable /. float_of_int baseline -. 1.0) );
      ]
  in
  Table_fmt.print ~header:[ "scheme"; "total bytes"; "overhead vs baseline" ]
    ~rows:(List.map (fun (n, b, p) -> [ n; Table_fmt.human_bytes b; Printf.sprintf "%.2f%%" p ]) rows);
  Printf.printf
    "reliable delivery adders: %s retransmitted (%d msgs), %s acks (%d msgs), %d duplicates suppressed, %d abandoned\n"
    (Table_fmt.human_bytes rel_adders.Dpc_net.Reliable.retransmit_bytes)
    rel_adders.Dpc_net.Reliable.retransmits
    (Table_fmt.human_bytes rel_adders.Dpc_net.Reliable.ack_bytes_total)
    rel_adders.Dpc_net.Reliable.acks rel_adders.Dpc_net.Reliable.dup_dropped
    rel_adders.Dpc_net.Reliable.abandoned;
  List.iter
    (fun (name, b, _) -> Report.add_series "fig11" name [ (float_of_int pairs, b) ])
    rows;
  Report.add_series "fig11" "reliable retransmit bytes"
    [ (float_of_int pairs, rel_adders.Dpc_net.Reliable.retransmit_bytes) ];
  Report.add_series "fig11" "reliable ack bytes"
    [ (float_of_int pairs, rel_adders.Dpc_net.Reliable.ack_bytes_total) ];
  let get name = List.assoc name results in
  let ad = get "Advanced" and ex = get "ExSPAN" in
  let upd_increase = 100.0 *. (float_of_int adv_updates /. float_of_int ad -. 1.0) in
  (* The update-overhead bound assumes the packet stream dwarfs the fixed
     per-update broadcast cost; at tiny scale it does not, so only the
     scheme comparison and the delivery-layer sanity apply there. *)
  let updates_ok = cfg.tiny || upd_increase < 5.0 in
  let reliable_ok =
    rel_adders.Dpc_net.Reliable.abandoned = 0
    && rel_adders.Dpc_net.Reliable.retransmits > 0
    && adv_reliable > ad
  in
  shape_check "fig11"
    (float_of_int ad < 1.15 *. float_of_int ex && updates_ok && reliable_ok)
    (Printf.sprintf
       "Advanced within %.1f%% of ExSPAN (payload dominates); updates add %.2f%%%s (paper: 0.6%%); lossy run lost nothing"
       (100.0 *. (float_of_int ad /. float_of_int ex -. 1.0))
       upd_increase
       (if cfg.tiny then " (not checked at tiny scale)" else ""))

(* ------------------------------------------------------------------ *)
(* Figure 12: CDF of provenance query latency. *)

let fig12 cfg =
  header "12" "CDF of provenance query latency (emulation cost model)";
  let pairs = if cfg.paper_scale then 100 else 30 in
  let queries = 100 in
  Printf.printf "workload: %d pairs, %d random queries, LAN hop latency + processing costs\n"
    pairs queries;
  let latencies scheme =
    let d, _, _, rng =
      forwarding_run cfg ~scheme ~pairs ~rate:5.0 ~duration:2.0 ~payload:500 ()
    in
    Forwarding_driver.query_random_outputs d ~rng ~cost:Query_cost.emulation ~count:queries
    |> List.map (fun (r : Query_result.t) -> r.latency *. 1000.0)
  in
  let per_scheme = List.map (fun s -> (s, latencies s)) schemes in
  Table_fmt.print
    ~header:[ "scheme"; "mean (ms)"; "median (ms)"; "p90 (ms)"; "max (ms)" ]
    ~rows:
      (List.map
         (fun (s, ls) ->
           [
             scheme_label s;
             Printf.sprintf "%.1f" (Stats.mean ls);
             Printf.sprintf "%.1f" (Stats.median ls);
             Printf.sprintf "%.1f" (Stats.percentile ls 90.0);
             Printf.sprintf "%.1f" (Stats.maximum ls);
           ])
         per_scheme);
  let mean s = Stats.mean (List.assoc s per_scheme) in
  let ratio = mean Backend.S_exspan /. mean Backend.S_basic in
  shape_check "fig12"
    (ratio > 1.8 && mean Backend.S_advanced < mean Backend.S_exspan)
    (Printf.sprintf "ExSPAN/Basic mean ratio %.2fx (paper: ~3x; 75ms vs 25.5ms)" ratio)

(* ------------------------------------------------------------------ *)
(* Figure 13: CDF of per-nameserver storage growth rate (DNS). *)

let fig13 cfg =
  header "13" "CDF of per-nameserver storage growth rate (DNS)";
  let rate = if cfg.paper_scale then 1000.0 else 200.0 in
  let duration = if cfg.paper_scale then 100.0 else 5.0 in
  Printf.printf "workload: %.0f requests/s aggregate, %.0fs, 100 servers, 38 URLs (Zipf)\n"
    rate duration;
  let rates_of scheme =
    let t, injected, _ = dns_run cfg ~scheme ~urls:38 ~rate ~duration () in
    Report.add_events "fig13" injected;
    Measure.per_node_rates ~backend:t.backend ~nodes:100 ~duration
  in
  let per_scheme = List.map (fun s -> (s, rates_of s)) schemes in
  cdf_table (List.map (fun (s, rates) -> cdf_row (scheme_label s) rates) per_scheme);
  let p80 s = Stats.percentile (List.assoc s per_scheme) 80.0 in
  let reduction = p80 Backend.S_exspan /. max 1.0 (p80 Backend.S_advanced) in
  shape_check "fig13"
    (p80 Backend.S_basic <= p80 Backend.S_exspan && reduction > 2.0)
    (Printf.sprintf "p80 ExSPAN/Advanced = %.1fx (paper: ~4x; 476 vs 121 Kbps)" reduction)

(* ------------------------------------------------------------------ *)
(* Figure 14: DNS storage vs number of URLs, fixed 200 requests. *)

let fig14 cfg =
  header "14" "DNS storage vs number of requested URLs (200 requests total)";
  let url_counts = if cfg.paper_scale then [ 5; 10; 20; 30; 38 ] else [ 5; 10; 20; 30; 38 ] in
  let storage scheme urls =
    let t, injected, _ = dns_run cfg ~scheme ~urls ~rate:0.0 ~duration:5.0 ~total:200 () in
    Report.add_events "fig14" injected;
    Measure.total_provenance_bytes t.backend
  in
  let results =
    List.map (fun urls -> (urls, List.map (fun s -> (s, storage s urls)) schemes)) url_counts
  in
  List.iter
    (fun s ->
      Report.add_series "fig14" (scheme_label s)
        (List.map (fun (urls, ps) -> (float_of_int urls, List.assoc s ps)) results))
    schemes;
  Table_fmt.print
    ~header:("URLs" :: List.map scheme_label schemes)
    ~rows:
      (List.map
         (fun (urls, per_scheme) ->
           string_of_int urls :: List.map (fun (_, b) -> Table_fmt.human_bytes b) per_scheme)
         results);
  let series scheme = List.map (fun (_, ps) -> List.assoc scheme ps) results in
  let ex = series Backend.S_exspan and ad = series Backend.S_advanced in
  let ex_spread =
    float_of_int (List.fold_left max 0 ex) /. float_of_int (max 1 (List.fold_left min max_int ex))
  in
  let ad_grows = List.nth ad (List.length ad - 1) > List.hd ad in
  shape_check "fig14"
    (ex_spread < 1.5 && ad_grows && List.for_all2 ( > ) ex ad)
    (Printf.sprintf "ExSPAN spread x%.2f (flat); Advanced grows with URLs yet stays lowest"
       ex_spread)

(* ------------------------------------------------------------------ *)
(* Figure 15: DNS bandwidth with continuous requests. *)

let fig15 cfg =
  header "15" "Bandwidth for DNS resolution (continuous requests)";
  let total = if cfg.paper_scale then 100_000 else 5_000 in
  let duration = if cfg.paper_scale then 100.0 else 10.0 in
  Printf.printf "workload: %d requests over %.0fs\n" total duration;
  let run scheme =
    let t, injected, _ =
      dns_run cfg ~scheme ~urls:38 ~rate:0.0 ~duration ~total ~bucket_width:1.0
        ~record_outputs:false ()
    in
    Report.add_events "fig15" injected;
    (Dpc_net.Sim.total_bytes t.sim, Measure.bandwidth_series t.sim)
  in
  let results = List.map (fun s -> (s, run s)) schemes in
  Table_fmt.print
    ~header:[ "scheme"; "total bytes"; "mean bandwidth" ]
    ~rows:
      (List.map
         (fun (s, (total_bytes, _)) ->
           [
             scheme_label s;
             Table_fmt.human_bytes total_bytes;
             Table_fmt.human_rate (float_of_int total_bytes /. duration);
           ])
         results);
  let bytes s = float_of_int (fst (List.assoc s results)) in
  let overhead = 100.0 *. (bytes Backend.S_advanced /. bytes Backend.S_exspan -. 1.0) in
  shape_check "fig15"
    (bytes Backend.S_basic < 1.1 *. bytes Backend.S_exspan && overhead > 5.0 && overhead < 80.0)
    (Printf.sprintf
       "Advanced uses %.0f%% more bandwidth than ExSPAN (paper: ~25%%; meta dominates payload-less requests)"
       overhead)

(* ------------------------------------------------------------------ *)
(* Figure 16: DNS storage growth over time. *)

let fig16 cfg =
  header "16" "DNS provenance storage growth over time";
  let rate = if cfg.paper_scale then 1000.0 else 200.0 in
  let duration = if cfg.paper_scale then 100.0 else 10.0 in
  let every = if cfg.paper_scale then 10.0 else 1.0 in
  Printf.printf "workload: %.0f requests/s, %.0fs, snapshots every %.0fs\n" rate duration every;
  let runs =
    List.map
      (fun scheme ->
        let _, injected, series =
          dns_run cfg ~scheme ~urls:38 ~rate ~duration ~snapshots_every:every
            ~record_outputs:false ()
        in
        Report.add_events "fig16" injected;
        Report.add_series "fig16" (scheme_label scheme) !series;
        (scheme, !series))
      schemes
  in
  let times = List.map fst (snd (List.hd runs)) in
  Table_fmt.print
    ~header:("t (s)" :: List.map (fun (s, _) -> scheme_label s) runs)
    ~rows:
      (List.mapi
         (fun i t ->
           Printf.sprintf "%.0f" t
           :: List.map (fun (_, series) -> Table_fmt.human_bytes (snd (List.nth series i))) runs)
         times);
  let growth scheme =
    let series = List.assoc scheme runs in
    float_of_int (snd (List.nth series (List.length series - 1))) /. duration
  in
  let gx = growth Backend.S_exspan and gb = growth Backend.S_basic and ga = growth Backend.S_advanced in
  List.iter
    (fun (name, g) ->
      Printf.printf "%-10s grows at %s; would fill a 1TB disk in %.1f days\n" name
        (Table_fmt.human_rate g)
        (1e12 /. g /. 86400.0))
    [ ("ExSPAN", gx); ("Basic", gb); ("Advanced", ga) ];
  shape_check "fig16"
    (gb < gx && ga < gb)
    (Printf.sprintf "growth %s / %s / %s (paper: 13.15 / 11.57 / 3.81 Mbps)"
       (Table_fmt.human_rate gx) (Table_fmt.human_rate gb) (Table_fmt.human_rate ga))

(* ------------------------------------------------------------------ *)
(* Ablation: §5.4 inter-class compression. *)

let ablation_interclass cfg =
  header "A1 (ablation)" "Inter-equivalence-class compression (§5.4)";
  (* Many clients requesting the same URLs: every (client, URL) pair is its
     own equivalence class, but all classes for one URL share the whole
     server-side chain — exactly the §5.4 sharing opportunity. *)
  let rng = Rng.create ~seed:cfg.seed in
  let spec = Dns_workload.generate ~rng ~servers:60 ~backbone_depth:15 ~urls:5 ~clients:10 in
  let run scheme =
    let rng = Rng.create ~seed:(cfg.seed + 1) in
    let t = Dns_workload.setup ~scheme spec () in
    ignore (Dns_workload.inject_n_requests t ~rng ~total:500 ~duration:5.0);
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
  shape_check "ablation-interclass" (inter_bytes < plain_bytes)
    (Printf.sprintf "inter-class saves %.1f%% on crossing DNS traffic"
       (100.0 *. (1.0 -. (float_of_int inter_bytes /. float_of_int plain_bytes))))

(* ------------------------------------------------------------------ *)
(* Ablation: cross-program compression (§8 future work). *)

let ablation_cross_program cfg =
  header "A2 (ablation)" "Cross-program compression (§8 future work)";
  (* Packet forwarding and the mirroring protocol share Fig 1's forwarding
     rule; both observe the same packet stream over the same routes. *)
  let ts, routing, rng = transit_stub cfg in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:20 in
  let fwd_delp = Dpc_apps.Forwarding.delp () in
  let mirror_delp = Dpc_apps.Mirror.delp () in
  let routes = Dpc_apps.Forwarding.routes_for_pairs routing pairs in
  let inject rt =
    List.iteri
      (fun i (src, dst) ->
        for seq = 0 to 49 do
          Dpc_engine.Runtime.inject rt ~delay:(float_of_int seq *. 0.1)
            (Dpc_apps.Forwarding.packet ~src ~dst ~payload:(Printf.sprintf "p%d-%d" i seq))
        done)
      pairs
  in
  (* Shared store hosting both programs. *)
  let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
  let store = Store_multi.create ~nodes:100 in
  let fwd = Store_multi.add_program store ~id:"forwarding" ~delp:fwd_delp ~env:Dpc_engine.Env.empty in
  let mirror = Store_multi.add_program store ~id:"mirror" ~delp:mirror_delp ~env:Dpc_engine.Env.empty in
  let transport = Dpc_net.Transport.of_sim sim in
  let fwd_rt =
    Dpc_engine.Runtime.create ~transport ~delp:fwd_delp ~env:Dpc_engine.Env.empty
      ~hook:(Store_multi.hook fwd) ~nodes:(Store_multi.nodes store) ()
  in
  let mirror_rt =
    Dpc_engine.Runtime.create ~transport ~delp:mirror_delp ~env:Dpc_engine.Env.empty
      ~hook:(Store_multi.hook mirror) ~nodes:(Store_multi.nodes store) ()
  in
  Dpc_engine.Runtime.load_slow fwd_rt routes;
  Dpc_engine.Runtime.load_slow mirror_rt routes;
  inject fwd_rt;
  inject mirror_rt;
  Dpc_net.Sim.run sim;
  let shared_bytes = Rows.provenance_bytes (Store_multi.total_storage store) in
  (* The same workload in two isolated Advanced+interclass stores. *)
  let isolated delp =
    let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
    let backend = Backend.make Backend.S_advanced_interclass ~delp ~env:Dpc_engine.Env.empty ~nodes:100 in
    let rt =
      Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
        ~env:Dpc_engine.Env.empty ~hook:(Backend.hook backend)
        ~nodes:(Backend.nodes backend) ()
    in
    Dpc_engine.Runtime.load_slow rt routes;
    inject rt;
    Dpc_net.Sim.run sim;
    Rows.provenance_bytes (Backend.total_storage backend)
  in
  let separate_bytes = isolated fwd_delp + isolated mirror_delp in
  Table_fmt.print
    ~header:[ "deployment"; "prov+ruleExec bytes" ]
    ~rows:
      [
        [ "two isolated Advanced+interclass stores"; Table_fmt.human_bytes separate_bytes ];
        [ "one shared cross-program store"; Table_fmt.human_bytes shared_bytes ];
      ];
  shape_check "ablation-cross-program" (shared_bytes < separate_bytes)
    (Printf.sprintf "sharing the forwarding rule saves %.1f%%"
       (100.0 *. (1.0 -. (float_of_int shared_bytes /. float_of_int separate_bytes))))

(* ------------------------------------------------------------------ *)
(* Ablation: reactive maintenance by replay (§3.2 / DTaP), the storage vs
   query-latency trade. *)

let ablation_replay cfg =
  header "A3 (ablation)" "Reactive maintenance by replay (§3.2): storage vs query latency";
  let ts, routing, rng = transit_stub cfg in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:10 in
  let delp = Dpc_apps.Forwarding.delp () in
  let routes = Dpc_apps.Forwarding.routes_for_pairs routing pairs in
  let inject rt =
    List.iteri
      (fun i (src, dst) ->
        for seq = 0 to 19 do
          Dpc_engine.Runtime.inject rt ~delay:(float_of_int seq *. 0.1)
            (Dpc_apps.Forwarding.packet ~src ~dst
               ~payload:(Printf.sprintf "p%d-%d" i seq))
        done)
      pairs
  in
  (* One run per scheme; replay rides along with the Advanced run. *)
  let replay = Replay.create ~delp ~env:Dpc_apps.Forwarding.env ~nodes:100 in
  let run scheme ~with_replay =
    let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
    let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:100 in
    let hook =
      if with_replay then Replay.combine (Backend.hook backend) (Replay.hook replay)
      else Backend.hook backend
    in
    let rt =
      Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
        ~env:Dpc_apps.Forwarding.env ~hook ~nodes:(Backend.nodes backend) ()
    in
    Dpc_engine.Runtime.load_slow rt routes;
    if with_replay then Replay.record_initial_slow replay routes;
    inject rt;
    Dpc_net.Sim.run sim;
    (backend, List.map fst (Dpc_engine.Runtime.outputs rt))
  in
  let sample_queries backend outputs =
    let arr = Array.of_list outputs in
    let g = Rng.create ~seed:7 in
    List.init 10 (fun _ ->
      (Backend.query backend ~cost:Query_cost.emulation ~routing (Rng.pick g arr)).latency
      *. 1000.0)
  in
  let rows = ref [] in
  List.iter
    (fun scheme ->
      let with_replay = scheme = Backend.S_advanced in
      let backend, outputs = run scheme ~with_replay in
      let latencies = sample_queries backend outputs in
      rows :=
        [
          Backend.scheme_name scheme;
          Table_fmt.human_bytes (Rows.provenance_bytes (Backend.total_storage backend));
          Printf.sprintf "%.1f" (Stats.mean latencies);
        ]
        :: !rows;
      if with_replay then begin
        let arr = Array.of_list outputs in
        let g = Rng.create ~seed:7 in
        let replay_latencies =
          List.init 3 (fun _ ->
            (Replay.replay_and_query replay ~topology:ts.topology (Rng.pick g arr)).latency
            *. 1000.0)
        in
        rows :=
          [
            "Replay log (§3.2)";
            Table_fmt.human_bytes (Replay.storage_bytes replay);
            Printf.sprintf "%.1f" (Stats.mean replay_latencies);
          ]
          :: !rows
      end)
    schemes;
  Table_fmt.print ~header:[ "strategy"; "storage"; "mean query latency (ms)" ]
    ~rows:(List.rev !rows);
  print_endline
    "(the log stores only input events; queries pay a full re-execution on top of the lookup)"

(* ------------------------------------------------------------------ *)
(* Ablation: runtime computation overhead of provenance maintenance (the
   paper claims "negligible network overhead added to each monitored
   network application at runtime"; this measures the computational side —
   wall-clock per event with each scheme versus no provenance at all). *)

let ablation_overhead cfg =
  header "A4 (ablation)" "Runtime overhead of provenance maintenance";
  let ts, routing, rng = transit_stub cfg in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:20 in
  let delp = Dpc_apps.Forwarding.delp () in
  let routes = Dpc_apps.Forwarding.routes_for_pairs routing pairs in
  let events = 4000 in
  let run hook =
    let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
    let rt =
      Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
        ~env:Dpc_apps.Forwarding.env ~hook ()
    in
    Dpc_engine.Runtime.load_slow rt routes;
    let pair_arr = Array.of_list pairs in
    for seq = 0 to events - 1 do
      let src, dst = pair_arr.(seq mod Array.length pair_arr) in
      Dpc_engine.Runtime.inject rt
        (Dpc_apps.Forwarding.packet ~src ~dst ~payload:(Printf.sprintf "p%d" seq))
    done;
    let t0 = Dpc_util.Clock.now () in
    Dpc_engine.Runtime.run rt;
    Dpc_util.Clock.now () -. t0
  in
  let baseline = run Dpc_engine.Prov_hook.null in
  let rows =
    ("no provenance", baseline)
    :: List.map
         (fun scheme ->
           let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:100 in
           (Backend.scheme_name scheme, run (Backend.hook backend)))
         (schemes @ [ Backend.S_advanced_interclass ])
  in
  Table_fmt.print
    ~header:[ "scheme"; "wall time"; "events/s"; "overhead vs baseline" ]
    ~rows:
      (List.map
         (fun (name, secs) ->
           [
             name;
             Printf.sprintf "%.3f s" secs;
             Printf.sprintf "%.0f" (float_of_int events /. secs);
             Printf.sprintf "%.0f%%" (100.0 *. (secs /. baseline -. 1.0));
           ])
         rows);
  let advanced = List.assoc "Advanced" rows and exspan = List.assoc "ExSPAN" rows in
  shape_check "ablation-overhead" (advanced < exspan)
    (Printf.sprintf "Advanced's runtime cost (%.0f%% over baseline) below ExSPAN's (%.0f%%)"
       (100.0 *. (advanced /. baseline -. 1.0))
       (100.0 *. (exspan /. baseline -. 1.0)))

(* ------------------------------------------------------------------ *)
(* Ablation: delta checkpoints vs full-state cuts on the Fig 8
   forwarding workload. Same world, same compaction cadence; the only
   knob is [rebase_every] (1 = serialize full node state at every cut, 8
   = ship dirty rows and rebase every 8th cut). The claim: once tables
   are large, serialized bytes per cut shrink by well over 5x. *)

let ablation_checkpoint cfg =
  header "A5 (ablation)" "Delta checkpoints vs full cuts (Fig 8 forwarding workload)";
  let pairs = if cfg.tiny then 5 else 30 in
  let rate = if cfg.tiny then 5.0 else 20.0 in
  (* Twice the Fig 8 window: full cuts grow with accumulated state while
     deltas stay O(changes), so the gap needs room to open. *)
  let duration = if cfg.tiny then 2.0 else 10.0 in
  let ts, routing, rng = transit_stub cfg in
  let pair_list = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:pairs in
  let run scheme rebase_every =
    let sim = Dpc_net.Sim.create ~topology:ts.topology ~routing () in
    let crashable, control =
      Dpc_net.Transport.crashable (Dpc_net.Transport.of_sim sim)
    in
    let d =
      Forwarding_driver.setup_on ~transport:crashable ~scheme ~routing ~pairs:pair_list
        ~record_outputs:false ()
    in
    let durable =
      Durable.attach ~backend:d.backend ~runtime:d.runtime ~control
        ~config:{ Durable.checkpoint_every = (if cfg.tiny then 8 else 32); rebase_every } ()
    in
    let injected =
      Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500
    in
    Forwarding_driver.run d;
    (* Count only nodes that compacted beyond the attach-time checkpoint
       0 — idle transit nodes would otherwise swamp the average with
       empty full cuts (identical under both configs). *)
    let counted = ref 0 and cuts = ref 0 and bytes = ref 0 and dcuts = ref 0 and dbytes = ref 0 in
    for n = 0 to Array.length (Backend.nodes d.backend) - 1 do
      let s = Durable.node_stats durable n in
      if s.checkpoints >= 2 then begin
        incr counted;
        cuts := !cuts + s.checkpoints;
        bytes := !bytes + s.checkpoint_bytes;
        dcuts := !dcuts + s.delta_cuts;
        dbytes := !dbytes + s.delta_bytes
      end
    done;
    (injected, !counted, !cuts, !bytes, !dcuts, !dbytes)
  in
  let measurements =
    List.map
      (fun scheme ->
        let injected, _, fo_cuts, fo_bytes, _, _ = run scheme 1 in
        let _, counted, cuts, bytes, dcuts, dbytes = run scheme 8 in
        Report.add_events "ablation_checkpoint" injected;
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
      [ "scheme"; "delta cuts"; "full bytes/cut"; "delta bytes/cut"; "shrink";
        "total vs full-only" ]
    ~rows:
      (List.map
         (fun (scheme, dcuts, full_avg, delta_avg, blended, _) ->
           [
             scheme_label scheme;
             string_of_int dcuts;
             Table_fmt.human_bytes (int_of_float full_avg);
             Table_fmt.human_bytes (int_of_float delta_avg);
             Printf.sprintf "%.1fx" (full_avg /. delta_avg);
             Printf.sprintf "%.1fx" blended;
           ])
         measurements);
  List.iteri
    (fun i (scheme, _, full_avg, delta_avg, _, _) ->
      Report.add_series "ablation_checkpoint"
        (scheme_label scheme ^ " bytes per cut")
        [ (float_of_int i, int_of_float full_avg);
          (float_of_int i +. 0.5, int_of_float delta_avg) ])
    measurements;
  let ratios =
    List.map (fun (_, _, full_avg, delta_avg, _, _) -> full_avg /. delta_avg) measurements
  in
  let worst = List.fold_left Float.min infinity ratios in
  if List.for_all (fun (_, _, _, _, _, rebased) -> rebased) measurements then
    shape_check "ablation-checkpoint"
      (worst >= 5.0)
      (Printf.sprintf "bytes per cut shrink %.1fx-%.1fx (full -> delta), every scheme >= 5x"
         worst
         (List.fold_left Float.max 0.0 ratios))
  else
    print_endline
      "SHAPE CHECK [ablation-checkpoint]: SKIPPED (no node cut a full checkpoint after \
       checkpoint 0, so full bytes/cut is the empty checkpoint 0 and the shrink is undefined)"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Metrics registry dump: the 3-node quickstart forwarding workload under
   both transports. The sim-backed run and the zero-latency direct run
   process the same events, so the runtime.* and store.* counters must
   agree; only shipped bytes differ (the direct backend charges each
   message once instead of per hop). *)

let metrics_report _cfg =
  header "metrics" "Per-node metrics registry (quickstart under both transports)";
  let delp = Dpc_apps.Forwarding.delp () in
  let run transport =
    let backend =
      Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env
        ~nodes:(Dpc_net.Transport.nodes transport)
    in
    let rt =
      Dpc_engine.Runtime.create ~transport ~delp ~env:Dpc_apps.Forwarding.env
        ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
    in
    Dpc_engine.Runtime.load_slow rt
      [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
        Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
    for seq = 0 to 9 do
      Dpc_engine.Runtime.inject rt
        (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" seq))
    done;
    Dpc_engine.Runtime.run rt;
    rt
  in
  let sim_transport =
    let topo = Dpc_net.Topology.create ~n:3 in
    let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e9 } in
    Dpc_net.Topology.add_link topo 0 1 l;
    Dpc_net.Topology.add_link topo 1 2 l;
    Dpc_net.Transport.of_sim
      (Dpc_net.Sim.create ~topology:topo ~routing:(Dpc_net.Routing.compute topo) ())
  in
  List.iter
    (fun transport ->
      let rt = run transport in
      Printf.printf "\n-- transport: %s --\n" (Dpc_net.Transport.name transport);
      Table_fmt.print ~header:[ "metric"; "kind"; "value" ] ~rows:(Measure.metrics_rows rt))
    [ sim_transport; Dpc_net.Transport.direct ~nodes:3 () ]

(* ------------------------------------------------------------------ *)
(* Crash-fault tolerance (not a paper figure: §6 assumes fault-free runs).
   The quickstart forwarding pipeline under a seeded schedule of
   whole-node crashes with durable recovery (Durable WAL + checkpoints),
   against the same pipeline bare. Reports: the journaling overhead in
   wall clock and bytes, per-node crash.* counters, and a query fired
   mid-outage that must degrade (partial, bounded) instead of hanging. *)

let fig_crash cfg =
  header "crash" "crash-fault tolerance: WAL overhead, recovery, degraded queries";
  let nodes = 3 in
  let packets = if cfg.tiny then 60 else if cfg.paper_scale then 4000 else 600 in
  let spacing = 0.01 in
  let window = float_of_int packets *. spacing in
  let delp = Dpc_apps.Forwarding.delp () in
  let routes =
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]
  in
  let routing =
    let topo = Dpc_net.Topology.create ~n:nodes in
    let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e9 } in
    Dpc_net.Topology.add_link topo 0 1 l;
    Dpc_net.Topology.add_link topo 1 2 l;
    Dpc_net.Routing.compute topo
  in
  let build () =
    let crashable, control =
      Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes ())
    in
    let backend =
      Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes
    in
    let runtime =
      Dpc_engine.Runtime.create ~transport:crashable
        ~reliable:Dpc_net.Reliable.default_config ~delp ~env:Dpc_apps.Forwarding.env
        ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend)
        ~record_outputs:false ()
    in
    Dpc_engine.Runtime.load_slow runtime routes;
    (backend, runtime, control)
  in
  let inject runtime =
    for i = 0 to packets - 1 do
      Dpc_engine.Runtime.inject runtime
        ~delay:(float_of_int i *. spacing)
        (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
    done
  in
  let timed_run runtime =
    let t0 = Dpc_util.Clock.now () in
    Dpc_engine.Runtime.run runtime;
    Dpc_util.Clock.now () -. t0
  in
  (* Baseline: same transport stack, durability off, no crashes. *)
  let _, bare_runtime, _ = build () in
  inject bare_runtime;
  let bare_wall = timed_run bare_runtime in
  let bare_outputs = (Dpc_engine.Runtime.stats bare_runtime).outputs in
  (* Durable run under a seeded crash schedule covering most of the
     injection window; downtimes stay far below the retry budget. *)
  let backend, runtime, control = build () in
  let durable =
    Durable.attach ~backend ~runtime ~control
      ~config:{ Durable.checkpoint_every = 32; rebase_every = 8 } ()
  in
  inject runtime;
  let schedule =
    Durable.random_schedule ~seed:cfg.seed ~nodes ~count:4 ~horizon:(window *. 0.8)
      ~min_down:(10.0 *. spacing) ~max_down:(40.0 *. spacing)
  in
  Durable.schedule durable schedule;
  (* Fire a provenance query from inside every outage: each must come
     back promptly, marked partial. (The crash.queries_degraded ticks of
     queries whose querier crashes again later are wiped with that node's
     registry — store counters are volatile by design.) *)
  let mid_outage = ref [] in
  List.iter
    (fun (_, at, downtime) ->
      Dpc_net.Transport.schedule
        (Dpc_engine.Runtime.transport runtime)
        ~delay:(at +. (downtime /. 2.0))
        (fun () ->
          let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"p0" in
          mid_outage :=
            Backend.query backend ~cost:Query_cost.simulation ~routing
              ~up:(Durable.is_up durable) out
            :: !mid_outage))
    schedule;
  let wall = timed_run runtime in
  let outputs = (Dpc_engine.Runtime.stats runtime).outputs in
  Printf.printf
    "workload: %d packets over %.0fs (sim), %d scheduled outages, checkpoint every 32 entries\n"
    packets window (List.length schedule);
  List.iter
    (fun (node, at, downtime) ->
      Printf.printf "  outage: node %d down %.2fs-%.2fs\n" node at (at +. downtime))
    schedule;
  let stats = List.init nodes (fun n -> (n, Durable.node_stats durable n)) in
  let degraded n =
    Dpc_util.Metrics.counter_value
      (Dpc_engine.Node.metrics (Backend.nodes backend).(n))
      "crash.queries_degraded"
  in
  Table_fmt.print
    ~header:
      [ "node"; "crashes"; "checkpoints"; "ckpt bytes"; "wal entries"; "wal bytes";
        "recovery ms"; "queries degraded" ]
    ~rows:
      (List.map
         (fun (n, (s : Durable.node_stats)) ->
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
  let total f = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats in
  let wal_bytes = total (fun (s : Durable.node_stats) -> s.wal_bytes) in
  let prov_bytes = Measure.total_provenance_bytes backend in
  Printf.printf "journal: %s for %s of provenance (%.1fx); wall %.3fs vs %.3fs bare (+%.0f%%)\n"
    (Table_fmt.human_bytes wal_bytes)
    (Table_fmt.human_bytes prov_bytes)
    (float_of_int wal_bytes /. float_of_int (max 1 prov_bytes))
    wall bare_wall
    (100.0 *. ((wall /. Float.max 1e-9 bare_wall) -. 1.0));
  shape_check "crash-lossless"
    (outputs = bare_outputs && bare_outputs = packets)
    (Printf.sprintf "%d/%d packets delivered across %d crashes" outputs packets
       (total (fun (s : Durable.node_stats) -> s.crashes)));
  (match !mid_outage with
  | [] -> shape_check "crash-degraded-query" false "no outage was scheduled"
  | rs ->
      shape_check "crash-degraded-query"
        (List.for_all (fun r -> (not r.Query_result.complete) && r.latency < 60.0) rs)
        (Printf.sprintf "%d mid-outage queries, all partial, slowest %.2fs (bounded)"
           (List.length rs)
           (List.fold_left (fun acc r -> Float.max acc r.Query_result.latency) 0.0 rs)));
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"p0" in
  let healed =
    Backend.query backend ~cost:Query_cost.simulation ~routing ~up:(Durable.is_up durable) out
  in
  shape_check "crash-recovered"
    (healed.Query_result.complete && healed.trees <> [])
    "post-recovery query complete and non-empty";
  Report.add_events "crash" packets;
  let per_node f = List.map (fun (n, s) -> (float_of_int n, f s)) stats in
  Report.add_series "crash" "crashes" (per_node (fun (s : Durable.node_stats) -> s.crashes));
  Report.add_series "crash" "checkpoints"
    (per_node (fun (s : Durable.node_stats) -> s.checkpoints));
  Report.add_series "crash" "wal bytes" (per_node (fun (s : Durable.node_stats) -> s.wal_bytes));
  Report.add_series "crash" "checkpoint bytes"
    (per_node (fun (s : Durable.node_stats) -> s.checkpoint_bytes));
  Report.add_series "crash" "queries degraded"
    (List.map (fun (n, _) -> (float_of_int n, degraded n)) stats);
  Report.add_series "crash" "suppressed deliveries"
    [ (0.0, Atomic.get control.Dpc_net.Transport.crash_stats.suppressed) ];
  (* Wall-clock derived, stripped by the CI determinism diff. *)
  Report.add_series "crash" "recovery ms"
    (per_node (fun (s : Durable.node_stats) -> s.recovery_ms))

(* ------------------------------------------------------------------ *)
(* Domain scaling: the forwarding workload over the sharded multicore
   transport (Shard_sim), swept over shard counts up to [cfg.domains].
   Two claims per point: (a) the digest of the run — runtime stats, total
   provenance bytes, merged metrics — is byte-identical to the 1-domain
   run (the determinism contract of lib/net/shard_sim.mli); (b) on a
   machine with enough cores, wall clock shrinks. The speedup shape check
   is core-gated: on a single-core host the parallel run only pays
   barrier overhead and the check reports the gating instead of failing. *)

let fig_scaling cfg =
  header "S" "Domain scaling: throughput and digest equality vs shard count";
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
    let nodes = Dpc_net.Topology.size ts.topology in
    let transport =
      Dpc_net.Shard_sim.transport
        (Dpc_net.Shard_sim.create ~latency:0.0005 ~seed:cfg.seed ~domains ~nodes ())
    in
    let d =
      Forwarding_driver.setup_on ~transport ~scheme:Backend.S_advanced ~routing
        ~pairs:pair_list ~record_outputs:false ()
    in
    let injected = Forwarding_driver.inject_stream d ~rate_per_pair:rate ~duration ~payload_size:500 in
    let t0 = Unix.gettimeofday () in
    Forwarding_driver.run d;
    let wall = Unix.gettimeofday () -. t0 in
    let digest =
      ( Dpc_engine.Runtime.stats d.Forwarding_driver.runtime,
        Measure.total_provenance_bytes d.Forwarding_driver.backend,
        Dpc_engine.Runtime.metrics_snapshot d.Forwarding_driver.runtime )
    in
    Report.add_events "scaling" injected;
    (injected, wall, digest)
  in
  let results = List.map (fun domains -> (domains, run_at domains)) domain_counts in
  let _, (_, wall1, digest1) = List.hd results in
  Table_fmt.print
    ~header:[ "domains"; "wall (s)"; "events/s"; "speedup"; "digest" ]
    ~rows:
      (List.map
         (fun (domains, (injected, wall, digest)) ->
           [
             string_of_int domains;
             Printf.sprintf "%.3f" wall;
             Printf.sprintf "%.0f" (float_of_int injected /. wall);
             Printf.sprintf "%.2fx" (wall1 /. wall);
             (if digest = digest1 then "= sequential" else "DIVERGED");
           ])
         results);
  Report.add_series "scaling" "events_per_s_by_domains"
    (List.map
       (fun (domains, (injected, wall, _)) ->
         (float_of_int domains, int_of_float (float_of_int injected /. wall)))
       results);
  let all_equal = List.for_all (fun (_, (_, _, d)) -> d = digest1) results in
  shape_check "scaling-digests" all_equal
    (Printf.sprintf "every shard count reproduces the 1-domain digest (%d points)"
       (List.length results));
  let cores = Domain.recommended_domain_count () in
  let top_domains, (_, top_wall, _) = List.nth results (List.length results - 1) in
  let speedup = wall1 /. top_wall in
  if cores >= 4 && top_domains >= 4 then
    shape_check "scaling-speedup" (speedup >= 1.6)
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

let fig_queries cfg =
  header "Q" "Query serving tier: memoized re-execution under a Zipfian query storm";
  let pairs = if cfg.tiny then 5 else if cfg.paper_scale then 60 else 20 in
  let rate = if cfg.tiny then 5.0 else 20.0 in
  let duration = if cfg.tiny then 2.0 else 5.0 in
  let storm_n = if cfg.tiny then 80 else if cfg.paper_scale then 2000 else 400 in
  let storm_seed = cfg.seed + 3 in
  let dedup_targets outputs =
    let seen = Hashtbl.create 256 in
    List.filter
      (fun t -> if Hashtbl.mem seen t then false else (Hashtbl.add seen t (); true))
      outputs
    |> Array.of_list
  in
  (* Hot set scaled to the storm so the Zipf head actually repeats. *)
  let hot_set targets =
    let keep = min (Array.length targets) (max 8 (storm_n / 4)) in
    Array.sub targets 0 keep
  in
  Printf.printf
    "workload: %d pairs, %.0f packets/s each, %.0fs; storms of %d Zipfian queries (seed %d)\n"
    pairs rate duration storm_n storm_seed;
  let per_scheme =
    List.map
      (fun scheme ->
        let d, injected, _, _ =
          forwarding_run cfg ~scheme ~pairs ~rate ~duration ~payload:500 ()
        in
        Report.add_events "queries" injected;
        let targets = hot_set (dedup_targets (Forwarding_driver.received d)) in
        let storm () =
          Query_driver.storm
            (Query_driver.create ~backend:d.Forwarding_driver.backend
               ~routing:d.Forwarding_driver.routing ~targets ~seed:storm_seed ())
            ~count:storm_n ()
        in
        let off = storm () in
        let cache = Backend.attach_query_cache d.Forwarding_driver.backend in
        let cold = storm () in
        let cold_stats = Query_cache.stats cache in
        let warm = storm () in
        (scheme, Array.length targets, off, cold, cold_stats, warm))
      schemes
  in
  let hit_rate (s : Query_cache.stats) =
    float_of_int s.hits /. float_of_int (max 1 (s.hits + s.misses))
  in
  Table_fmt.print
    ~header:
      [ "scheme"; "targets"; "hit rate"; "p50 off (ms)"; "p99 off (ms)"; "p50 warm (ms)";
        "p99 warm (ms)"; "p99 speedup" ]
    ~rows:
      (List.map
         (fun (scheme, ntargets, off, _, st, warm) ->
           let po = Query_driver.percentiles_ms off
           and pw = Query_driver.percentiles_ms warm in
           [
             scheme_label scheme;
             string_of_int ntargets;
             Printf.sprintf "%.0f%%" (100.0 *. hit_rate st);
             Printf.sprintf "%.2f" po.p50;
             Printf.sprintf "%.2f" po.p99;
             Printf.sprintf "%.2f" pw.p50;
             Printf.sprintf "%.2f" pw.p99;
             Printf.sprintf "%.1fx" (po.p99 /. pw.p99);
           ])
         per_scheme);
  List.iteri
    (fun i (scheme, _, off, _, st, warm) ->
      let po = Query_driver.percentiles_ms off
      and pw = Query_driver.percentiles_ms warm in
      let x = float_of_int i in
      let us ms = int_of_float (ms *. 1000.0) in
      Report.add_series "queries" (scheme_label scheme ^ " p99 us (no cache)") [ (x, us po.p99) ];
      Report.add_series "queries" (scheme_label scheme ^ " p50 us (no cache)") [ (x, us po.p50) ];
      Report.add_series "queries" (scheme_label scheme ^ " p99 us (warm cache)") [ (x, us pw.p99) ];
      Report.add_series "queries" (scheme_label scheme ^ " p50 us (warm cache)") [ (x, us pw.p50) ];
      Report.add_series "queries"
        (scheme_label scheme ^ " hit rate %")
        [ (x, int_of_float (100.0 *. hit_rate st)) ])
    per_scheme;
  shape_check "queries-hit-rate"
    (List.for_all (fun (_, _, _, _, st, _) -> hit_rate st >= 0.5) per_scheme)
    (String.concat ", "
       (List.map
          (fun (s, _, _, _, st, _) ->
            Printf.sprintf "%s %.0f%%" (scheme_label s) (100.0 *. hit_rate st))
          per_scheme));
  shape_check "queries-speedup"
    (List.for_all
       (fun (_, _, off, _, _, warm) ->
         (Query_driver.percentiles_ms warm).p99 < (Query_driver.percentiles_ms off).p99)
       per_scheme)
    (String.concat ", "
       (List.map
          (fun (s, _, off, _, _, warm) ->
            Printf.sprintf "%s %.1fx" (scheme_label s)
              ((Query_driver.percentiles_ms off).p99 /. (Query_driver.percentiles_ms warm).p99))
          per_scheme));
  (* The cache must be invisible to results: every storm (off, cold
     populate, warm hit) sees the same completeness and emptiness. *)
  shape_check "queries-transparent"
    (List.for_all
       (fun (_, _, off, cold, _, warm) ->
         off.Query_driver.complete = cold.Query_driver.complete
         && cold.Query_driver.complete = warm.Query_driver.complete
         && off.Query_driver.empty = cold.Query_driver.empty
         && cold.Query_driver.empty = warm.Query_driver.empty)
       per_scheme)
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
    ignore (Backend.attach_query_cache d.Forwarding_driver.backend);
    (* Targets from a completed twin of this world: same seed, same
       topology, same injection — its outputs are this run's future. *)
    let targets =
      let d0, _, _, _ =
        forwarding_run cfg ~scheme:Backend.S_advanced ~pairs ~rate ~duration ~payload:500 ()
      in
      hot_set (dedup_targets (Forwarding_driver.received d0))
    in
    let driver =
      Query_driver.create ~backend:d.Forwarding_driver.backend
        ~routing:d.Forwarding_driver.routing ~targets ~seed:storm_seed ()
    in
    let storm_rate = float_of_int storm_n /. (duration /. 2.0) in
    let collect =
      Query_driver.schedule_storm driver ~transport:d.Forwarding_driver.transport
        ~start:(duration /. 4.0) ~rate:storm_rate ~count:storm_n ()
    in
    Forwarding_driver.run d;
    collect ()
  in
  Printf.printf
    "concurrent-with-ingest storm: %d issued, %d complete, %d empty (queried before derivation)\n"
    live.Query_driver.issued live.Query_driver.complete live.Query_driver.empty;
  Report.add_series "queries" "live storm empty"
    [ (0.0, live.Query_driver.empty) ];
  shape_check "queries-live"
    (live.Query_driver.issued = storm_n
    && live.Query_driver.partial = 0
    && live.Query_driver.complete = storm_n)
    (Printf.sprintf "%d open-loop queries during ingest, all complete, %d hit not-yet-derived outputs"
       live.Query_driver.issued live.Query_driver.empty);
  (* Phase 3: a storm across crash windows (the fig_crash world). Queries
     landing in an outage degrade via [?up] instead of hanging; the cache
     never serves an entry whose dependency is down, and Node.reset
     invalidation drops entries owned by the crashed node. *)
  let crash_outcome, crash_invalidations =
    let nodes = 3 in
    let packets = if cfg.tiny then 60 else 600 in
    let spacing = 0.01 in
    let window = float_of_int packets *. spacing in
    let delp = Dpc_apps.Forwarding.delp () in
    let routes =
      [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
        Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]
    in
    let routing =
      let topo = Dpc_net.Topology.create ~n:nodes in
      let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e9 } in
      Dpc_net.Topology.add_link topo 0 1 l;
      Dpc_net.Topology.add_link topo 1 2 l;
      Dpc_net.Routing.compute topo
    in
    let crashable, control =
      Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes ())
    in
    let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes in
    let runtime =
      Dpc_engine.Runtime.create ~transport:crashable
        ~reliable:Dpc_net.Reliable.default_config ~delp ~env:Dpc_apps.Forwarding.env
        ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ~record_outputs:false ()
    in
    Dpc_engine.Runtime.load_slow runtime routes;
    let durable =
      Durable.attach ~backend ~runtime ~control
        ~config:{ Durable.checkpoint_every = 32; rebase_every = 8 } ()
    in
    let cache = Backend.attach_query_cache backend in
    for i = 0 to packets - 1 do
      Dpc_engine.Runtime.inject runtime ~delay:(float_of_int i *. spacing)
        (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
    done;
    Durable.schedule durable
      (Durable.random_schedule ~seed:cfg.seed ~nodes ~count:4 ~horizon:(window *. 0.8)
         ~min_down:(10.0 *. spacing) ~max_down:(40.0 *. spacing));
    (* Query the early packets: derived before the storm starts, so an
       incomplete result means a crash window, not a missing output. *)
    let targets =
      Array.init 16 (fun i ->
        Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:(Printf.sprintf "p%d" i))
    in
    let driver =
      Query_driver.create ~backend ~routing ~targets ~cost:Query_cost.simulation
        ~seed:storm_seed ()
    in
    let count = if cfg.tiny then 40 else 120 in
    let start = 20.0 *. spacing in
    let collect =
      Query_driver.schedule_storm driver
        ~transport:(Dpc_engine.Runtime.transport runtime)
        ~up:(Durable.is_up durable) ~start
        ~rate:(float_of_int count /. (window -. start)) ~count ()
    in
    Dpc_engine.Runtime.run runtime;
    (collect (), (Query_cache.stats cache).invalidations)
  in
  Printf.printf
    "crash-window storm: %d issued, %d complete, %d degraded, %d cache invalidations on reset\n"
    crash_outcome.Query_driver.issued crash_outcome.Query_driver.complete
    crash_outcome.Query_driver.partial crash_invalidations;
  Report.add_series "queries" "crash storm degraded"
    [ (0.0, crash_outcome.Query_driver.partial) ];
  let bounded =
    List.for_all (fun l -> l < 60.0) crash_outcome.Query_driver.latencies
  in
  shape_check "queries-crash-degraded"
    (crash_outcome.Query_driver.partial > 0 && bounded)
    (Printf.sprintf "%d of %d storm queries degraded inside outages, all bounded"
       crash_outcome.Query_driver.partial crash_outcome.Query_driver.issued)

(* ------------------------------------------------------------------ *)
(* Partition faults: heal latency and the retransmit storm, with and
   without backoff jitter. A star of senders all pointed at one sink is
   cut off for longer than the retry budget, so every channel suspends
   and parks its tail; on the heal they all probe, resurrect, and
   re-offer at once. Without jitter the channels move in lockstep and
   the whole backlog slams the sink in one simulated instant; the
   deterministic per-channel jitter decorrelates them. *)

let fig_partitions cfg =
  header "partitions" "link partitions: heal latency and retransmit storms";
  let senders = if cfg.tiny then 4 else if cfg.paper_scale then 64 else 16 in
  let per_sender = if cfg.tiny then 3 else 5 in
  let nodes = senders + 1 in
  let heal_at = 2.0 in
  let bytes_per_msg = 200 in
  (* Short budget so the outage comfortably outlasts it: retransmits at
     0.05 / 0.1 / 0.2 s after the first send, then the channel parks. *)
  let config jitter =
    { Dpc_net.Reliable.timeout = 0.05; backoff = 2.0; max_timeout = 0.2; max_retries = 3; jitter }
  in
  Printf.printf "workload: %d senders x %d messages into node 0, links down 0.0-%.1f s\n" senders
    per_sender heal_at;
  let run jitter =
    let inner, control = Dpc_net.Transport.partitionable (Dpc_net.Transport.direct ~nodes ()) in
    let rel = Dpc_net.Reliable.wrap ~config:(config jitter) inner in
    let tr = Dpc_net.Reliable.transport rel in
    (* Cut the whole star before any traffic moves; heal everything at
       [heal_at]. *)
    Dpc_net.Transport.schedule_plan tr control
      (Dpc_net.Transport.split_plan ~nodes ~left:[ 0 ] ~at:0.0 ~duration:heal_at);
    let delivered = ref 0 in
    let bursts : (float, int) Hashtbl.t = Hashtbl.create 64 in
    for src = 1 to senders do
      for i = 1 to per_sender do
        ignore i;
        Dpc_net.Transport.schedule tr ~delay:0.1 (fun () ->
            Dpc_net.Transport.send tr ~src ~dst:0 ~bytes:bytes_per_msg (fun () ->
                incr delivered;
                let t = Dpc_net.Transport.now tr in
                Hashtbl.replace bursts t (1 + Option.value ~default:0 (Hashtbl.find_opt bursts t))))
      done
    done;
    Dpc_net.Transport.run tr;
    let settled = Dpc_net.Transport.now tr in
    let s = Dpc_net.Reliable.stats rel in
    let peak_burst = Hashtbl.fold (fun _ n acc -> max n acc) bursts 0 in
    (settled -. heal_at, peak_burst, !delivered, s, Atomic.get control.Dpc_net.Transport.partition_stats.lost)
  in
  let heal_off, burst_off, delivered_off, s_off, lost_off = run 0.0 in
  let heal_on, burst_on, delivered_on, s_on, _ = run 0.3 in
  let row label heal burst (s : Dpc_net.Reliable.stats) =
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
  Report.add_events "partitions" (2 * senders * per_sender);
  Report.add_series "partitions" "heal latency (s)" [ (0.0, int_of_float (1000.0 *. heal_off)); (0.3, int_of_float (1000.0 *. heal_on)) ];
  Report.add_series "partitions" "storm bytes"
    [ (0.0, s_off.retransmit_bytes); (0.3, s_on.retransmit_bytes) ];
  Report.add_series "partitions" "peak burst" [ (0.0, burst_off); (0.3, burst_on) ];
  let total = senders * per_sender in
  shape_check "partitions"
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

let all =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("ablation_interclass", ablation_interclass);
    ("ablation_cross_program", ablation_cross_program);
    ("ablation_replay", ablation_replay);
    ("ablation_overhead", ablation_overhead);
    ("ablation_checkpoint", ablation_checkpoint);
    ("crash", fig_crash);
    ("partitions", fig_partitions);
    ("queries", fig_queries);
    ("scaling", fig_scaling);
    ("metrics", metrics_report);
  ]
