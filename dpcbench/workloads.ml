(* The five workloads. Each builds a fresh world (set-up), then runs a
   measured phase: ingest to quiescence plus provenance queries, issued
   either after ingest by one closed-loop client or during it by an
   open-loop storm on the simulator clock.

   The topology, the routes, the DNS hierarchy, the crash schedule and
   the message-loss schedule come from a fixed world seed, so every run
   measures the same network and the same failures; the packet phases
   come from it too. The run's seed draws the inputs: packet payloads,
   the order of DNS requests, and query targets. The inputs are stratified, meaning
   that each seed draws a shuffle of one fixed multiset (exact Zipf
   counts, every pair equally often). Counted and modeled metrics
   therefore depend on the seed only through ordering, and stay within
   their 1 % bounds across seeds. [scale] shrinks every size for the
   smoke test; at 1.0 the measured phase takes about a second. *)

open Dpc_util
open Dpc_core
open Dpc_workload
module Rt = Dpc_engine.Runtime
module Tr = Dpc_net.Transport

let world_seed = 1
let now_ns = Trace.now_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

type setup_times = { topology_s : float; backend_s : float; inputs_s : float }

(* What wraps the layers of one world: the tracer of a traced run, and
   the perturbation of the sensitivity self-test. *)
type probes = { trace : Trace.t option; perturb : Trace.Perturb.t }

let untraced = { trace = None; perturb = Trace.Perturb.none }

let wrap_transport p t =
  let t = Trace.Perturb.transport p.perturb t in
  match p.trace with None -> t | Some tr -> Trace.transport tr t

let wrap_hook p h =
  let h = Trace.Perturb.hook p.perturb h in
  match p.trace with None -> h | Some tr -> Trace.hook tr h

(* Query outcomes. An operation is one query a client wants answered; an
   attempt is one call to [Backend.query]. Only the open-loop storm of
   fwd-churn retries (a degraded answer, when a crashed node held part of
   the provenance). [words] is allocation inside queries, which ingest
   subtracts when the queries run during it. *)
type queries = {
  mutable ops : int;
  mutable attempts : int;
  mutable answered : int;
  mutable degraded : int;
  mutable failed : int;
  mutable total_ns : int;
  mutable words : float;
  mutable wall_us : float list;
  mutable modeled_ms : float list;
  mutable rederives : int;
  mutable entries : int;
}

let fresh_queries () =
  {
    ops = 0;
    attempts = 0;
    answered = 0;
    degraded = 0;
    failed = 0;
    total_ns = 0;
    words = 0.0;
    wall_us = [];
    modeled_ms = [];
    rederives = 0;
    entries = 0;
  }

type answer = Answered | Degraded | Failed

let ask q p f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let call () = Trace.Perturb.query p.perturb f in
  let r = try Some (match p.trace with None -> call () | Some tr -> Trace.query tr call) with _ -> None in
  let dt = now_ns () - t0 in
  q.words <- q.words +. (Gc.minor_words () -. w0);
  q.attempts <- q.attempts + 1;
  q.total_ns <- q.total_ns + dt;
  q.wall_us <- (float_of_int dt /. 1e3) :: q.wall_us;
  match r with
  | None ->
      q.failed <- q.failed + 1;
      Failed
  | Some (r : Query_result.t) ->
      q.rederives <- q.rederives + r.rederives;
      q.entries <- q.entries + r.entries;
      if not r.complete then begin
        q.degraded <- q.degraded + 1;
        Degraded
      end
      else if r.trees = [] then begin
        q.failed <- q.failed + 1;
        Failed
      end
      else begin
        (* A degraded attempt is charged the timeout budget; it is counted
           in [degraded], not in the modeled latency of answers. *)
        q.modeled_ms <- (r.latency *. 1e3) :: q.modeled_ms;
        q.answered <- q.answered + 1;
        Answered
      end

(* Inject→output latency in virtual time: from the moment an input event
   was due to the first [on_output] of its evid, so a crash or a
   retransmit delay counts (a node replaying its journal after a crash
   calls [on_output] again; that repeat is not a new output). The hook
   only appends to the acting node's own lists, so a sharded run needs no
   lock and the set-up computes no digest; the two sides are joined
   after the run. [due_of] reads the due time back from the input tuple. *)
module Evid = Hashtbl.Make (struct
  type t = Sha1.t

  let equal = Sha1.equal
  let hash = Sha1.hash
end)

type latency = {
  mutable due_of : Dpc_ndlog.Tuple.t -> float;  (** set once the inputs are drawn *)
  inputs : (Sha1.t * float) list array;
  outputs : (Sha1.t * float) list array;
}

let latency nodes = { due_of = (fun _ -> nan); inputs = Array.make nodes []; outputs = Array.make nodes [] }

let latency_hook lat (transport : Tr.t) (h : Dpc_engine.Prov_hook.t) : Dpc_engine.Prov_hook.t =
  {
    h with
    on_input =
      (fun ~node event ->
        let meta = h.on_input ~node event in
        lat.inputs.(node) <- (meta.evid, lat.due_of event) :: lat.inputs.(node);
        meta);
    on_output =
      (fun ~node tuple meta ->
        lat.outputs.(node) <- (meta.evid, Tr.now transport) :: lat.outputs.(node);
        h.on_output ~node tuple meta);
  }

(* The latencies in ms, one per input that reached an output, and the
   number of outputs no input accounts for. *)
let output_latencies lat =
  let due = Evid.create 4096 and first = Evid.create 4096 and unmatched = ref 0 in
  Array.iter (List.iter (fun (evid, d) -> Evid.replace due evid d)) lat.inputs;
  Array.iter
    (List.iter (fun (evid, t) ->
       if not (Evid.mem due evid) then incr unmatched
       else
         match Evid.find_opt first evid with
         | Some t0 when t0 <= t -> ()
         | _ -> Evid.replace first evid t))
    lat.outputs;
  (Evid.fold (fun evid t acc -> ((t -. Evid.find due evid) *. 1e3) :: acc) first [], !unmatched)

type world = {
  runtime : Rt.t;
  backend : Backend.t;
  inner : Tr.t;  (** the bottom transport: wire bytes, messages, the clock *)
  injected : int;
  horizon : float;  (** virtual time at which the last input is due *)
  setup : setup_times;
  q : queries;
  lat : latency;
  query_phase : unit -> int;  (** closed-loop queries after ingest; returns their wall ns *)
  checks : unit -> (string * bool) list;
  durable : Durable.t option;
}

(* The hook every runtime gets: the store, wrapped by the probes, wrapped
   by the latency recorder. *)
let hook p lat inner backend = latency_hook lat inner (wrap_hook p (Backend.hook backend))

(* One client, back to back: a closed loop. *)
let closed_loop q p backend routing targets =
  let t0 = now_ns () in
  Array.iter
    (fun target ->
      q.ops <- q.ops + 1;
      match ask q p (fun () -> Backend.query backend ~cost:Query_cost.emulation ~routing target) with
      | Answered | Failed -> ()
      | Degraded -> q.failed <- q.failed + 1)
    targets;
  now_ns () - t0

(* [total] ranks with the exact Zipf counts (largest remainder), in a
   seeded order. *)
let stratified_zipf rng ~support ~total =
  let zipf = Zipf.create support in
  let exact = Array.init support (fun k -> Zipf.pmf zipf k *. float_of_int total) in
  let counts = Array.map truncate exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init support Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (exact.(b) -. float_of_int counts.(b)) (exact.(a) -. float_of_int counts.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    let k = by_remainder.(i) in
    counts.(k) <- counts.(k) + 1
  done;
  let ranks = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  Rng.shuffle rng ranks;
  ranks

(* ------------------------------------------------------------------ *)
(* Forwarding on the 100-node transit-stub, 30 pairs x 100 packets/s. *)

let rate = 100.0
let payload_size = 500

(* A run's packets: [tag] makes every payload unique to the seed. *)
type traffic = { pairs : (int * int) array; tag : string; per_pair : int; phase : float array }

let transit () =
  let rng = Rng.create ~seed:world_seed in
  let ts = Dpc_net.Transit_stub.generate ~rng Dpc_net.Transit_stub.paper_params in
  let routing = Dpc_net.Routing.compute ts.topology in
  let pairs = Array.of_list (Pairs.select ~rng ~eligible:ts.stub_nodes ~count:30) in
  (ts.topology, routing, pairs)

let payload tr ~pair ~seq =
  let s = Printf.sprintf "%s-%d-%d-" tr.tag pair seq in
  s ^ String.make (payload_size - String.length s) 'x'

let due tr ~pair ~seq = tr.phase.(pair) +. (float_of_int seq /. rate)

(* The due time of a packet, from the pair and sequence number in its
   payload. *)
let packet_due tr event =
  match Dpc_ndlog.Tuple.arg event 3 with
  | Dpc_ndlog.Value.Str p ->
      let field from =
        let stop = String.index_from p from '-' in
        (int_of_string (String.sub p from (stop - from)), stop + 1)
      in
      let pair, next = field (String.length tr.tag + 1) in
      let seq, _ = field next in
      due tr ~pair ~seq
  | _ -> invalid_arg "packet_due"

let recv tr ~pair ~seq =
  let src, dst = tr.pairs.(pair) in
  Dpc_apps.Forwarding.recv ~at:dst ~src ~dst ~payload:(payload tr ~pair ~seq)

(* Each pair sends [per_pair] packets at [rate], starting at a phase
   inside the first interval. The phases come from the world seed: they
   set which packets a crash or a lost message hits. *)
let inject_traffic runtime rng pairs ~per_pair =
  let world = Rng.create ~seed:world_seed in
  let phase = Array.map (fun _ -> Rng.float world (1.0 /. rate)) pairs in
  let tr = { pairs; tag = Printf.sprintf "%08x" (Rng.int rng 0x3fffffff); per_pair; phase } in
  Array.iteri
    (fun pair (src, dst) ->
      for seq = 0 to per_pair - 1 do
        Rt.inject runtime ~delay:(due tr ~pair ~seq) (Dpc_apps.Forwarding.packet ~src ~dst ~payload:(payload tr ~pair ~seq))
      done)
    pairs;
  tr

(* Query targets: every pair equally often, each at a seeded packet. *)
let fwd_targets rng tr ~count =
  Array.init count (fun i -> recv tr ~pair:(i mod Array.length tr.pairs) ~seq:(Rng.int rng tr.per_pair))

let fwd_backend topology =
  Backend.make Backend.S_advanced ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env
    ~nodes:(Dpc_net.Topology.size topology)

(* The sharded transport's wire delay, which is also its window: 0.5 ms,
   as in the domain-scaling figure ([bench --fig scaling]), whose 2-domain
   slowdown this workload exists to show. Most of such a run is barrier
   rounds. *)
let shard_latency = 0.0005

(* fwd-advanced on the sequential simulator, or fwd-sharded on
   [Shard_sim] with [domains] shards: the same traffic and queries. *)
let fwd ?domains ~seed ~scale probes =
  let (topology, routing, pairs), topology_s = timed transit in
  let nodes = Dpc_net.Topology.size topology in
  let lat = latency nodes in
  let (backend, runtime, inner), backend_s =
    timed (fun () ->
      let backend = fwd_backend topology in
      let inner =
        match domains with
        | None -> Tr.of_sim (Dpc_net.Sim.create ~topology ~routing ())
        | Some domains -> Dpc_net.Shard_sim.transport (Dpc_net.Shard_sim.create ~latency:shard_latency ~domains ~nodes ())
      in
      let runtime =
        Rt.create ~transport:(wrap_transport probes inner) ?domains ~delp:(Dpc_apps.Forwarding.delp ())
          ~env:Dpc_apps.Forwarding.env ~hook:(hook probes lat inner backend) ~record_outputs:false
          ~nodes:(Backend.nodes backend) ()
      in
      Rt.load_slow runtime (Dpc_apps.Forwarding.routes_for_pairs routing (Array.to_list pairs));
      (backend, runtime, inner))
  in
  let per_pair = max 2 (int_of_float (800.0 *. scale)) in
  let targets, inputs_s =
    timed (fun () ->
      let rng = Rng.create ~seed in
      let tr = inject_traffic runtime rng pairs ~per_pair in
      lat.due_of <- packet_due tr;
      fwd_targets rng tr ~count:(max 200 (int_of_float (2000.0 *. scale))))
  in
  let q = fresh_queries () in
  {
    runtime;
    backend;
    inner;
    injected = per_pair * Array.length pairs;
    horizon = float_of_int per_pair /. rate;
    setup = { topology_s; backend_s; inputs_s };
    q;
    lat;
    query_phase = (fun () -> closed_loop q probes backend routing targets);
    checks = (fun () -> []);
    durable = None;
  }

let fwd_advanced ~seed ~scale probes = fwd ~seed ~scale probes

(* Two shards, one per core of the machine the bounds were measured on. *)
let sharded_domains = 2
let fwd_sharded ~seed ~scale probes = fwd ~domains:sharded_domains ~seed ~scale probes

(* The same forwarding world under churn: a lossy, crashing network
   under Reliable, durability on, a route refreshed every virtual second,
   and an open-loop query storm over 256 hot outputs while ingest runs.
   Loss and duplication follow a per-channel hash of the world seed, so
   every run sees the same fault history on each channel. *)
let fwd_churn ~seed ~scale probes =
  let (topology, routing, pairs), topology_s = timed transit in
  let nodes = Dpc_net.Topology.size topology in
  let lat = latency nodes in
  let rng = Rng.create ~seed in
  let (backend, runtime, inner, control, durable), backend_s =
    timed (fun () ->
      let backend = fwd_backend topology in
      let inner = Tr.of_sim (Dpc_net.Sim.create ~topology ~routing ()) in
      let faulty, _ =
        Tr.faulty_with
          ~decide:
            (Tr.hashed_decide
               ~config:(Tr.fault_config ~drop:0.02 ~duplicate:0.01 ())
               ~seed:world_seed ~nodes)
          inner
      in
      let crashable, control = Tr.crashable faulty in
      let runtime =
        Rt.create ~transport:(wrap_transport probes crashable)
          ~reliable:Dpc_net.Reliable.default_config ~delp:(Dpc_apps.Forwarding.delp ())
          ~env:Dpc_apps.Forwarding.env ~hook:(hook probes lat inner backend) ~record_outputs:false
          ~nodes:(Backend.nodes backend) ()
      in
      Rt.load_slow runtime (Dpc_apps.Forwarding.routes_for_pairs routing (Array.to_list pairs));
      let durable =
        Durable.attach ~backend ~runtime ~control
          ~config:{ Durable.checkpoint_every = 32; rebase_every = 8 } ()
      in
      ignore (Backend.attach_query_cache backend);
      (backend, runtime, inner, control, durable))
  in
  let duration = Float.max 2.0 (3.0 *. scale) in
  let per_pair = int_of_float (duration *. rate) in
  let q = fresh_queries () in
  let (), inputs_s =
    timed (fun () ->
      let tr = inject_traffic runtime rng pairs ~per_pair in
      lat.due_of <- packet_due tr;
      let clock = Rt.transport runtime in
      Durable.schedule durable
        (Durable.random_schedule ~seed:world_seed ~nodes ~count:8 ~horizon:(0.8 *. duration) ~min_down:0.1
           ~max_down:0.5);
      (* Delete then reinsert one route per virtual second, at its node
         and only while that node is up: each is a §5.5 slow-table update
         with its sig broadcast and store flush. *)
      let routes = Array.of_list (Dpc_apps.Forwarding.routes_for_pairs routing (Array.to_list pairs)) in
      let world = Rng.create ~seed:world_seed in
      for k = 1 to int_of_float duration - 1 do
        let route = Rng.pick world routes in
        let node = Dpc_ndlog.Tuple.loc route in
        Tr.schedule_on clock ~node ~delay:(float_of_int k) (fun () ->
          if Durable.is_up durable node then begin
            ignore (Rt.delete_slow_runtime runtime route);
            Rt.insert_slow_runtime runtime route
          end)
      done;
      (* 2000 queries/s of virtual time over the first 256 packets (all
         delivered before the storm starts at 1 s), Zipf-ranked. A
         degraded answer is asked again 0.25 s later. *)
      let hot = Array.init 256 (fun i -> recv tr ~pair:(i mod Array.length pairs) ~seq:(i / Array.length pairs)) in
      let rec fire target tries () =
        match
          ask q probes (fun () ->
            Backend.query backend ~cost:Query_cost.emulation ~routing ~up:(Durable.is_up durable) target)
        with
        | Answered | Failed -> ()
        | Degraded ->
            if tries < 40 then Tr.schedule clock ~delay:0.25 (fire target (tries + 1))
            else q.failed <- q.failed + 1
      in
      let storm_rate = 2000.0 in
      let ranks =
        stratified_zipf rng ~support:(Array.length hot)
          ~total:(int_of_float ((duration -. 1.0) *. storm_rate))
      in
      Array.iteri
        (fun i rank ->
          Tr.schedule clock ~delay:(1.0 +. (float_of_int i /. storm_rate)) (fun () ->
            q.ops <- q.ops + 1;
            fire hot.(rank) 0 ()))
        ranks)
  in
  let checks () =
    let reliable = Option.get (Rt.reliability runtime) in
    [
      ("reliable abandoned = 0", (Dpc_net.Reliable.stats reliable).abandoned = 0);
      ("no suspended channels", Dpc_net.Reliable.suspended_channels reliable = 0);
      ("every node up", List.for_all control.Tr.is_up (List.init nodes Fun.id));
    ]
  in
  {
    runtime;
    backend;
    inner;
    injected = per_pair * Array.length pairs;
    horizon = duration;
    setup = { topology_s; backend_s; inputs_s };
    q;
    lat;
    query_phase = (fun () -> 0);
    checks;
    durable = Some durable;
  }

(* ------------------------------------------------------------------ *)
(* DNS on the 100-server hierarchy (backbone depth 27, 38 URLs, 10
   clients), 1000 requests/s, URLs drawn Zipf. *)

let request_due rqid = float_of_int rqid *. 0.001

let dns_world ~scheme ~seed ~requests probes =
  let (spec, routing), topology_s =
    timed (fun () ->
      let spec = Dns_workload.paper_spec ~rng:(Rng.create ~seed:world_seed) () in
      (spec, Dpc_net.Routing.compute spec.tree.topology))
  in
  let topology = spec.tree.topology in
  let lat = latency (Dpc_net.Topology.size topology) in
  let (backend, runtime, inner), backend_s =
    timed (fun () ->
      let delp = Dpc_apps.Dns.delp () in
      let backend = Backend.make scheme ~delp ~env:Dpc_apps.Dns.env ~nodes:(Dpc_net.Topology.size topology) in
      let inner = Tr.of_sim (Dpc_net.Sim.create ~topology ~routing ()) in
      let runtime =
        Rt.create ~transport:(wrap_transport probes inner) ~delp ~env:Dpc_apps.Dns.env
          ~hook:(hook probes lat inner backend) ~nodes:(Backend.nodes backend) ()
      in
      Rt.load_slow runtime (Dns_workload.slow_tuples spec);
      (backend, runtime, inner))
  in
  let rng = Rng.create ~seed in
  let (), inputs_s =
    timed (fun () ->
      (* Exact Zipf counts per URL, each URL's requests spread round-robin
         over the clients, in a seeded order. *)
      let urls = stratified_zipf rng ~support:(Array.length spec.urls) ~total:requests in
      let seen = Array.make (Array.length spec.urls) 0 in
      Array.iteri
        (fun rqid u ->
          let host = spec.clients.(seen.(u) mod Array.length spec.clients) in
          seen.(u) <- seen.(u) + 1;
          Rt.inject runtime ~delay:(request_due rqid) (Dpc_apps.Dns.url ~host ~url:spec.urls.(u) ~rqid))
        urls;
      lat.due_of <-
        (fun event ->
          match Dpc_ndlog.Tuple.arg event 2 with
          | Dpc_ndlog.Value.Int rqid -> request_due rqid
          | _ -> invalid_arg "request due"))
  in
  (* Replies in an order drawn from [rng] that does not depend on how
     ingest interleaved them. Sorted first, position k holds the same host
     and URL whatever the run's seed. *)
  let replies rng =
    let r = Array.of_list (List.map fst (Rt.outputs runtime)) in
    Array.sort Dpc_ndlog.Tuple.compare r;
    Rng.shuffle rng r;
    r
  in
  ( {
      runtime;
      backend;
      inner;
      injected = requests;
      horizon = request_due requests;
      setup = { topology_s; backend_s; inputs_s };
      q = fresh_queries ();
      lat;
      query_phase = (fun () -> 0);
      checks = (fun () -> []);
      durable = None;
    },
    routing,
    rng,
    replies )

(* ExSPAN, then uncached graph-walk queries cycling through every reply. *)
let dns_exspan ~seed ~scale probes =
  let w, routing, rng, replies =
    dns_world ~scheme:Backend.S_exspan ~seed ~requests:(max 300 (int_of_float (6000.0 *. scale))) probes
  in
  let query_phase () =
    let replies = replies rng in
    let targets =
      Array.init (max 200 (int_of_float (20_000.0 *. scale))) (fun i -> replies.(i mod Array.length replies))
    in
    closed_loop w.q probes w.backend routing targets
  in
  { w with query_phase }

(* Basic, then a closed loop of Zipf(1.0) queries over every reply with
   the query cache at its default capacity: the working set is larger
   than the cache. The query stream comes from the world seed, so each
   query asks for the same host and URL in every run and the cache hits,
   misses and evicts alike; otherwise the modeled p99 jumps between two
   chain lengths from seed to seed. The run's seed still draws the
   requests, so the replies differ. *)
let dns_query ~seed ~scale probes =
  let w, routing, _, replies =
    dns_world ~scheme:Backend.S_basic ~seed ~requests:(max 300 (int_of_float (8000.0 *. scale))) probes
  in
  let ranked = ref [||] in
  let query_phase () =
    let world = Rng.create ~seed:world_seed in
    let replies = replies world in
    ranked := replies;
    let targets =
      Array.map
        (fun rank -> replies.(rank))
        (stratified_zipf world ~support:(Array.length replies) ~total:(max 500 (int_of_float (50_000.0 *. scale))))
    in
    ignore (Backend.attach_query_cache w.backend);
    closed_loop w.q probes w.backend routing targets
  in
  (* The hottest answers, served from the cache, must equal a fresh walk
     with the cache detached. *)
  let checks () =
    let hot = Array.sub !ranked 0 (min 256 (Array.length !ranked)) in
    let answer t = (Backend.query w.backend ~cost:Query_cost.emulation ~routing t).trees in
    let cached = Array.map answer hot in
    Backend.detach_query_cache w.backend;
    let fresh = Array.map answer hot in
    [ ("cached answers equal uncached", Array.for_all2 (List.equal Prov_tree.equal) cached fresh) ]
  in
  { w with query_phase; checks }

type builder = seed:int -> scale:float -> probes -> world

(* [single] is the same job on one domain, the baseline of a sharded
   workload's speedup. *)
type workload = { name : string; build : builder; single : builder option }

let all =
  [
    { name = "fwd-advanced"; build = fwd_advanced; single = None };
    { name = "dns-exspan"; build = dns_exspan; single = None };
    { name = "dns-query"; build = dns_query; single = None };
    { name = "fwd-churn"; build = fwd_churn; single = None };
    { name = "fwd-sharded"; build = fwd_sharded; single = Some (fwd ~domains:1) };
  ]
