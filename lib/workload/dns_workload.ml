type spec = {
  tree : Dpc_net.Tree_topo.t;
  domains : string array;
  urls : string array;
  authority : int array;
  clients : int array;
}

let dns_link = { Dpc_net.Topology.latency = 0.010; bandwidth = 100e6 /. 8.0 }

let generate ~rng ~servers ~backbone_depth ~urls ~clients =
  if urls <= 0 || clients <= 0 then
    invalid_arg "Dns_workload.generate: counts must be positive";
  if servers < 2 then invalid_arg "Dns_workload.generate: need at least two servers";
  let tree = Dpc_net.Tree_topo.generate ~rng ~n:servers ~backbone_depth ~link:dns_link in
  let domains = Array.make servers "" in
  (* Assign each non-root server the label "d<v>" under its parent's
     domain; tree nodes are created parent-first, so a simple pass works. *)
  for v = 1 to servers - 1 do
    let parent = tree.parent.(v) in
    let label = Printf.sprintf "d%d" v in
    domains.(v) <- (if String.equal domains.(parent) "" then label
                    else label ^ "." ^ domains.(parent))
  done;
  (* URLs live on random non-root servers; several URLs may share an
     authority. *)
  let authority = Array.init urls (fun _ -> 1 + Dpc_util.Rng.int rng (servers - 1)) in
  let url_names = Array.init urls (fun k -> Printf.sprintf "www%d.%s" k domains.(authority.(k))) in
  let all = Array.init servers (fun v -> v) in
  Dpc_util.Rng.shuffle rng all;
  let clients = Array.sub all 0 (min clients servers) in
  { tree; domains; urls = url_names; authority; clients }

let paper_spec ~rng ?(urls = 38) () =
  generate ~rng ~servers:100 ~backbone_depth:27 ~urls ~clients:10

let slow_tuples spec =
  let servers = Array.length spec.domains in
  let delegations =
    List.concat_map
      (fun v ->
        if v = 0 then []
        else
          [ Dpc_apps.Dns.name_server ~at:spec.tree.parent.(v) ~domain:spec.domains.(v)
              ~server:v ])
      (List.init servers (fun i -> i))
  in
  let roots =
    Array.to_list (Array.map (fun h -> Dpc_apps.Dns.root_server ~host:h ~root:0) spec.clients)
  in
  let records =
    Array.to_list
      (Array.mapi
         (fun k auth ->
           Dpc_apps.Dns.address_record ~at:auth ~url:spec.urls.(k)
             ~ip:(Printf.sprintf "10.0.%d.%d" (k / 256) (k mod 256)))
         spec.authority)
  in
  roots @ delegations @ records

type t = {
  spec : spec;
  sim : Dpc_net.Sim.t;
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
}

let setup ~scheme spec ?(record_outputs = true) () =
  let topology = spec.tree.topology in
  let routing = Dpc_net.Routing.compute topology in
  let sim = Dpc_net.Sim.create ~topology ~routing () in
  let delp = Dpc_apps.Dns.delp () in
  let backend =
    Dpc_core.Backend.make scheme ~delp ~env:Dpc_apps.Dns.env
      ~nodes:(Dpc_net.Topology.size topology)
  in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Dns.env ~hook:(Dpc_core.Backend.hook backend)
      ~record_outputs ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime (slow_tuples spec);
  { spec; sim; runtime; backend; routing }

let inject_spread t ~rng ~total ~duration =
  let zipf = Dpc_util.Zipf.create (Array.length t.spec.urls) in
  let interval = duration /. float_of_int (max 1 total) in
  for seq = 0 to total - 1 do
    let url_rank = Dpc_util.Zipf.sample zipf rng in
    let client = Dpc_util.Rng.pick rng t.spec.clients in
    Dpc_engine.Runtime.inject t.runtime
      ~delay:(float_of_int seq *. interval)
      (Dpc_apps.Dns.url ~host:client ~url:t.spec.urls.(url_rank) ~rqid:seq)
  done;
  total

let inject_requests t ~rng ~rate ~duration =
  inject_spread t ~rng ~total:(int_of_float (rate *. duration)) ~duration

let inject_n_requests t ~rng ~total ~duration = inject_spread t ~rng ~total ~duration

let run ?until t = Dpc_engine.Runtime.run ?until t.runtime

let replies t = List.map fst (Dpc_engine.Runtime.outputs t.runtime)
