type t = {
  sim : Dpc_net.Sim.t option;
  transport : Dpc_net.Transport.t;
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
  pairs : (int * int) list;
  fault_stats : Dpc_net.Transport.fault_stats option;
}

let sim_exn t =
  match t.sim with
  | Some sim -> sim
  | None ->
      invalid_arg
        (Printf.sprintf "Forwarding_driver.sim_exn: driver runs on %s, not the simulator"
           (Dpc_net.Transport.name t.transport))

let build ~sim ~transport ~scheme ~routing ~pairs ~record_outputs ~fault_stats ?reliable () =
  let delp = Dpc_apps.Forwarding.delp () in
  let backend =
    Dpc_core.Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env
      ~nodes:(Dpc_net.Transport.nodes transport)
  in
  let runtime =
    Dpc_engine.Runtime.create ~transport ?reliable ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Dpc_core.Backend.hook backend)
      ~record_outputs ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime (Dpc_apps.Forwarding.routes_for_pairs routing pairs);
  { sim; transport; runtime; backend; routing; pairs; fault_stats }

let setup ~scheme ~topology ~routing ~pairs ?(record_outputs = true)
    ?faults ?(fault_seed = 0) ?reliable () =
  let sim = Dpc_net.Sim.create ~topology ~routing () in
  let transport = Dpc_net.Transport.of_sim sim in
  let transport, fault_stats =
    match faults with
    | None -> (transport, None)
    | Some config ->
        let rng = Dpc_util.Rng.create ~seed:fault_seed in
        let faulty, stats = Dpc_net.Transport.faulty ~config ~rng transport in
        (faulty, Some stats)
  in
  build ~sim:(Some sim) ~transport ~scheme ~routing ~pairs ~record_outputs ~fault_stats
    ?reliable ()

let setup_on ~transport ~scheme ~routing ~pairs ?(record_outputs = true) ?reliable () =
  build ~sim:None ~transport ~scheme ~routing ~pairs ~record_outputs ~fault_stats:None
    ?reliable ()

(* Unique payload of exactly [size] bytes: a sequence tag padded with 'x'. *)
let payload ~pair_index ~seq ~size =
  let tag = Printf.sprintf "p%d-s%d-" pair_index seq in
  if String.length tag >= size then tag
  else tag ^ String.make (size - String.length tag) 'x'

let inject_stream t ~rate_per_pair ~duration ~payload_size =
  let interval = 1.0 /. rate_per_pair in
  let count = int_of_float (duration *. rate_per_pair) in
  List.iteri
    (fun pair_index (src, dst) ->
      for seq = 0 to count - 1 do
        let at = float_of_int seq *. interval in
        Dpc_engine.Runtime.inject t.runtime ~delay:at
          (Dpc_apps.Forwarding.packet ~src ~dst
             ~payload:(payload ~pair_index ~seq ~size:payload_size))
      done)
    t.pairs;
  count * List.length t.pairs

let inject_total t ~total ~duration ~payload_size =
  let npairs = List.length t.pairs in
  let pairs = Array.of_list t.pairs in
  let interval = duration /. float_of_int (max 1 total) in
  for seq = 0 to total - 1 do
    let pair_index = seq mod npairs in
    let src, dst = pairs.(pair_index) in
    Dpc_engine.Runtime.inject t.runtime
      ~delay:(float_of_int seq *. interval)
      (Dpc_apps.Forwarding.packet ~src ~dst
         ~payload:(payload ~pair_index ~seq ~size:payload_size))
  done;
  total

let run ?until t = Dpc_engine.Runtime.run ?until t.runtime

let received t = List.map fst (Dpc_engine.Runtime.outputs t.runtime)

let query_random_outputs t ~rng ~cost ~count =
  let outputs = Array.of_list (received t) in
  if Array.length outputs = 0 then
    invalid_arg "Forwarding_driver.query_random_outputs: no outputs received";
  List.init count (fun _ ->
    let output = Dpc_util.Rng.pick rng outputs in
    Dpc_core.Backend.query t.backend ~cost ~routing:t.routing output)
