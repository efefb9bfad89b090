let storage_snapshots ~sim ~every ~until probe =
  let acc = ref [] in
  let n = int_of_float (until /. every) in
  for k = 0 to n do
    let at = float_of_int k *. every in
    Dpc_net.Sim.schedule sim ~delay:at (fun () -> acc := !acc @ [ (at, probe ()) ])
  done;
  acc

let per_node_rates ~backend ~nodes ~duration =
  List.init nodes (fun node ->
    let s = Dpc_core.Backend.node_storage backend node in
    float_of_int (Dpc_core.Rows.provenance_bytes s) /. duration)

let total_provenance_bytes backend =
  Dpc_core.Rows.provenance_bytes (Dpc_core.Backend.total_storage backend)

let metrics_rows runtime = Dpc_util.Metrics.to_rows (Dpc_engine.Runtime.metrics_snapshot runtime)
