type t = {
  hop_latency : float option;
  per_entry : float;
  per_byte : float;
  per_rederive : float;
  down_timeout : float;
  down_retries : int;
}

let emulation =
  { hop_latency = Some 0.0002; per_entry = 0.0018; per_byte = 6e-6; per_rederive = 0.0002;
    down_timeout = 0.2; down_retries = 2 }

let simulation =
  { hop_latency = None; per_entry = 0.0018; per_byte = 6e-6; per_rederive = 0.0002;
    down_timeout = 0.2; down_retries = 2 }

let hop t routing ~src ~dst =
  if src = dst then 0.0
  else
    match t.hop_latency with
    | Some per_hop -> begin
        match Dpc_net.Routing.hop_count routing ~src ~dst with
        | Some h -> per_hop *. float_of_int h
        | None -> failwith "Query_cost.hop: unreachable destination"
      end
    | None -> begin
        match Dpc_net.Routing.distance routing ~src ~dst with
        | Some d -> d
        | None -> failwith "Query_cost.hop: unreachable destination"
      end
