type event = { at : float; seq : int; action : unit -> unit }

type t = {
  topo : Topology.t;
  routing : Routing.t;
  bucket_width : float;
  jitter : float;
  rng : Dpc_util.Rng.t;
  queue : event Dpc_util.Heap.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable total_bytes : int;
  mutable messages : int;
  (* Byte counters, keyed by int so a charge allocates nothing once the
     counter exists: a link [(a, b)], [a < b], under [a * n + b]. *)
  link_counters : (int, int ref) Hashtbl.t;
  buckets : (int, int ref) Hashtbl.t;
}

let create ?(bucket_width = 1.0) ?(jitter = 0.0) ?(seed = 0) ~topology ~routing () =
  if jitter < 0.0 then invalid_arg "Sim.create: negative jitter";
  {
    topo = topology;
    routing;
    bucket_width;
    jitter;
    rng = Dpc_util.Rng.create ~seed;
    queue =
      Dpc_util.Heap.create ~cmp:(fun a b ->
        match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c);
    clock = 0.0;
    next_seq = 0;
    processed = 0;
    total_bytes = 0;
    messages = 0;
    link_counters = Hashtbl.create 64;
    buckets = Hashtbl.create 64;
  }

let topology t = t.topo
let routing t = t.routing
let now t = t.clock

let schedule_at t at action =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Dpc_util.Heap.push t.queue { at; seq; action }

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t (t.clock +. delay) action

let charge tbl key bytes =
  match Hashtbl.find tbl key with
  | r -> r := !r + bytes
  | exception Not_found -> Hashtbl.add tbl key (ref bytes)

let link_key t a b = (min a b * Topology.size t.topo) + max a b

let jitter_delay t = if t.jitter = 0.0 then 0.0 else Dpc_util.Rng.float t.rng t.jitter

let send t ~src ~dst ~bytes k =
  t.messages <- t.messages + 1;
  if src = dst then schedule t ~delay:(jitter_delay t) k
  else begin
    if Routing.successor t.routing ~src ~dst < 0 then
      failwith (Printf.sprintf "Sim.send: node %d unreachable from %d" dst src);
    (* Walk the shortest path hop by hop through the successor table,
       accumulating per-hop delays and charging each link at the moment
       transmission on it starts. *)
    let at = ref t.clock and a = ref src in
    while !a <> dst do
      let b = Routing.successor t.routing ~src:!a ~dst in
      (* routing only uses existing links *)
      let link = Topology.link_exn t.topo !a b in
      t.total_bytes <- t.total_bytes + bytes;
      charge t.link_counters (link_key t !a b) bytes;
      charge t.buckets (int_of_float (!at /. t.bucket_width)) bytes;
      at := !at +. link.latency +. (float_of_int bytes /. link.bandwidth);
      a := b
    done;
    schedule_at t (!at +. jitter_delay t) k
  end

let run ?until t =
  let limit = match until with None -> infinity | Some u -> u in
  let rec go () =
    match Dpc_util.Heap.pop t.queue with
    | None -> ()
    | Some ev when ev.at >= limit ->
        (* Reached the horizon: the interval is half-open, so an event
           exactly at [until] stays queued for the next run. Push it back
           (its seq is preserved, so equal-time ordering survives). *)
        Dpc_util.Heap.push t.queue ev
    | Some ev ->
        t.clock <- max t.clock ev.at;
        t.processed <- t.processed + 1;
        ev.action ();
        go ()
  in
  go ()

let events_processed t = t.processed
let total_bytes t = t.total_bytes

let link_bytes t =
  let n = Topology.size t.topo in
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.link_counters []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (k, bytes) -> ((k / n, k mod n), bytes))

let bucket_bytes t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let messages_sent t = t.messages
