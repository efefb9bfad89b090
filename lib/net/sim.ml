module Event_queue = Dpc_util.Event_queue

type t = {
  topo : Topology.t;
  routing : Routing.t;
  queue : Event_queue.t;
  clock : Event_queue.clock;
  mutable processed : int;
  mutable total_bytes : int;
  mutable messages : int;
  (* Byte counters, keyed by int so a charge allocates nothing once the
     counter exists: a link [(a, b)], [a < b], under [a * n + b]. *)
  link_counters : (int, int ref) Hashtbl.t;
}

let create ~topology ~routing () =
  {
    topo = topology;
    routing;
    queue = Event_queue.create ();
    clock = { now = 0.0 };
    processed = 0;
    total_bytes = 0;
    messages = 0;
    link_counters = Hashtbl.create 64;
  }

let topology t = t.topo
let now t = t.clock.now

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Event_queue.push t.queue (t.clock.now +. delay) action

let charge tbl key bytes =
  match Hashtbl.find tbl key with
  | r -> r := !r + bytes
  | exception Not_found -> Hashtbl.add tbl key (ref bytes)

let link_key t a b = (min a b * Topology.size t.topo) + max a b

let send t ~src ~dst ~bytes k =
  t.messages <- t.messages + 1;
  if src = dst then Event_queue.push t.queue t.clock.now k
  else begin
    if Routing.successor t.routing ~src ~dst < 0 then
      failwith (Printf.sprintf "Sim.send: node %d unreachable from %d" dst src);
    (* Walk the shortest path hop by hop through the successor table,
       accumulating per-hop delays and charging each link at the moment
       transmission on it starts. *)
    let at = ref t.clock.now and a = ref src in
    while !a <> dst do
      let b = Routing.successor t.routing ~src:!a ~dst in
      (* routing only uses existing links *)
      let link = Topology.link_exn t.topo !a b in
      t.total_bytes <- t.total_bytes + bytes;
      charge t.link_counters (link_key t !a b) bytes;
      at := !at +. link.latency +. (float_of_int bytes /. link.bandwidth);
      a := b
    done;
    Event_queue.push t.queue !at k
  end

(* The horizon is half-open: an event exactly at [until] stays queued for
   the next run. *)
let run ?until t =
  let until = match until with None -> infinity | Some u -> u in
  while Event_queue.due t.queue ~until do
    let action = Event_queue.pop t.queue t.clock in
    t.processed <- t.processed + 1;
    action ()
  done

let events_processed t = t.processed
let total_bytes t = t.total_bytes

let link_bytes t =
  let n = Topology.size t.topo in
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.link_counters []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (k, bytes) -> ((k / n, k mod n), bytes))

let messages_sent t = t.messages

module For_testing = struct
  let events_processed = events_processed
  let link_bytes = link_bytes
end
