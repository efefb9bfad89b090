module type S = sig
  val name : string
  val nodes : int
  val shards : int
  val shard_of : int -> int
  val now : unit -> float
  val schedule : delay:float -> (unit -> unit) -> unit
  val schedule_on : node:int -> delay:float -> (unit -> unit) -> unit
  val send : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
  val broadcast : src:int -> bytes:int -> (int -> unit) -> unit
  val run : ?until:float -> unit -> unit
  val total_bytes : unit -> int
  val messages : unit -> int
end

type t = (module S)

let name (module T : S) = T.name
let nodes (module T : S) = T.nodes
let shards (module T : S) = T.shards
let now (module T : S) = T.now ()
let schedule (module T : S) ~delay k = T.schedule ~delay k
let schedule_on (module T : S) ~node ~delay k = T.schedule_on ~node ~delay k
let send (module T : S) ~src ~dst ~bytes k = T.send ~src ~dst ~bytes k
let broadcast (module T : S) ~src ~bytes k = T.broadcast ~src ~bytes k
let run ?until (module T : S) = T.run ?until ()
let total_bytes (module T : S) = T.total_bytes ()
let messages (module T : S) = T.messages ()

let of_sim sim : t =
  (module struct
    let name = "sim"
    let nodes = Topology.size (Sim.topology sim)
    let shards = 1
    let shard_of _ = 0
    let now () = Sim.now sim
    let schedule ~delay k = Sim.schedule sim ~delay k
    let schedule_on ~node:_ ~delay k = Sim.schedule sim ~delay k
    let send ~src ~dst ~bytes k = Sim.send sim ~src ~dst ~bytes k

    (* The sig broadcast of §5.5: one message per node, the origin
       included (delivered through the queue to preserve ordering). *)
    let broadcast ~src ~bytes k =
      for dst = 0 to nodes - 1 do
        Sim.send sim ~src ~dst ~bytes (fun () -> k dst)
      done

    let run ?until () = Sim.run ?until sim
    let total_bytes () = Sim.total_bytes sim
    let messages () = Sim.messages_sent sim
  end)

let direct ~nodes:n () : t =
  if n <= 0 then invalid_arg "Transport.direct: nodes must be positive";
  let module Q = Dpc_util.Event_queue in
  let queue = Q.create () in
  let clock = { Q.now = 0.0 } in
  let bytes_total = ref 0 in
  let msgs = ref 0 in
  (module struct
    let name = "direct"
    let nodes = n
    let shards = 1
    let shard_of _ = 0
    let now () = clock.now

    let schedule ~delay k =
      if delay < 0.0 then invalid_arg "Transport.direct: negative delay";
      Q.push queue (clock.now +. delay) k

    let schedule_on ~node:_ ~delay k = schedule ~delay k

    (* Zero-latency delivery: the message arrives at the current time,
       through the queue so ordering is preserved. Bytes are still
       accounted (once per message; there are no hops). *)
    let send ~src:_ ~dst ~bytes k =
      if dst < 0 || dst >= n then
        failwith (Printf.sprintf "Transport.direct: node %d out of range" dst);
      incr msgs;
      bytes_total := !bytes_total + bytes;
      Q.push queue clock.now k

    let broadcast ~src ~bytes k =
      for dst = 0 to n - 1 do
        send ~src ~dst ~bytes (fun () -> k dst)
      done

    let run ?until () =
      let until = match until with None -> infinity | Some u -> u in
      while Q.due queue ~until do
        (* Two steps: applying [pop]'s result in the same call would
           build a partial application of [pop] per event. *)
        let action = Q.pop queue clock in
        action ()
      done

    let total_bytes () = !bytes_total
    let messages () = !msgs
  end)

(* Every wrapper below is its inner backend with one member replaced. *)
let intercept ~name (module T : S) send : t =
  (module struct
    let name = name ^ "+" ^ T.name
    let nodes = T.nodes
    let shards = T.shards
    let shard_of = T.shard_of
    let now = T.now
    let schedule = T.schedule
    let schedule_on = T.schedule_on
    let send = send

    let broadcast ~src ~bytes k =
      for dst = 0 to nodes - 1 do
        send ~src ~dst ~bytes (fun () -> k dst)
      done

    let run = T.run
    let total_bytes = T.total_bytes
    let messages = T.messages
  end)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

type fault = F_deliver | F_drop | F_duplicate | F_delay of float

type fault_config = { drop : float; duplicate : float; delay : float; delay_max : float }

let fault_config ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0.0) ?(delay_max = 0.0) () =
  let rate name r =
    if r < 0.0 || r > 1.0 then
      invalid_arg (Printf.sprintf "Transport.fault_config: %s rate %g outside [0, 1]" name r)
  in
  rate "drop" drop;
  rate "duplicate" duplicate;
  rate "delay" delay;
  if drop +. duplicate +. delay > 1.0 then
    invalid_arg "Transport.fault_config: rates sum past 1";
  if delay_max < 0.0 then invalid_arg "Transport.fault_config: negative delay_max";
  { drop; duplicate; delay; delay_max }

type fault_stats = {
  delivered : int Atomic.t;
  dropped : int Atomic.t;
  duplicated : int Atomic.t;
  delayed : int Atomic.t;
}

let faulty_with ~decide (module T : S) : t * fault_stats =
  let stats =
    { delivered = Atomic.make 0; dropped = Atomic.make 0; duplicated = Atomic.make 0;
      delayed = Atomic.make 0 }
  in
  (* Faults are per destination, so one broadcast may reach some nodes
     and not others, which is exactly the nasty case for sig. *)
  let send ~src ~dst ~bytes k =
    match decide ~src ~dst ~bytes with
    | F_deliver ->
        Atomic.incr stats.delivered;
        T.send ~src ~dst ~bytes k
    | F_drop ->
        (* The transmission happened — the inner backend charges its
           bytes and advances its counters — but the receiver never
           sees it. *)
        Atomic.incr stats.dropped;
        T.send ~src ~dst ~bytes (fun () -> ())
    | F_duplicate ->
        Atomic.incr stats.duplicated;
        T.send ~src ~dst ~bytes k;
        T.send ~src ~dst ~bytes k
    | F_delay extra ->
        Atomic.incr stats.delayed;
        T.send ~src ~dst ~bytes (fun () -> T.schedule ~delay:extra k)
  in
  (intercept ~name:"faulty" (module T) send, stats)

let faulty ~config ~rng inner =
  faulty_with inner ~decide:(fun ~src:_ ~dst:_ ~bytes:_ ->
    let u = Dpc_util.Rng.float rng 1.0 in
    if u < config.drop then F_drop
    else if u < config.drop +. config.duplicate then F_duplicate
    else if u < config.drop +. config.duplicate +. config.delay then
      F_delay (Dpc_util.Rng.float rng config.delay_max)
    else F_deliver)

(* SplitMix64 finalizer: the per-channel hashed fault schedule needs a
   high-quality stateless mix so decisions depend only on
   (seed, src, dst, per-channel count), never on global draw order. The
   helpers are inlined so that [hashed_decide], which runs once per
   message, keeps every [Int64] and float unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let[@inline] mix_absorb state x = mix64 (Int64.add state (Int64.mul golden (Int64.of_int (x + 1))))

(* Top 53 bits as a uniform float in [0, 1). *)
let[@inline] unit_float h = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let hashed_decide ~config ~seed ~nodes =
  if nodes <= 0 then invalid_arg "Transport.hashed_decide: nodes must be positive";
  let counts = Array.make (nodes * nodes) 0 in
  fun ~src ~dst ~bytes:_ ->
    if src < 0 || src >= nodes || dst < 0 || dst >= nodes then
      invalid_arg "Transport.hashed_decide: node out of range";
    let idx = (src * nodes) + dst in
    let n = counts.(idx) in
    counts.(idx) <- n + 1;
    let h = mix_absorb (mix_absorb (mix_absorb (Int64.of_int seed) src) dst) n in
    let u = unit_float h in
    if u < config.drop then F_drop
    else if u < config.drop +. config.duplicate then F_duplicate
    else if u < config.drop +. config.duplicate +. config.delay then
      F_delay (unit_float (mix64 h) *. config.delay_max)
    else F_deliver

let channel_unit_hash ~seed ~src ~dst ~n =
  unit_float (mix_absorb (mix_absorb (mix_absorb (Int64.of_int seed) src) dst) n)

(* ------------------------------------------------------------------ *)
(* Crash faults *)

type crash_stats = { crashes : int Atomic.t; suppressed : int Atomic.t }

type crash_control = {
  crash : int -> unit;
  restart : int -> unit;
  is_up : int -> bool;
  crash_stats : crash_stats;
}

let crashable (module T : S) : t * crash_control =
  let up = Array.make T.nodes true in
  let stats = { crashes = Atomic.make 0; suppressed = Atomic.make 0 } in
  let control =
    {
      crash =
        (fun node ->
          if node < 0 || node >= T.nodes then
            invalid_arg (Printf.sprintf "Transport.crashable: node %d out of range" node);
          if up.(node) then begin
            up.(node) <- false;
            Atomic.incr stats.crashes
          end);
      restart =
        (fun node ->
          if node < 0 || node >= T.nodes then
            invalid_arg (Printf.sprintf "Transport.crashable: node %d out of range" node);
          up.(node) <- true);
      is_up =
        (fun node ->
          if node < 0 || node >= T.nodes then
            invalid_arg (Printf.sprintf "Transport.crashable: node %d out of range" node);
          up.(node));
      crash_stats = stats;
    }
  in
  (* The wire still carries the message (bytes are charged, the clock
     advances), but a down destination never sees the delivery. The
     up-check runs at ARRIVAL time, not send time: a node that crashes
     while a message is in flight loses it, and a message sent at a down
     node before it recovers is lost even if the node is back up when the
     send is issued — matching a dead NIC, not a full mailbox. Under a
     sharded transport the check runs on the destination's shard and
     crash/restart actions are scheduled on the same shard (see
     [Durable.schedule_crash]), so [up.(dst)] stays single-owner. *)
  let send ~src ~dst ~bytes k =
    T.send ~src ~dst ~bytes (fun () -> if up.(dst) then k () else Atomic.incr stats.suppressed)
  in
  let transport = intercept ~name:"crashable" (module T) send in
  (transport, control)

(* ------------------------------------------------------------------ *)
(* Partition faults *)

type partition_stats = {
  cuts : int Atomic.t;
  heals : int Atomic.t;
  lost : int Atomic.t;
}

type partition_control = {
  set_link : src:int -> dst:int -> up:bool -> unit;
  link_up : src:int -> dst:int -> bool;
  partition_stats : partition_stats;
}

let partitionable ?metrics (module T : S) : t * partition_control =
  let n = T.nodes in
  (* link.(src * n + dst): directed, so an asymmetric outage can pass
     traffic one way while dropping the reverse path. *)
  let link = Array.make (n * n) true in
  let stats = { cuts = Atomic.make 0; heals = Atomic.make 0; lost = Atomic.make 0 } in
  let check_range src dst =
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg (Printf.sprintf "Transport.partitionable: link %d->%d out of range" src dst)
  in
  let control =
    {
      set_link =
        (fun ~src ~dst ~up ->
          check_range src dst;
          let idx = (src * n) + dst in
          if link.(idx) <> up then begin
            link.(idx) <- up;
            Atomic.incr (if up then stats.heals else stats.cuts);
            match metrics with
            | None -> ()
            | Some f ->
                Dpc_util.Metrics.incr (f dst)
                  (if up then "net.partition.heals" else "net.partition.cuts")
          end);
      link_up =
        (fun ~src ~dst ->
          check_range src dst;
          link.((src * n) + dst));
      partition_stats = stats;
    }
  in
  (* Like [crashable], the wire still carries the transmission — bytes
     charged, clocks advanced — and the link check runs at ARRIVAL time
     on the destination's shard. A message in flight when the link is cut
     dies on the floor; one sent into a cut link that heals before
     arrival survives. [set_link] flips must therefore be scheduled on
     [shard_of dst] (see [schedule_plan]) so the check stays single-owner
     under a sharded backend. *)
  let send ~src ~dst ~bytes k =
    T.send ~src ~dst ~bytes (fun () ->
      if link.((src * n) + dst) then k ()
      else begin
        Atomic.incr stats.lost;
        match metrics with
        | None -> ()
        | Some f -> Dpc_util.Metrics.incr (f dst) "net.partition.lost"
      end)
  in
  let transport = intercept ~name:"partitionable" (module T) send in
  (transport, control)

(* ---- partition plans ---- *)

type outage = { link_src : int; link_dst : int; from : float; until : float }

type partition_plan = outage list

let outage ~src ~dst ~from ~until =
  if from < 0.0 || until <= from then
    invalid_arg (Printf.sprintf "Transport.split_plan: bad window [%g, %g)" from until);
  { link_src = src; link_dst = dst; from; until }

(* Symmetric split: every directed link crossing the cut goes down, both
   ways — the classic two-island partition. *)
let split_plan ~nodes ~left ~at ~duration =
  let in_left = Array.make nodes false in
  List.iter
    (fun node ->
      if node < 0 || node >= nodes then invalid_arg "Transport.split_plan: node out of range";
      in_left.(node) <- true)
    left;
  let plan = ref [] in
  for a = 0 to nodes - 1 do
    for b = 0 to nodes - 1 do
      if a <> b && in_left.(a) && not in_left.(b) then
        plan := outage ~src:a ~dst:b ~from:at ~until:(at +. duration)
                :: outage ~src:b ~dst:a ~from:at ~until:(at +. duration)
                :: !plan
    done
  done;
  List.rev !plan

(* Schedule the plan's cut/heal flips. Each flip is a timer on the
   destination node's shard — the shard that owns the arrival-time link
   check — so sharded runs see no cross-domain writes to the link state.
   Times are absolute; anything already in the past fires immediately. *)
let schedule_plan transport control plan =
  let now = now transport in
  List.iter
    (fun o ->
      let at delay f = schedule_on transport ~node:o.link_dst ~delay:(Float.max 0.0 delay) f in
      at (o.from -. now) (fun () -> control.set_link ~src:o.link_src ~dst:o.link_dst ~up:false);
      at (o.until -. now) (fun () -> control.set_link ~src:o.link_src ~dst:o.link_dst ~up:true))
    plan
