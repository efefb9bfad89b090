(* Sharded discrete-event transport: the node set is partitioned
   round-robin into [domains] shards, each owned by one OCaml domain with
   its own event queue, clock, and counters. The shards run a
   conservative (YAWNS-style) time-window loop with one barrier per
   round: every round processes the events in [T, T + latency) where T is
   the global minimum pending time and [latency] is the minimum
   cross-shard delay, so no shard can receive a message "from the past".
   An event for another shard waits in the outbox of the (sender,
   receiver) pair, and the receiver drains it after the barrier.

   Determinism is structural, not statistical. Every event carries a key
   [(at, origin, ctr)] assigned by its creator: [origin] is the creating
   node (or a reserved id for the main domain / anonymous shard timers)
   and [ctr] a per-origin counter. The key is a total order, identical
   whatever the shard count, so each node processes its events in the
   same sequence under [~domains:1] and [~domains:4] — the
   parallel-vs-sequential digest oracle in the tests leans on exactly
   this. *)

module Q = Dpc_util.Event_queue

(* The events one shard made for another during one round, in parallel
   arrays like the queue's, so that posting one allocates nothing. *)
type outbox = {
  mutable times : Float.Array.t;
  mutable keys : int array;
  mutable actions : (unit -> unit) array;
  mutable len : int;
}

(* A float that OCaml stores unboxed, so updating it allocates nothing. *)
type earliest = { mutable at : float }

type shard = {
  sid : int;
  queue : Q.t;
  clock : Q.clock;
  (* The earliest time among the events put in this shard's outboxes
     during the current round; [infinity] if none. *)
  sent : earliest;
  (* The parity of the current round, which picks the outboxes written. *)
  mutable parity : int;
  mutable anon_ctr : int;
  mutable bytes : int;
  mutable msgs : int;
}

(* Reusable sense-reversing barrier; [Mutex]/[Condition] only, no
   domainslib. The lock handoff doubles as the memory fence that makes
   pre-barrier writes (published times, outboxes) visible after it. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    { lock = Mutex.create (); cond = Condition.create (); parties; count = 0; phase = 0 }

  let wait b =
    Mutex.lock b.lock;
    let phase = b.phase in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.phase <- b.phase + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = phase do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

type t = {
  nodes : int;
  domains : int;
  latency : float;
  shards : shard array;
  (* [outboxes.(outbox_index t ~parity ~src ~dst)] holds what shard [src]
     made for shard [dst] in a round of [parity]. The sender writes the
     parity-p outboxes only in rounds of parity p; the receiver drains
     them at the start of the next round, before the barrier that lets
     the sender write parity p again. *)
  outboxes : outbox array;
  (* [published.(parity * domains + sid)]: the earliest time shard [sid]
     will hold once the outboxes are drained. Written before the barrier
     that starts a round of [parity], read by every shard after it; the
     two parities keep a shard that runs ahead from overwriting a value
     another shard is still reading. *)
  published : Float.Array.t;
  (* Per-origin event counters. [node_ctr.(n)] is owned by [n]'s shard
     (or the main domain outside [run]). *)
  node_ctr : int array;
  mutable main_ctr : int;
  (* The main domain's clock: the maximum clock reached by any shard. *)
  main_clock : Q.clock;
  mutable running : bool;
  (* The first callback exception and the round that raised it. *)
  error : (int * exn * Printexc.raw_backtrace) option Atomic.t;
  barrier : Barrier.t;
}

(* The shard the current domain is driving, [None] on the main domain
   outside a sequential [run]. Worker domains are spawned per [run] call,
   so a fresh domain always starts at the default. *)
let dls_shard : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Reserved origins: [-1] is the main domain; [-(s + 2)] is shard [s]'s
   anonymous context (generic [schedule] with no node attached). *)
let main_origin = -1
let anon_origin sid = -(sid + 2)

(* A key packs [(origin, ctr)] into one int that orders the same way: the
   origin, shifted so the reserved ones are non-negative, above
   [ctr_bits] of counter. *)
let ctr_bits = 40
let max_ctr = (1 lsl ctr_bits) - 1
let max_origins = 1 lsl (Sys.int_size - 1 - ctr_bits)

let key t ~origin ~ctr =
  if ctr > max_ctr then invalid_arg "Shard_sim: event counter overflow";
  ((origin + t.domains + 1) lsl ctr_bits) lor ctr

let outbox_index t ~parity ~src ~dst = (((parity * t.domains) + src) * t.domains) + dst

let partition ~domains ~nodes =
  if domains <= 0 then invalid_arg "Shard_sim.partition: domains must be positive";
  if nodes <= 0 then invalid_arg "Shard_sim.partition: nodes must be positive";
  Array.init nodes (fun n -> n mod domains)

let create ?(latency = 0.001) ~domains ~nodes () =
  if domains <= 0 then invalid_arg "Shard_sim.create: domains must be positive";
  if nodes <= 0 then invalid_arg "Shard_sim.create: nodes must be positive";
  if nodes + domains + 1 > max_origins then invalid_arg "Shard_sim.create: too many nodes";
  if latency <= 0.0 then
    (* The window loop's lookahead is the minimum cross-shard delay; a
       zero-latency wire would shrink every round to a single timestamp
       and, worse, admit same-time cross-shard causality. *)
    invalid_arg "Shard_sim.create: latency must be positive";
  {
    nodes;
    domains;
    latency;
    shards =
      Array.init domains (fun sid ->
        { sid; queue = Q.create (); clock = { now = 0.0 }; sent = { at = infinity }; parity = 0;
          anon_ctr = 0; bytes = 0; msgs = 0 });
    outboxes =
      Array.init (2 * domains * domains) (fun _ ->
        { times = Float.Array.create 0; keys = [||]; actions = [||]; len = 0 });
    published = Float.Array.make (2 * domains) infinity;
    node_ctr = Array.make nodes 0;
    main_ctr = 0;
    main_clock = { now = 0.0 };
    running = false;
    error = Atomic.make None;
    barrier = Barrier.create domains;
  }

let shard_of t node = node mod t.domains

let check_node t ~what node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Shard_sim.%s: node %d out of range" what node)

let current_shard () = Domain.DLS.get dls_shard

let node_key t node =
  let ctr = t.node_ctr.(node) in
  t.node_ctr.(node) <- ctr + 1;
  key t ~origin:node ~ctr

let anon_key t s =
  let ctr = s.anon_ctr in
  s.anon_ctr <- ctr + 1;
  key t ~origin:(anon_origin s.sid) ~ctr

let idle () = ()

let grow ob =
  let capacity = max 16 (2 * ob.len) in
  let times = Float.Array.create capacity in
  Float.Array.blit ob.times 0 times 0 ob.len;
  let keys = Array.make capacity 0 in
  Array.blit ob.keys 0 keys 0 ob.len;
  let actions = Array.make capacity idle in
  Array.blit ob.actions 0 actions 0 ob.len;
  ob.times <- times;
  ob.keys <- keys;
  ob.actions <- actions

(* Put an event for shard [target] in [s]'s outbox for this round.
   Inlined, so that [at] stays unboxed. *)
let[@inline] post t s ~target at key action =
  let ob = t.outboxes.(outbox_index t ~parity:s.parity ~src:s.sid ~dst:target) in
  if ob.len = Array.length ob.keys then grow ob;
  Float.Array.unsafe_set ob.times ob.len at;
  Array.unsafe_set ob.keys ob.len key;
  Array.unsafe_set ob.actions ob.len action;
  ob.len <- ob.len + 1;
  if at < s.sent.at then s.sent.at <- at

let send t ~src ~dst ~bytes k =
  check_node t ~what:"send" src;
  check_node t ~what:"send" dst;
  let ctx = current_shard () in
  let charge = t.shards.(match ctx with Some sid -> sid | None -> shard_of t src) in
  charge.msgs <- charge.msgs + 1;
  charge.bytes <- charge.bytes + bytes;
  let now = match ctx with Some _ -> charge.clock.now | None -> t.main_clock.now in
  let at = now +. t.latency and key = node_key t src and target = shard_of t dst in
  (* From the main domain no workers are live, so the event goes straight
     into the target's queue, as it does from the target's own shard; from
     another shard it goes through the outbox and crosses at the next
     barrier. *)
  match ctx with
  | Some sid when sid <> target -> post t charge ~target at key k
  | _ -> Q.push_keyed t.shards.(target).queue at key k

let schedule t ~delay k =
  if delay < 0.0 then invalid_arg "Shard_sim.schedule: negative delay";
  match current_shard () with
  | None ->
      let ctr = t.main_ctr in
      t.main_ctr <- ctr + 1;
      Q.push_keyed t.shards.(0).queue (t.main_clock.now +. delay) (key t ~origin:main_origin ~ctr) k
  | Some sid ->
      let s = t.shards.(sid) in
      Q.push_keyed s.queue (s.clock.now +. delay) (anon_key t s) k

let schedule_on t ~node ~delay k =
  if delay < 0.0 then invalid_arg "Shard_sim.schedule_on: negative delay";
  check_node t ~what:"schedule_on" node;
  let target = shard_of t node in
  match current_shard () with
  | None -> Q.push_keyed t.shards.(target).queue (t.main_clock.now +. delay) (node_key t node) k
  | Some sid when sid = target ->
      let s = t.shards.(sid) in
      Q.push_keyed s.queue (s.clock.now +. delay) (node_key t node) k
  | Some sid ->
      (* Arming a timer on a foreign node's shard mid-run: allowed, but
         the node counter belongs to the target shard, so the event is
         tagged with the caller's anonymous origin and crosses via the
         outbox (clamped forward on ingest if the window already moved). *)
      let s = t.shards.(sid) in
      post t s ~target (s.clock.now +. delay) (anon_key t s) k

let total_bytes t = Array.fold_left (fun acc s -> acc + s.bytes) 0 t.shards
let messages t = Array.fold_left (fun acc s -> acc + s.msgs) 0 t.shards

let now t =
  match current_shard () with Some sid -> t.shards.(sid).clock.now | None -> t.main_clock.now

(* Run [s]'s events before [until]. Out of line, so that a caller boxes
   [until] once per call, not once per event. *)
let[@inline never] drain s ~until =
  while Q.due s.queue ~until do
    let action = Q.pop s.queue s.clock in
    action ()
  done

(* Move the events the other shards made for [s] in a round of [parity]
   into its queue. Only a cross-shard [schedule_on] with a tiny delay can
   land behind the local clock; pull it forward rather than run an event
   in the past. Message arrivals always clear it (arrival >= send time +
   latency >= the window's end). *)
let ingest t s ~parity =
  for src = 0 to t.domains - 1 do
    let ob = t.outboxes.(outbox_index t ~parity ~src ~dst:s.sid) in
    for i = 0 to ob.len - 1 do
      let at = Float.Array.unsafe_get ob.times i in
      Q.push_keyed s.queue
        (if at < s.clock.now then s.clock.now else at)
        (Array.unsafe_get ob.keys i) (Array.unsafe_get ob.actions i);
      Array.unsafe_set ob.actions i idle
    done;
    ob.len <- 0
  done

(* Publish, for the round of [parity], the earliest time [s] will hold
   once the receivers drain this round's outboxes: its own head or the
   earliest event it sent, whichever is sooner. The minimum over the
   shards is then the minimum of the heads after the drain. A clamped
   [schedule_on] would make it lower than that, which only narrows the
   next window. *)
let publish t s ~parity =
  let head = Q.next_time s.queue in
  Float.Array.set t.published ((parity * t.domains) + s.sid)
    (if s.sent.at < head then s.sent.at else head);
  s.sent.at <- infinity

(* One shard's side of the window loop, one barrier per round. After the
   barrier every shard reads the same published times and error, so they
   agree on the window — and on termination — without any leader. A
   round drains the outboxes first, so every outbox is empty on exit. *)
let worker t ~limit sid =
  Domain.DLS.set dls_shard (Some sid);
  let s = t.shards.(sid) in
  publish t s ~parity:0;
  Barrier.wait t.barrier;
  let rec round r =
    let parity = r land 1 in
    ingest t s ~parity:(1 - parity);
    let tmin = ref infinity in
    for i = parity * t.domains to ((parity + 1) * t.domains) - 1 do
      let at = Float.Array.get t.published i in
      if at < !tmin then tmin := at
    done;
    (* A shard that raises keeps going to the barrier; every shard stops
       at the start of the next round. *)
    let failed = match Atomic.get t.error with Some (raised, _, _) -> raised < r | None -> false in
    if (not failed) && !tmin < limit then begin
      s.parity <- parity;
      (try drain s ~until:(Float.min (!tmin +. t.latency) limit)
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set t.error None (Some (r, e, bt))));
      publish t s ~parity:(1 - parity);
      Barrier.wait t.barrier;
      round (r + 1)
    end
  in
  round 0;
  (* Empty this domain's minor heap before it exits: on OCaml 5.1,
     [Gc.quick_stat] otherwise loses part of a terminated domain's minor
     allocation, so allocation counted around a sharded run drifts from
     one run to the next. *)
  Gc.minor ()

let finish_sequential t s =
  Domain.DLS.set dls_shard None;
  t.running <- false;
  if s.clock.now > t.main_clock.now then t.main_clock.now <- s.clock.now

let run_sequential t ~limit =
  let s = t.shards.(0) in
  Domain.DLS.set dls_shard (Some 0);
  match drain s ~until:limit with
  | () -> finish_sequential t s
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish_sequential t s;
      Printexc.raise_with_backtrace e bt

let run ?until t =
  if t.running then invalid_arg "Shard_sim.run: already running";
  let limit = match until with None -> infinity | Some u -> u in
  t.running <- true;
  if t.domains = 1 then run_sequential t ~limit
  else begin
    Atomic.set t.error None;
    let workers = Array.init t.domains (fun sid -> Domain.spawn (fun () -> worker t ~limit sid)) in
    Array.iter Domain.join workers;
    t.running <- false;
    Array.iter (fun s -> if s.clock.now > t.main_clock.now then t.main_clock.now <- s.clock.now) t.shards;
    match Atomic.get t.error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let transport t : Transport.t =
  (module struct
    let name = Printf.sprintf "shard_sim[%d]" t.domains
    let nodes = t.nodes
    let shards = t.domains
    let shard_of node = shard_of t node
    let now () = now t
    let schedule ~delay k = schedule t ~delay k
    let schedule_on ~node ~delay k = schedule_on t ~node ~delay k
    let send ~src ~dst ~bytes k = send t ~src ~dst ~bytes k

    let broadcast ~src ~bytes k =
      for dst = 0 to nodes - 1 do
        send ~src ~dst ~bytes (fun () -> k dst)
      done

    let run ?until () = run ?until t
    let total_bytes () = total_bytes t
    let messages () = messages t
  end)

module For_testing = struct
  let shard_of = shard_of
  let partition = partition
  let run = run
end
