type config = {
  timeout : float;
  backoff : float;
  max_timeout : float;
  max_retries : int;
  jitter : float;
}

let default_config =
  { timeout = 0.05; backoff = 2.0; max_timeout = 1.0; max_retries = 20; jitter = 0.0 }

(* Sequence number (and a little framing) on every data message; an ack
   carries the channel id and the sequence it confirms. A heal probe is a
   bare channel id + nonce, answered by an equally small pong. *)
let data_header_bytes = 8
let ack_bytes = 12
let probe_bytes = 10

(* The retransmit (and probe) delay for the [attempt]th try: capped
   exponential backoff, optionally pulled earlier by a deterministic
   per-channel hash — no shared random stream, so sharded runs and
   re-runs see the identical schedule. The jittered delay lives in
   [(1 - jitter) * capped, capped]: different channels de-synchronize,
   which is what stops a healing partition from turning every suspended
   sender's timer into one synchronized retransmit storm. *)
let backoff_delay config ~src ~dst ~attempt =
  let capped =
    Float.min (config.timeout *. (config.backoff ** float_of_int (attempt - 1))) config.max_timeout
  in
  if config.jitter <= 0.0 then capped
  else
    let u = Transport.channel_unit_hash ~seed:0x7ea1 ~src ~dst ~n:attempt in
    capped *. (1.0 -. (config.jitter *. u))

(* Arrivals one channel holds above a gap; see [accept]. *)
let window = 1024

(* One directed (src, dst) channel. The sender's half is [next_seq]; the
   receiver's half is the dedup/reorder window: everything below
   [expected] has been delivered in order, and [pending] holds the bodies
   of arrivals above the gap, waiting for it to fill. The window stays
   small — it drains as soon as the missing retransmit lands — and most
   channels never need one: it is created on the first out-of-order
   arrival. Under a sharded transport the two halves live on different
   domains, but they are distinct fields: the sender's shard only touches
   [next_seq], the receiver's only [expected]/[pending]. *)
type 'a channel = {
  mutable next_seq : int;
  mutable expected : int;
  mutable pending : (int, 'a) Hashtbl.t option;
  (* Suspension state, owned by the sender's shard. A suspended channel
     has burned its retry budget: instead of dropping the unacked tail it
     parks each message here (re-offered in seq order on resurrection)
     and keeps exactly one heal-probe loop alive until the link answers.
     [probe_gen] invalidates stale probe timers across resurrect/forget
     boundaries. *)
  mutable suspended : bool;
  mutable parked : 'a msg list;
  mutable probe_gen : int;
}

(* One data message, from its send until it is acked: the whole
   per-message state of the protocol. The receiver's shard reads only the
   immutable fields; [acked], [attempts] and [fresh] belong to the
   sender's shard. *)
and 'a msg = {
  ch : 'a channel;
  src : int;
  dst : int;
  seq : int;
  wire : int;  (* bytes per transmission, header included *)
  body : 'a;
  mutable acked : bool;
  mutable attempts : int;  (* transmissions since the last (re-)offer *)
  mutable fresh : bool;  (* not transmitted yet *)
}

(* A host that owns one node and reaches its peers over byte streams. *)
type frames_io = {
  emit : dst:int -> seq:int -> retransmit:bool -> string -> unit;
  timer : delay:float -> (unit -> unit) -> unit;
  receive : src:int -> string -> unit;
}

(* Cumulative acks reach the sender as a count, not as the message, so
   the frames medium keeps each peer's acked prefix and its unacked
   messages by sequence. *)
type frames = {
  io : frames_io;
  local : int;
  acked : int array;
  unacked : (int, string msg) Hashtbl.t array;
}

(* How a message travels. Through a transport, it is its delivery
   closure, sent in process and acked one by one. Over frames, it is a
   payload in a data frame, acked cumulatively by the host. *)
type _ medium =
  | Closures : Transport.t -> (unit -> unit) medium
  | Frames : frames -> string medium

type stats = {
  data_msgs : int;
  data_bytes : int;
  retransmits : int;
  retransmit_bytes : int;
  acks : int;
  ack_bytes_total : int;
  dup_dropped : int;
  held : int;
  abandoned : int;
  suspensions : int;
  resurrections : int;
  parked : int;
  probes : int;
}

type seq_field = Next_seq | Expected

type 'a link = {
  medium : 'a medium;
  config : config;
  metrics : (int -> Dpc_util.Metrics.t) option;
  (* The full [src][dst] endpoint matrix, allocated eagerly: channel
     lookup never mutates a shared table, so concurrent shards cannot
     race on it. Each receive window is created by the receiver's shard,
     on its first hold. *)
  channels : 'a channel array array;
  mutable persist : (seq_field -> src:int -> dst:int -> seq:int -> unit) option;
  (* Cluster-wide accounting; senders on every shard bump these. *)
  data_msgs : int Atomic.t;
  data_bytes : int Atomic.t;
  retransmits : int Atomic.t;
  retransmit_bytes : int Atomic.t;
  acks : int Atomic.t;
  ack_bytes_total : int Atomic.t;
  dup_dropped : int Atomic.t;
  held : int Atomic.t;
  abandoned : int Atomic.t;
  suspensions : int Atomic.t;
  resurrections : int Atomic.t;
  parked_total : int Atomic.t;
  probes : int Atomic.t;
  window_peak : int Atomic.t;
}

type t = (unit -> unit) link

let create ~config ?metrics ~nodes medium =
  if config.timeout <= 0.0 then invalid_arg "Reliable.wrap: timeout must be positive";
  if config.backoff < 1.0 then invalid_arg "Reliable.wrap: backoff must be >= 1";
  if config.max_retries < 0 then invalid_arg "Reliable.wrap: negative max_retries";
  if config.jitter < 0.0 || config.jitter >= 1.0 then
    invalid_arg "Reliable.wrap: jitter must be in [0, 1)";
  {
    medium;
    config;
    metrics;
    channels =
      Array.init nodes (fun _ ->
        Array.init nodes (fun _ ->
          { next_seq = 0; expected = 0; pending = None; suspended = false; parked = [];
            probe_gen = 0 }));
    persist = None;
    data_msgs = Atomic.make 0;
    data_bytes = Atomic.make 0;
    retransmits = Atomic.make 0;
    retransmit_bytes = Atomic.make 0;
    acks = Atomic.make 0;
    ack_bytes_total = Atomic.make 0;
    dup_dropped = Atomic.make 0;
    held = Atomic.make 0;
    abandoned = Atomic.make 0;
    suspensions = Atomic.make 0;
    resurrections = Atomic.make 0;
    parked_total = Atomic.make 0;
    probes = Atomic.make 0;
    window_peak = Atomic.make 0;
  }

let wrap ?(config = default_config) ?metrics inner =
  create ~config ?metrics ~nodes:(Transport.nodes inner) (Closures inner)

let over_frames ~config ~nodes ~local io =
  if local < 0 || local >= nodes then invalid_arg "Reliable.over_frames: local node out of range";
  create ~config ~nodes
    (Frames
       { io; local; acked = Array.make nodes 0;
         unacked = Array.init nodes (fun _ -> Hashtbl.create 16) })

let add t node name n =
  match t.metrics with None -> () | Some f -> Dpc_util.Metrics.add (f node) name n

let tick t node name = add t node name 1

let set_persist t f = t.persist <- Some f

let persist t field ~src ~dst ~seq =
  match t.persist with None -> () | Some f -> f field ~src ~dst ~seq

let channel t ~src ~dst = t.channels.(src).(dst)

(* A data message arrives at its receiver. Deliver in sequence order: run
   the arrival if it is the next expected message, then drain whatever
   the gap was holding back. Out-of-order arrivals wait in the window,
   up to [window] of them; duplicates (below the watermark or already
   waiting) are dropped. The watermark is advanced (and persisted) BEFORE
   the body runs, so a journal written from inside it sees the
   post-delivery sequence state.

   Then ack the cumulative watermark — but only when it covers this
   arrival. A delivered or below-watermark duplicate arrival is acked
   (the sender may have missed an earlier ack); a HELD arrival is not,
   because the receiver's window is volatile: if the receiver crashes,
   everything parked behind the gap dies with it, and only the unacked
   senders' retransmissions bring it back. A held message therefore costs
   one extra retransmission in the fault-free case — the price of making
   the ack a durable promise. *)
let is_held ch seq = match ch.pending with None -> false | Some p -> Hashtbl.mem p seq

let window_full ch = match ch.pending with None -> false | Some p -> Hashtbl.length p >= window

let rec raise_peak peak v =
  let cur = Atomic.get peak in
  if v > cur && not (Atomic.compare_and_set peak cur v) then raise_peak peak v

let hold t ch seq body =
  let p =
    match ch.pending with
    | Some p -> p
    | None ->
        let p = Hashtbl.create 8 in
        ch.pending <- Some p;
        p
  in
  Hashtbl.add p seq body;
  raise_peak t.window_peak (Hashtbl.length p)

(* A delivered body: a closure runs itself, a payload goes to the host. *)
let run : type a. a link -> src:int -> a -> unit =
 fun t ~src body -> match t.medium with Closures _ -> body () | Frames f -> f.io.receive ~src body

(* The receiver's half of both media. Returns whether the watermark
   covers [seq], that is, whether to ack. *)
let accept t ch ~src ~dst ~seq body =
  if seq < ch.expected || is_held ch seq then begin
    Atomic.incr t.dup_dropped;
    tick t dst "net.dup_dropped"
  end
  else if seq > ch.expected then begin
    if not (window_full ch) then begin
      hold t ch seq body;
      Atomic.incr t.held;
      tick t dst "net.held"
    end
  end
  else begin
    ch.expected <- ch.expected + 1;
    persist t Expected ~src ~dst ~seq:ch.expected;
    run t ~src body;
    (* Re-read the window each step: a delivery may [forget] it. *)
    let draining = ref true in
    while !draining do
      match ch.pending with
      | None -> draining := false
      | Some pending -> (
          match Hashtbl.find pending ch.expected with
          | body' ->
              Hashtbl.remove pending ch.expected;
              ch.expected <- ch.expected + 1;
              persist t Expected ~src ~dst ~seq:ch.expected;
              run t ~src body'
          | exception Not_found -> draining := false)
    done
  end;
  ch.expected > seq

(* A closure's arrival, acked by a closure of its own. *)
let deliver (t : t) m =
  let (Closures inner) = t.medium in
  if accept t m.ch ~src:m.src ~dst:m.dst ~seq:m.seq m.body then begin
    Atomic.incr t.acks;
    ignore (Atomic.fetch_and_add t.ack_bytes_total ack_bytes);
    tick t m.dst "net.acks_sent";
    add t m.dst "net.ack_bytes" ack_bytes;
    Transport.send inner ~src:m.dst ~dst:m.src ~bytes:ack_bytes (fun () -> m.acked <- true)
  end

(* ---- the sender: transmission, timeout, suspension ------------------ *)

let schedule : type a. a link -> node:int -> delay:float -> (unit -> unit) -> unit =
 fun t ~node ~delay k ->
  match t.medium with
  | Closures inner -> Transport.schedule_on inner ~node ~delay k
  | Frames f -> f.io.timer ~delay k

let emit : type a. a link -> a msg -> retransmit:bool -> unit =
 fun t m ~retransmit ->
  match t.medium with
  | Closures inner ->
      Transport.send inner ~src:m.src ~dst:m.dst ~bytes:m.wire (fun () -> deliver t m)
  | Frames f -> f.io.emit ~dst:m.dst ~seq:m.seq ~retransmit m.body

(* A heal probe and its pong. dpc-wire-v1 has no probe frame, so a
   channel over frames counts its probe as answered: it resurrects at its
   first deadline and lets its retransmissions do the probing. *)
let ping : type a. a link -> src:int -> dst:int -> bool ref -> unit =
 fun t ~src ~dst pong ->
  match t.medium with
  | Closures inner ->
      Transport.send inner ~src ~dst ~bytes:probe_bytes (fun () ->
        Transport.send inner ~src:dst ~dst:src ~bytes:probe_bytes (fun () -> pong := true))
  | Frames _ -> pong := true

(* One transmission, with its ack timeout armed on the sender's own
   shard: the timer reads [acked]/[attempts], which the sender owns.
   There is no cancellation: an acked timer just fires and finds nothing
   to do. *)
let rec transmit t m =
  m.attempts <- m.attempts + 1;
  let retransmit = not m.fresh in
  if m.fresh then begin
    m.fresh <- false;
    Atomic.incr t.data_msgs;
    ignore (Atomic.fetch_and_add t.data_bytes m.wire);
    tick t m.src "net.data_msgs"
  end
  else begin
    Atomic.incr t.retransmits;
    ignore (Atomic.fetch_and_add t.retransmit_bytes m.wire);
    tick t m.src "net.retransmits";
    add t m.src "net.retransmit_bytes" m.wire
  end;
  emit t m ~retransmit;
  let delay = backoff_delay t.config ~src:m.src ~dst:m.dst ~attempt:m.attempts in
  schedule t ~node:m.src ~delay (fun () -> timeout t m)

and timeout t m =
  if not m.acked then
    if m.ch.suspended || m.attempts > t.config.max_retries then park t m else transmit t m

(* Out of retry budget (or the channel already gave up): park the message
   instead of dropping it, and make sure the heal probe is running.
   [abandoned] counts the currently-parked backlog — it drains back to
   zero when the channel resurrects, so a healthy (eventually-healed) run
   still ends with [abandoned = 0]. *)
and park t m =
  let ch = m.ch in
  ch.parked <- m :: ch.parked;
  Atomic.incr t.abandoned;
  Atomic.incr t.parked_total;
  tick t m.src "net.parked";
  if not ch.suspended then begin
    ch.suspended <- true;
    ch.probe_gen <- ch.probe_gen + 1;
    Atomic.incr t.suspensions;
    tick t m.src "net.suspensions";
    probe t ~src:m.src ~dst:m.dst ch ~gen:ch.probe_gen 1
  end

(* The heal-probe loop: one per suspended channel, started on the
   suspension transition. A probe is a tiny Hello-style ping through the
   inner transport, answered by an equally tiny pong; no pong by the next
   capped-backoff deadline means probe again. Both legs cross the real
   (possibly partitioned) wire, so a one-way outage that lets data
   through but eats the reverse path keeps the channel suspended — which
   is right, because acks would be eaten too. The loop dies via
   [probe_gen] when the channel is resurrected or wiped by a crash. *)
and probe t ~src ~dst ch ~gen n =
  Atomic.incr t.probes;
  tick t src "net.probes";
  let pong = ref false in
  ping t ~src ~dst pong;
  let delay = backoff_delay t.config ~src ~dst ~attempt:n in
  schedule t ~node:src ~delay (fun () ->
    if ch.suspended && ch.probe_gen = gen then
      if !pong then resurrect t ~src ch else probe t ~src ~dst ch ~gen (n + 1))

(* Resurrection: the probe got its pong, so the link is back. Re-offer
   the parked tail in sequence order — the receiver's dedup/reorder
   window makes the re-offers land with exactly-once FIFO effects even
   if an old in-flight copy races them. *)
and resurrect t ~src ch =
  ch.suspended <- false;
  ch.probe_gen <- ch.probe_gen + 1;
  Atomic.incr t.resurrections;
  tick t src "net.resurrections";
  let backlog = List.sort (fun a b -> compare a.seq b.seq) ch.parked in
  ch.parked <- [];
  List.iter
    (fun m ->
      Atomic.decr t.abandoned;
      m.attempts <- 0;
      transmit t m)
    backlog

(* Hand message [seq] of channel [(src, dst)] to the protocol. Over
   frames it stays in [unacked] until a cumulative ack covers it. *)
let offer : type a. a link -> src:int -> dst:int -> seq:int -> bytes:int -> a -> unit =
 fun t ~src ~dst ~seq ~bytes body ->
  let ch = channel t ~src ~dst in
  let m =
    { ch; src; dst; seq; wire = bytes + data_header_bytes; body; acked = false; attempts = 0;
      fresh = true }
  in
  (match t.medium with Frames f -> Hashtbl.replace f.unacked.(dst) seq m | Closures _ -> ());
  if ch.suspended then park t m else transmit t m

let send t ~src ~dst ~bytes body =
  let ch = channel t ~src ~dst in
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  persist t Next_seq ~src ~dst ~seq:ch.next_seq;
  offer t ~src ~dst ~seq ~bytes body

(* ------------------------------------------------------------------ *)
(* Crash support: channel sequence state as data.

   A node's share of the channel state is the [next_seq] of every channel
   it sends on and the [expected] watermark of every channel it receives
   on. The pending window is deliberately NOT part of it — held arrivals
   were never acked, so after a crash the peers' retransmissions rebuild
   the window on their own. Restoring the watermark is the whole recovery
   handshake: a retransmission below it is acked as a duplicate (filling
   the sender's missed ack), one at it is delivered, and the sender's
   restored [next_seq] keeps new messages from reusing sequence numbers
   the peer has already seen. *)

let set_next_seq t ~src ~dst seq =
  let ch = channel t ~src ~dst in
  if seq > ch.next_seq then begin
    ch.next_seq <- seq;
    persist t Next_seq ~src ~dst ~seq
  end

let set_expected t ~src ~dst seq =
  let ch = channel t ~src ~dst in
  if seq > ch.expected then begin
    ch.expected <- seq;
    persist t Expected ~src ~dst ~seq
  end

let forget t ~node =
  (* Mutate the existing channel records in place: in-flight retransmit
     and delivery closures captured them, and must observe the wipe. *)
  let n = Array.length t.channels in
  for peer = 0 to n - 1 do
    let out = t.channels.(node).(peer) in
    out.next_seq <- 0;
    (* A crash loses the parked tail with the rest of the volatile send
       state (the durable outbox re-offers it); kill the probe loop and
       drain the parked backlog out of [abandoned]. *)
    out.suspended <- false;
    out.probe_gen <- out.probe_gen + 1;
    List.iter (fun _ -> Atomic.decr t.abandoned) out.parked;
    out.parked <- [];
    let ch = t.channels.(peer).(node) in
    ch.expected <- 0;
    ch.pending <- None
  done

let snapshot_magic = "dpc-rel-v1"

(* The node's channels with a non-zero sequence, by peer: the sending
   ones, then the receiving ones. *)
let snapshot t ~node =
  let n = Array.length t.channels in
  Dpc_util.Serialize.with_scratch (fun w ->
    let peers seq =
      Dpc_util.Serialize.write_sorted w Int.compare
        (fun f ->
          for peer = 0 to n - 1 do
            if seq peer > 0 then f peer (seq peer)
          done)
        (fun peer seq ->
          Dpc_util.Serialize.write_varint w peer;
          Dpc_util.Serialize.write_varint w seq)
    in
    Dpc_util.Serialize.write_string w snapshot_magic;
    peers (fun peer -> t.channels.(node).(peer).next_seq);
    peers (fun peer -> t.channels.(peer).(node).expected))

let restore t ~node blob =
  let r = Dpc_util.Serialize.reader blob in
  if Dpc_util.Serialize.read_string r <> snapshot_magic then
    raise (Dpc_util.Serialize.Corrupt "not a Reliable channel snapshot");
  let pair () =
    let peer = Dpc_util.Serialize.read_varint r in
    if peer >= Array.length t.channels then
      raise (Dpc_util.Serialize.Corrupt "channel peer past the cluster");
    let seq = Dpc_util.Serialize.read_varint r in
    (peer, seq)
  in
  let senders = Dpc_util.Serialize.read_list r pair in
  let receivers = Dpc_util.Serialize.read_list r pair in
  Dpc_util.Serialize.expect_end r "channel snapshot";
  List.iter (fun (dst, seq) -> set_next_seq t ~src:node ~dst seq) senders;
  List.iter (fun (src, seq) -> set_expected t ~src ~dst:node seq) receivers

let transport (t : t) =
  let (Closures inner) = t.medium in
  Transport.intercept ~name:"reliable" inner (fun ~src ~dst ~bytes k -> send t ~src ~dst ~bytes k)

(* ------------------------------------------------------------------ *)
(* A frames host's side: one local node, payload bodies, cumulative acks. *)

let frames (t : string link) =
  let (Frames f) = t.medium in
  f

let arrive t ~src ~seq payload =
  let f = frames t in
  accept t (channel t ~src ~dst:f.local) ~src ~dst:f.local ~seq payload

let ack_upto t ~dst count =
  let f = frames t in
  let advanced = count > f.acked.(dst) in
  if advanced then begin
    f.acked.(dst) <- count;
    let settle seq (m : string msg) = if seq < count then (m.acked <- true; None) else Some m in
    Hashtbl.filter_map_inplace settle f.unacked.(dst)
  end;
  advanced

let requeue t ~dst ~seq payload =
  let f = frames t in
  if seq >= f.acked.(dst) && not (Hashtbl.mem f.unacked.(dst) seq) then begin
    let ch = channel t ~src:f.local ~dst in
    if seq >= ch.next_seq then ch.next_seq <- seq + 1;
    offer t ~src:f.local ~dst ~seq ~bytes:(String.length payload) payload
  end

let reoffer t ~dst =
  let f = frames t in
  for seq = f.acked.(dst) to (channel t ~src:f.local ~dst).next_seq - 1 do
    match Hashtbl.find_opt f.unacked.(dst) seq with
    | Some m -> f.io.emit ~dst ~seq ~retransmit:false m.body
    | None -> ()
  done

let sent t ~src ~dst = (channel t ~src ~dst).next_seq
let delivered t ~src ~dst = (channel t ~src ~dst).expected
let acked t ~dst = (frames t).acked.(dst)
let unacked t ~dst = Hashtbl.length (frames t).unacked.(dst)
let window_peak t = Atomic.get t.window_peak

let stats t : stats =
  {
    data_msgs = Atomic.get t.data_msgs;
    data_bytes = Atomic.get t.data_bytes;
    retransmits = Atomic.get t.retransmits;
    retransmit_bytes = Atomic.get t.retransmit_bytes;
    acks = Atomic.get t.acks;
    ack_bytes_total = Atomic.get t.ack_bytes_total;
    dup_dropped = Atomic.get t.dup_dropped;
    held = Atomic.get t.held;
    abandoned = Atomic.get t.abandoned;
    suspensions = Atomic.get t.suspensions;
    resurrections = Atomic.get t.resurrections;
    parked = Atomic.get t.parked_total;
    probes = Atomic.get t.probes;
  }

let suspended_channels t =
  let n = Array.length t.channels in
  let count = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if t.channels.(src).(dst).suspended then incr count
    done
  done;
  !count

module For_testing = struct
  let backoff_delay = backoff_delay
  let data_header_bytes = data_header_bytes
  let window = window
  let window_peak = window_peak
end
