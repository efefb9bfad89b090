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

(* One directed (src, dst) channel. The sender's half is [next_seq]; the
   receiver's half is the dedup/reorder window: everything below
   [expected] has been delivered in order, and [pending] holds arrivals
   above the gap, waiting for it to fill. The window stays small — it
   drains as soon as the missing retransmit lands — and most channels
   never need one: it is created on the first out-of-order arrival. Under
   a sharded transport the two halves live on different domains, but
   they are distinct fields: the sender's shard only touches
   [next_seq], the receiver's only [expected]/[pending]. *)
type channel = {
  mutable next_seq : int;
  mutable expected : int;
  mutable pending : (int, unit -> unit) Hashtbl.t option;
  (* Suspension state, owned by the sender's shard. A suspended channel
     has burned its retry budget: instead of dropping the unacked tail it
     parks each message here (re-offered in seq order on resurrection)
     and keeps exactly one heal-probe loop alive until the link answers.
     [probe_gen] invalidates stale probe timers across resurrect/forget
     boundaries. *)
  mutable suspended : bool;
  mutable parked : msg list;
  mutable probe_gen : int;
}

(* One data message, from its send until it is acked: the whole
   per-message state of the protocol. The receiver's shard reads only the
   immutable fields; [acked], [attempts] and [fresh] belong to the
   sender's shard. *)
and msg = {
  ch : channel;
  src : int;
  dst : int;
  seq : int;
  wire : int;  (* bytes per transmission, header included *)
  k : unit -> unit;
  mutable acked : bool;
  mutable attempts : int;  (* transmissions since the last (re-)offer *)
  mutable fresh : bool;  (* not transmitted yet *)
}

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

type t = {
  inner : Transport.t;
  config : config;
  metrics : (int -> Dpc_util.Metrics.t) option;
  (* The full [src][dst] endpoint matrix, allocated eagerly: channel
     lookup never mutates a shared table, so concurrent shards cannot
     race on it. Each receive window is created by the receiver's shard,
     on its first hold. *)
  channels : channel array array;
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
}

let wrap ?(config = default_config) ?metrics inner =
  if config.timeout <= 0.0 then invalid_arg "Reliable.wrap: timeout must be positive";
  if config.backoff < 1.0 then invalid_arg "Reliable.wrap: backoff must be >= 1";
  if config.max_retries < 0 then invalid_arg "Reliable.wrap: negative max_retries";
  if config.jitter < 0.0 || config.jitter >= 1.0 then
    invalid_arg "Reliable.wrap: jitter must be in [0, 1)";
  let n = Transport.nodes inner in
  {
    inner;
    config;
    metrics;
    channels =
      Array.init n (fun _ ->
        Array.init n (fun _ ->
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
  }

let add t node name n =
  match t.metrics with None -> () | Some f -> Dpc_util.Metrics.add (f node) name n

let tick t node name = add t node name 1

let set_persist t f = t.persist <- Some f

let persist t field ~src ~dst ~seq =
  match t.persist with None -> () | Some f -> f field ~src ~dst ~seq

let channel t ~src ~dst = t.channels.(src).(dst)

(* A data message arrives at its receiver. Deliver in sequence order: run
   the arrival if it is the next expected message, then drain whatever
   the gap was holding back. Out-of-order arrivals wait in the window;
   duplicates (below the watermark or already waiting) are dropped. The
   watermark is advanced (and persisted) BEFORE the delivery closure
   runs, so a journal written from inside the closure sees the
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

let hold ch seq k =
  match ch.pending with
  | Some p -> Hashtbl.add p seq k
  | None ->
      let p = Hashtbl.create 8 in
      Hashtbl.add p seq k;
      ch.pending <- Some p

let deliver t m =
  let ch = m.ch and src = m.src and dst = m.dst and seq = m.seq in
  if seq < ch.expected || is_held ch seq then begin
    Atomic.incr t.dup_dropped;
    tick t dst "net.dup_dropped"
  end
  else if seq > ch.expected then begin
    hold ch seq m.k;
    Atomic.incr t.held;
    tick t dst "net.held"
  end
  else begin
    ch.expected <- ch.expected + 1;
    persist t Expected ~src ~dst ~seq:ch.expected;
    m.k ();
    (* Re-read the window each step: a delivery may [forget] it. *)
    let draining = ref true in
    while !draining do
      match ch.pending with
      | None -> draining := false
      | Some pending -> (
          match Hashtbl.find pending ch.expected with
          | k' ->
              Hashtbl.remove pending ch.expected;
              ch.expected <- ch.expected + 1;
              persist t Expected ~src ~dst ~seq:ch.expected;
              k' ()
          | exception Not_found -> draining := false)
    done
  end;
  if ch.expected > seq then begin
    Atomic.incr t.acks;
    ignore (Atomic.fetch_and_add t.ack_bytes_total ack_bytes);
    tick t dst "net.acks_sent";
    add t dst "net.ack_bytes" ack_bytes;
    Transport.send t.inner ~src:dst ~dst:src ~bytes:ack_bytes (fun () -> m.acked <- true)
  end

(* ---- the sender: transmission, timeout, suspension ------------------ *)

(* One transmission, with its ack timeout armed on the sender's own
   shard: the timer reads [acked]/[attempts], which the sender owns.
   There is no cancellation: an acked timer just fires and finds nothing
   to do. *)
let rec transmit t m =
  m.attempts <- m.attempts + 1;
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
  Transport.send t.inner ~src:m.src ~dst:m.dst ~bytes:m.wire (fun () -> deliver t m);
  let delay = backoff_delay t.config ~src:m.src ~dst:m.dst ~attempt:m.attempts in
  Transport.schedule_on t.inner ~node:m.src ~delay (fun () -> timeout t m)

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
  Transport.send t.inner ~src ~dst ~bytes:probe_bytes (fun () ->
    Transport.send t.inner ~src:dst ~dst:src ~bytes:probe_bytes (fun () -> pong := true));
  let delay = backoff_delay t.config ~src ~dst ~attempt:n in
  Transport.schedule_on t.inner ~node:src ~delay (fun () ->
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

let send t ~src ~dst ~bytes k =
  let ch = channel t ~src ~dst in
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  persist t Next_seq ~src ~dst ~seq:ch.next_seq;
  let m =
    { ch; src; dst; seq; wire = bytes + data_header_bytes; k; acked = false; attempts = 0;
      fresh = true }
  in
  if ch.suspended then park t m else transmit t m

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
  List.iter (fun (dst, seq) -> set_next_seq t ~src:node ~dst seq) senders;
  List.iter (fun (src, seq) -> set_expected t ~src ~dst:node seq) receivers

let transport t : Transport.t =
  let (module T : Transport.S) = t.inner in
  (module struct
    let name = "reliable+" ^ T.name
    let nodes = T.nodes
    let shards = T.shards
    let shard_of = T.shard_of
    let now = T.now
    let schedule = T.schedule
    let schedule_on = T.schedule_on
    let send ~src ~dst ~bytes k = send t ~src ~dst ~bytes k

    let broadcast ~src ~bytes k =
      for dst = 0 to nodes - 1 do
        send ~src ~dst ~bytes (fun () -> k dst)
      done

    let run = T.run
    let total_bytes = T.total_bytes
    let messages = T.messages
  end)

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
