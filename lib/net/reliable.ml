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
   drains as soon as the missing retransmit lands. Under a sharded
   transport the two halves live on different domains, but they are
   distinct fields: the sender's shard only touches [next_seq], the
   receiver's only [expected]/[pending]. *)
type channel = {
  mutable next_seq : int;
  mutable expected : int;
  pending : (int, unit -> unit) Hashtbl.t;
  (* Suspension state, owned by the sender's shard. A suspended channel
     has burned its retry budget: instead of dropping the unacked tail it
     parks each message's re-offer thunk here (keyed by seq, re-run in
     seq order on resurrection) and keeps exactly one heal-probe loop
     alive until the link answers. [probe_gen] invalidates stale probe
     timers across resurrect/forget boundaries. *)
  mutable suspended : bool;
  mutable parked : (int * (unit -> unit)) list;
  mutable probe_gen : int;
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

type channel_event =
  | Next_seq of { src : int; dst : int; seq : int }
  | Expected of { src : int; dst : int; seq : int }

type t = {
  inner : Transport.t;
  config : config;
  metrics : (int -> Dpc_util.Metrics.t) option;
  (* The full [src][dst] endpoint matrix, allocated eagerly: channel
     lookup never mutates a shared table, so concurrent shards cannot
     race on it. A few MB at the paper's 125 nodes. *)
  channels : channel array array;
  mutable persist : (channel_event -> unit) option;
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
          { next_seq = 0; expected = 0; pending = Hashtbl.create 8; suspended = false;
            parked = []; probe_gen = 0 }));
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
let persist t ev = match t.persist with None -> () | Some f -> f ev

let channel t ~src ~dst = t.channels.(src).(dst)

(* Deliver in sequence order: run the arrival if it is the next expected
   message, then drain whatever the gap was holding back. Out-of-order
   arrivals wait in the window; duplicates (below the watermark or already
   waiting) are dropped. The watermark is advanced (and persisted via
   [notify]) BEFORE the delivery closure runs, so a journal written from
   inside the closure sees the post-delivery sequence state. Returns what
   happened, for accounting. *)
let accept ~notify ch seq k =
  if seq < ch.expected || Hashtbl.mem ch.pending seq then `Duplicate
  else if seq > ch.expected then begin
    Hashtbl.add ch.pending seq k;
    `Held
  end
  else begin
    ch.expected <- ch.expected + 1;
    notify ch.expected;
    k ();
    let rec drain () =
      match Hashtbl.find_opt ch.pending ch.expected with
      | None -> ()
      | Some k' ->
          Hashtbl.remove ch.pending ch.expected;
          ch.expected <- ch.expected + 1;
          notify ch.expected;
          k' ();
          drain ()
    in
    drain ();
    `Delivered
  end

(* ---- suspension + resurrection ----------------------------------- *)

(* The heal-probe loop: one per suspended channel, started on the
   suspension transition. A probe is a tiny Hello-style ping through the
   inner transport, answered by an equally tiny pong; no pong by the next
   capped-backoff deadline means probe again. Both legs cross the real
   (possibly partitioned) wire, so a one-way outage that lets data
   through but eats the reverse path keeps the channel suspended — which
   is right, because acks would be eaten too. The loop dies via
   [probe_gen] when the channel is resurrected or wiped by a crash. *)
let rec probe t ~src ~dst ch ~gen n =
  Atomic.incr t.probes;
  tick t src "net.probes";
  let pong = ref false in
  Transport.send t.inner ~src ~dst ~bytes:probe_bytes (fun () ->
    Transport.send t.inner ~src:dst ~dst:src ~bytes:probe_bytes (fun () -> pong := true));
  let delay = backoff_delay t.config ~src ~dst ~attempt:n in
  Transport.schedule_on t.inner ~node:src ~delay (fun () ->
    if ch.suspended && ch.probe_gen = gen then
      if !pong then resurrect t ~src ~dst ch else probe t ~src ~dst ch ~gen (n + 1))

(* Resurrection: the probe got its pong, so the link is back. Re-offer
   the parked tail in sequence order — the receiver's dedup/reorder
   window makes the re-offers land with exactly-once FIFO effects even
   if an old in-flight copy races them. *)
and resurrect t ~src ~dst:_ ch =
  ch.suspended <- false;
  ch.probe_gen <- ch.probe_gen + 1;
  Atomic.incr t.resurrections;
  tick t src "net.resurrections";
  let backlog = List.sort (fun (a, _) (b, _) -> compare a b) ch.parked in
  ch.parked <- [];
  List.iter
    (fun (_, resume) ->
      Atomic.decr t.abandoned;
      resume ())
    backlog

let suspend t ~src ~dst ch =
  if not ch.suspended then begin
    ch.suspended <- true;
    ch.probe_gen <- ch.probe_gen + 1;
    Atomic.incr t.suspensions;
    tick t src "net.suspensions";
    probe t ~src ~dst ch ~gen:ch.probe_gen 1
  end

let send t ~src ~dst ~bytes k =
  let ch = channel t ~src ~dst in
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  persist t (Next_seq { src; dst; seq = ch.next_seq });
  let wire = bytes + data_header_bytes in
  let acked = ref false in
  let attempts = ref 0 in
  let first = ref true in
  (* Receiver side: dedup and reorder through the window, then ack the
     cumulative watermark — but only when it covers this arrival. A
     delivered or below-watermark duplicate arrival is acked (the sender
     may have missed an earlier ack); a HELD arrival is not, because the
     receiver's window is volatile: if the receiver crashes, everything
     parked behind the gap dies with it, and only the unacked senders'
     retransmissions bring it back. A held message therefore costs one
     extra retransmission in the fault-free case — the price of making
     the ack a durable promise. *)
  let notify expected = persist t (Expected { src; dst; seq = expected }) in
  let deliver () =
    (match accept ~notify ch seq k with
    | `Delivered -> ()
    | `Duplicate ->
        Atomic.incr t.dup_dropped;
        tick t dst "net.dup_dropped"
    | `Held ->
        Atomic.incr t.held;
        tick t dst "net.held");
    if ch.expected > seq then begin
      Atomic.incr t.acks;
      ignore (Atomic.fetch_and_add t.ack_bytes_total ack_bytes);
      tick t dst "net.acks_sent";
      add t dst "net.ack_bytes" ack_bytes;
      Transport.send t.inner ~src:dst ~dst:src ~bytes:ack_bytes (fun () -> acked := true)
    end
  in
  let rec transmit () =
    incr attempts;
    if !first then begin
      first := false;
      Atomic.incr t.data_msgs;
      ignore (Atomic.fetch_and_add t.data_bytes wire);
      tick t src "net.data_msgs"
    end
    else begin
      Atomic.incr t.retransmits;
      ignore (Atomic.fetch_and_add t.retransmit_bytes wire);
      tick t src "net.retransmits";
      add t src "net.retransmit_bytes" wire
    end;
    Transport.send t.inner ~src ~dst ~bytes:wire deliver;
    (* Arm the ack timeout for this attempt, on the sender's own shard:
       the timer closure reads [acked]/[attempts], which the sender owns.
       There is no cancellation: an acked timer just fires and finds
       nothing to do. *)
    let delay = backoff_delay t.config ~src ~dst ~attempt:!attempts in
    Transport.schedule_on t.inner ~node:src ~delay (fun () ->
      if not !acked then
        if ch.suspended || !attempts > t.config.max_retries then park ()
        else transmit ())
  (* Out of retry budget (or the channel already gave up): park the
     re-offer instead of dropping the message, and make sure the heal
     probe is running. [abandoned] counts the currently-parked backlog —
     it drains back to zero when the channel resurrects, so a healthy
     (eventually-healed) run still ends with [abandoned = 0]. *)
  and park () =
    ch.parked <- (seq, fun () -> attempts := 0; transmit ()) :: ch.parked;
    Atomic.incr t.abandoned;
    Atomic.incr t.parked_total;
    tick t src "net.parked";
    suspend t ~src ~dst ch
  in
  if ch.suspended then park () else transmit ()

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
    persist t (Next_seq { src; dst; seq })
  end

let set_expected t ~src ~dst seq =
  let ch = channel t ~src ~dst in
  if seq > ch.expected then begin
    ch.expected <- seq;
    persist t (Expected { src; dst; seq })
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
    Hashtbl.reset ch.pending
  done

let snapshot_magic = "dpc-rel-v1"

let snapshot t ~node =
  let n = Array.length t.channels in
  let senders = ref [] and receivers = ref [] in
  for peer = n - 1 downto 0 do
    let out = t.channels.(node).(peer) in
    if out.next_seq > 0 then senders := (peer, out.next_seq) :: !senders;
    let in_ = t.channels.(peer).(node) in
    if in_.expected > 0 then receivers := (peer, in_.expected) :: !receivers
  done;
  let w = Dpc_util.Serialize.writer () in
  Dpc_util.Serialize.write_string w snapshot_magic;
  let pair (peer, seq) =
    Dpc_util.Serialize.write_varint w peer;
    Dpc_util.Serialize.write_varint w seq
  in
  Dpc_util.Serialize.write_list w pair !senders;
  Dpc_util.Serialize.write_list w pair !receivers;
  Dpc_util.Serialize.contents w

let restore t ~node blob =
  let r = Dpc_util.Serialize.reader blob in
  if Dpc_util.Serialize.read_string r <> snapshot_magic then
    raise (Dpc_util.Serialize.Corrupt "not a Reliable channel snapshot");
  let pair () =
    let peer = Dpc_util.Serialize.read_varint r in
    let seq = Dpc_util.Serialize.read_varint r in
    (peer, seq)
  in
  List.iter (fun (dst, seq) -> set_next_seq t ~src:node ~dst seq) (Dpc_util.Serialize.read_list r pair);
  List.iter (fun (src, seq) -> set_expected t ~src ~dst:node seq) (Dpc_util.Serialize.read_list r pair)

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
