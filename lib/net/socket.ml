module Clock = Dpc_util.Clock
module Event_queue = Dpc_util.Event_queue
module Serialize = Dpc_util.Serialize

type persist_event =
  | Sent of { dst : int; seq : int; payload : string }
  | Acked of { dst : int; seq : int }
  | Expected of { src : int; seq : int }

type stats = {
  data_sent : int;
  data_received : int;
  retransmits : int;
  dup_dropped : int;
  held : int;
  acks_sent : int;
  reconnects : int;
  chaos_dropped : int;
  chaos_duplicated : int;
  chaos_delayed : int;
  blocked_drops : int;
  stray_frames : int;
}

(* A stream needs no backoff: every unacked frame is re-offered every 250 ms
   until an ack covers it, and a channel never gives up (dpc-wire-v1 has
   no probe frame to heal one with). *)
let channel_config =
  { Reliable.timeout = 0.25; backoff = 1.0; max_timeout = 0.25; max_retries = max_int; jitter = 0.0 }

(* The socket path of a ["unix:<path>"] address. *)
let socket_path s =
  if String.starts_with ~prefix:"unix:" s && String.length s > 5 then
    String.sub s 5 (String.length s - 5)
  else invalid_arg (Printf.sprintf "Socket: address %S is not unix:<path>" s)

let sockaddr s = Unix.ADDR_UNIX (socket_path s)

type conn = {
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  outq : string Queue.t;  (* encoded frames awaiting the wire *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable peer : int;  (* -1 until the hello arrives *)
  mutable connecting : bool;  (* outgoing dial, handshake not yet done *)
  mutable closed : bool;
  dialed : bool;  (* our connection to [peer], not one it dialed *)
}

type t = {
  nodes : int;
  local : int;
  paths : string array;  (* each node's socket path *)
  epoch : float;
  listen_fd : Unix.file_descr;
  scratch : Bytes.t;
  mutable conns : conn list;  (* open ones only; at most one dialed per peer *)
  (* Timers, by wall-clock seconds since [epoch]: the channels'
     retransmissions, delayed chaos frames and local deliveries. *)
  timers : Event_queue.t;
  timer_clock : Event_queue.clock;
  channels : string Reliable.link;
  ack_due : bool array;  (* by peer: an arrival its last ack does not cover *)
  mutable deliver : src:int -> payload:string -> unit;
  mutable control : payload:string -> reply:(string -> unit) -> unit;
  mutable persist : persist_event -> unit;
  mutable sync : unit -> unit;
  mutable delivered_any : bool;
  mutable stopped : bool;
  mutable bytes_total : int;
  mutable msgs_total : int;
  (* The [stats] counters other than the channels', as [socket.<field>]. *)
  counters : Dpc_util.Metrics.t;
  (* Injectable link faults: [blocked] peers are a process-level partition
     (dials refused, established connections dropped, inbound frames
     eaten); [chaos] corrupts outgoing data frames the way
     [Transport.faulty] corrupts simulated sends. *)
  blocked : bool array;
  mutable chaos : (src:int -> dst:int -> bytes:int -> Transport.fault) option;
}

let now t = Clock.now () -. t.epoch

let schedule_at t at fn = Event_queue.push t.timers at fn

let count t name = Dpc_util.Metrics.incr t.counters name

let conn_alive c = not (c.closed || c.connecting)

let outq_bytes c = Queue.fold (fun acc s -> acc + String.length s) (-c.out_off) c.outq

let check_peer t what peer =
  if peer < 0 || peer >= t.nodes || peer = t.local then
    invalid_arg (Printf.sprintf "Socket.%s: peer %d out of range" what peer)

(* A peer is worth dialing while we owe it data or acks. *)
let want_peer t peer =
  Reliable.unacked t.channels ~dst:peer > 0
  || Reliable.delivered t.channels ~src:peer ~dst:t.local > 0

(* ---- wire I/O ------------------------------------------------------- *)

let rec flush_conn t c =
  if (not c.closed) && not (Queue.is_empty c.outq) then begin
    let head = Queue.peek c.outq in
    let len = String.length head - c.out_off in
    match Unix.write_substring c.fd head c.out_off len with
    | n ->
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush_conn t c
        end
        else c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t c
  end

(* A lost connection is redialed on demand: by the next retransmission
   to the peer, or by the next ack owed to it. *)
and close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

let dialed_to t dst = List.find_opt (fun c -> c.dialed && c.peer = dst) t.conns

let new_conn fd ~peer ~connecting ~dialed =
  {
    fd;
    decoder = Wire.Decoder.create ();
    outq = Queue.create ();
    out_off = 0;
    peer;
    connecting;
    closed = false;
    dialed;
  }

(* The select loop finishes every dial, even one that connects at once:
   the hello, the re-offered tail and the ack go out from the loop, never
   from inside a delivery batch whose effects are not yet flushed. *)
let ensure_dial t dst =
  if dialed_to t dst = None && not t.blocked.(dst) then begin
    let sa = Unix.ADDR_UNIX t.paths.(dst) in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    let dialing () = t.conns <- new_conn fd ~peer:dst ~connecting:true ~dialed:true :: t.conns in
    match Unix.connect fd sa with
    | () -> dialing ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) -> dialing ()
    | exception Unix.Unix_error (_, _, _) -> ( try Unix.close fd with _ -> ())
  end

let enqueue_frame t c frame_bytes =
  if not c.closed then begin
    Queue.push frame_bytes c.outq;
    flush_conn t c
  end

let send_ack_frame t peer c =
  count t "socket.acks_sent";
  t.ack_due.(peer) <- false;
  enqueue_frame t c
    (Wire.encode
       { kind = Ack; src = t.local; dst = peer;
         seq = Reliable.delivered t.channels ~src:peer ~dst:t.local; payload = "" })

let send_ack t peer =
  match dialed_to t peer with
  | Some c when conn_alive c -> send_ack_frame t peer c
  | _ -> ensure_dial t peer

let dial_connected t dst c =
  count t "socket.reconnects";
  enqueue_frame t c (Wire.encode { kind = Hello; src = t.local; dst; seq = 0; payload = "" });
  Reliable.reoffer t.channels ~dst;
  if Reliable.delivered t.channels ~src:dst ~dst:t.local > 0 then send_ack_frame t dst c

(* Every outgoing data frame funnels through here so link chaos has one
   injection point. A dropped frame never reaches the wire — its channel
   timer re-offers it; a duplicate is enqueued twice (the peer's dedup
   window eats the copy); a delayed frame is enqueued by a timer,
   re-checking the connection then. Wire sequence numbers are 1-based. *)
let emit t ~dst ~seq ~retransmit payload =
  let wire = Wire.encode { kind = Data; src = t.local; dst; seq = seq + 1; payload } in
  let enqueue () =
    match dialed_to t dst with
    | Some c when conn_alive c ->
        (* Skip a re-offer while an earlier burst is still draining:
           re-queueing on a congested connection only amplifies the
           backlog. *)
        if not (retransmit && outq_bytes c >= 1 lsl 20) then enqueue_frame t c wire
    | Some _ -> ()
    | None -> ensure_dial t dst
  in
  match t.chaos with
  | None -> enqueue ()
  | Some decide -> (
      match decide ~src:t.local ~dst ~bytes:(String.length wire) with
      | Transport.F_deliver -> enqueue ()
      | Transport.F_drop -> count t "socket.chaos_dropped"
      | Transport.F_duplicate ->
          count t "socket.chaos_duplicated";
          enqueue ();
          enqueue ()
      | Transport.F_delay extra ->
          count t "socket.chaos_delayed";
          schedule_at t (now t +. extra) enqueue)

(* The channel has advanced its watermark past this payload. *)
let receive t ~src payload =
  t.persist (Expected { src; seq = Reliable.delivered t.channels ~src ~dst:t.local + 1 });
  count t "socket.data_received";
  t.delivered_any <- true;
  t.deliver ~src ~payload

(* ---- the data plane -------------------------------------------------- *)

let send_payload t ~dst payload =
  check_peer t "send_payload" dst;
  t.persist (Sent { dst; seq = Reliable.sent t.channels ~src:t.local ~dst + 1; payload });
  count t "socket.data_sent";
  t.msgs_total <- t.msgs_total + 1;
  t.bytes_total <- t.bytes_total + Wire.header_bytes + String.length payload;
  Reliable.send t.channels ~src:t.local ~dst ~bytes:(String.length payload) payload

let handle_frame t c (f : Wire.frame) =
  match f.kind with
  | Hello ->
      c.peer <- f.src;
      (* A blocked peer's dial is refused at the handshake: the partition
         is symmetric from this endpoint's point of view. *)
      if f.src < t.nodes && t.blocked.(f.src) then close_conn t c
  | Data | Ack when f.src >= t.nodes || f.src = t.local ->
      count t "socket.stray_frames"
  | Data | Ack when t.blocked.(f.src) -> count t "socket.blocked_drops"
  | Data ->
      if f.dst = t.local && Reliable.arrive t.channels ~src:f.src ~seq:(f.seq - 1) f.payload then
        t.ack_due.(f.src) <- true
  | Ack ->
      if Reliable.ack_upto t.channels ~dst:f.src f.seq then
        t.persist (Acked { dst = f.src; seq = f.seq })
  | Ctrl ->
      let reply s =
        enqueue_frame t c
          (Wire.encode { kind = Ctrl; src = t.local; dst = Wire.control_id; seq = f.seq; payload = s })
      in
      t.control ~payload:f.payload ~reply

let read_conn t c =
  let continue = ref true in
  while !continue && not c.closed do
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 ->
        close_conn t c;
        continue := false
    | n -> Wire.Decoder.feed c.decoder t.scratch 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
    | exception Unix.Unix_error (_, _, _) ->
        close_conn t c;
        continue := false
  done;
  (* Drain complete frames; a corrupt stream drops the connection (the
     peer's retransmit discipline recovers anything undelivered). *)
  let rec drain () =
    if not c.closed then
      match Wire.Decoder.next c.decoder with
      | Some f ->
          handle_frame t c f;
          drain ()
      | None -> ()
      | exception Dpc_util.Serialize.Corrupt _ -> close_conn t c
  in
  drain ()

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <- new_conn fd ~peer:(-1) ~connecting:false ~dialed:false :: t.conns
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let check_connect t c =
  match Unix.getsockopt_error c.fd with
  | None ->
      c.connecting <- false;
      dial_connected t c.peer c
  | Some _ -> close_conn t c

(* After every receive batch: flush effects to disk, then let the acks out.
   The order is the whole point — an ack is a durable promise. *)
let finish_batch t =
  if t.delivered_any then begin
    t.sync ();
    t.delivered_any <- false
  end;
  Array.iteri (fun peer due -> if due then send_ack t peer) t.ack_due

let fire_due_timers t =
  while Event_queue.next_time t.timers <= now t do
    let action = Event_queue.pop t.timers t.timer_clock in
    action ()
  done

let run_loop t ?until () =
  let horizon_open () = match until with Some u -> now t < u | None -> true in
  while (not t.stopped) && horizon_open () do
    fire_due_timers t;
    if (not t.stopped) && horizon_open () then begin
      let conns = t.conns in
      List.iter (fun c -> if (not c.closed) && not (Queue.is_empty c.outq) then flush_conn t c) conns;
      let rd =
        t.listen_fd
        :: List.filter_map (fun c -> if conn_alive c then Some c.fd else None) t.conns
      in
      let wr =
        List.filter_map
          (fun c ->
            if c.closed then None
            else if c.connecting || not (Queue.is_empty c.outq) then Some c.fd
            else None)
          t.conns
      in
      let tnow = now t in
      let timeout =
        let upper = Float.min 0.05 (Event_queue.next_time t.timers -. tnow) in
        let upper = match until with Some u -> Float.min upper (u -. tnow) | None -> upper in
        Float.max 0. upper
      in
      match Unix.select rd wr [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.memq t.listen_fd readable then accept_pending t;
          let conn_of fd = List.find_opt (fun c -> c.fd == fd && not c.closed) t.conns in
          List.iter
            (fun fd ->
              match conn_of fd with
              | Some c when c.connecting -> check_connect t c
              | Some c -> flush_conn t c
              | None -> ())
            writable;
          List.iter
            (fun fd ->
              if fd != t.listen_fd then
                match conn_of fd with Some c when not c.connecting -> read_conn t c | _ -> ())
            readable;
          finish_batch t
    end
  done

(* ---- lifecycle ------------------------------------------------------- *)

let create ~nodes ~local ~addr_of () =
  if nodes <= 0 then invalid_arg "Socket.create: nodes must be positive";
  if local < 0 || local >= nodes then invalid_arg "Socket.create: local node out of range";
  (* A write to a connection its peer has closed must fail with EPIPE,
     which drops the connection, instead of killing the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let paths = Array.init nodes (fun i -> socket_path (addr_of i)) in
  if Sys.file_exists paths.(local) then ( try Unix.unlink paths.(local) with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX paths.(local));
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  (* The channels call back into the socket they belong to. *)
  let rec t =
    lazy
      {
        nodes;
        local;
        paths;
        epoch = Clock.now ();
        listen_fd;
        scratch = Bytes.create 65536;
        conns = [];
        timers = Event_queue.create ();
        timer_clock = { Event_queue.now = 0.0 };
        channels =
          Reliable.over_frames ~config:channel_config ~nodes ~local
            {
              emit = (fun ~dst ~seq ~retransmit payload -> emit (Lazy.force t) ~dst ~seq ~retransmit payload);
              timer = (fun ~delay k -> let t = Lazy.force t in schedule_at t (now t +. delay) k);
              receive = (fun ~src payload -> receive (Lazy.force t) ~src payload);
            };
        ack_due = Array.make nodes false;
        deliver = (fun ~src:_ ~payload:_ -> ());
        control = (fun ~payload:_ ~reply:_ -> ());
        persist = ignore;
        sync = ignore;
        delivered_any = false;
        stopped = false;
        bytes_total = 0;
        msgs_total = 0;
        counters = Dpc_util.Metrics.create ();
        blocked = Array.make nodes false;
        chaos = None;
      }
  in
  Lazy.force t

let set_deliver t f = t.deliver <- f
let set_control t f = t.control <- f
let set_persist t f = t.persist <- f
let set_sync t f = t.sync <- f

let set_chaos t ~config ~seed =
  t.chaos <- Some (Transport.hashed_decide ~config ~seed ~nodes:t.nodes)

let set_peer_blocked t ~peer blocked =
  check_peer t "set_peer_blocked" peer;
  if blocked && not t.blocked.(peer) then begin
    t.blocked.(peer) <- true;
    (* Cut the established paths both ways: our dial to the peer and any
       inbound connection it holds to us. Frames already buffered die
       with the connection; the peer's (and our) retransmit discipline
       recovers them after the heal. *)
    List.iter (fun c -> if c.peer = peer then close_conn t c) t.conns
  end
  else if (not blocked) && t.blocked.(peer) then begin
    t.blocked.(peer) <- false;
    (* Heal: redial eagerly if we owe the peer anything; the reconnect
       handshake re-offers the whole unacked tail. *)
    if want_peer t peer then ensure_dial t peer
  end

(* The restart API speaks dpc-wire-v1's 1-based sequences: a sender's
   next sequence and a receiver's watermark are one past the channel's
   counts, an acked sequence equals its count. *)

let set_next_seq t ~dst v =
  check_peer t "set_next_seq" dst;
  Reliable.set_next_seq t.channels ~src:t.local ~dst (v - 1)

let set_expected t ~src v =
  check_peer t "set_expected" src;
  Reliable.set_expected t.channels ~src ~dst:t.local (v - 1)

let sender_next_seq t ~dst = Reliable.sent t.channels ~src:t.local ~dst + 1

let requeue t ~dst ~seq payload =
  check_peer t "requeue" dst;
  Reliable.requeue t.channels ~dst ~seq:(seq - 1) payload

let chan_magic = "dpc-chan-v1"

let snapshot_channels t =
  let peers f = List.filter_map f (List.init t.nodes Fun.id) in
  let outs =
    peers (fun dst ->
      let next_seq = sender_next_seq t ~dst and acked = Reliable.acked t.channels ~dst in
      if next_seq > 1 || acked > 0 then Some (dst, next_seq, acked) else None)
  in
  let ins =
    peers (fun src ->
      let expected = Reliable.delivered t.channels ~src ~dst:t.local + 1 in
      if expected > 1 then Some (src, expected) else None)
  in
  Serialize.with_scratch (fun w ->
      Serialize.write_string w chan_magic;
      Serialize.write_list w
        (fun (dst, next_seq, acked) ->
          Serialize.write_varint w dst;
          Serialize.write_varint w next_seq;
          Serialize.write_varint w acked)
        outs;
      Serialize.write_list w
        (fun (src, expected) ->
          Serialize.write_varint w src;
          Serialize.write_varint w expected)
        ins)

let restore_channels t blob =
  let r = Serialize.reader blob in
  let magic = Serialize.read_string r in
  if magic <> chan_magic then
    raise (Serialize.Corrupt (Printf.sprintf "channel snapshot: bad magic %S" magic));
  let peer () =
    let p = Serialize.read_varint r in
    if p < 0 || p >= t.nodes || p = t.local then
      raise (Serialize.Corrupt (Printf.sprintf "channel snapshot: peer %d outside the cluster" p));
    p
  in
  let outs =
    Serialize.read_list r (fun () ->
        let dst = peer () in
        let next_seq = Serialize.read_varint r in
        let acked = Serialize.read_varint r in
        (dst, next_seq, acked))
  in
  let ins =
    Serialize.read_list r (fun () ->
        let src = peer () in
        let expected = Serialize.read_varint r in
        (src, expected))
  in
  Serialize.expect_end r "channel snapshot";
  List.iter
    (fun (dst, next_seq, acked) ->
      set_next_seq t ~dst next_seq;
      ignore (Reliable.ack_upto t.channels ~dst acked))
    outs;
  List.iter (fun (src, expected) -> set_expected t ~src expected) ins

let unacked t =
  List.fold_left (fun n dst -> n + Reliable.unacked t.channels ~dst) 0 (List.init t.nodes Fun.id)

let stop t = t.stopped <- true

let close t =
  stop t;
  List.iter (close_conn t) t.conns;
  (try Unix.close t.listen_fd with _ -> ());
  try Unix.unlink t.paths.(t.local) with _ -> ()

let stats t =
  let r = Reliable.stats t.channels and c = Dpc_util.Metrics.counter_value t.counters in
  {
    data_sent = c "socket.data_sent";
    data_received = c "socket.data_received";
    retransmits = r.retransmits;
    dup_dropped = r.dup_dropped;
    held = r.held;
    acks_sent = c "socket.acks_sent";
    reconnects = c "socket.reconnects";
    chaos_dropped = c "socket.chaos_dropped";
    chaos_duplicated = c "socket.chaos_duplicated";
    chaos_delayed = c "socket.chaos_delayed";
    blocked_drops = c "socket.blocked_drops";
    stray_frames = c "socket.stray_frames";
  }

let transport t : Transport.t =
  (module struct
    let name = "socket"
    let nodes = t.nodes
    let shards = 1
    let shard_of _ = 0
    let now () = now t

    let schedule ~delay fn =
      if delay < 0. then invalid_arg "Socket.schedule: negative delay";
      schedule_at t (now () +. delay) fn

    let schedule_on ~node:_ ~delay fn = schedule ~delay fn

    let send ~src:_ ~dst ~bytes fn =
      if dst <> t.local then
        failwith
          (Printf.sprintf
             "Socket transport hosts node %d only: dst %d needs the runtime remote hook \
              (closures cannot cross a process boundary)"
             t.local dst);
      t.msgs_total <- t.msgs_total + 1;
      t.bytes_total <- t.bytes_total + bytes;
      schedule_at t (now ()) fn

    let broadcast ~src ~bytes fn =
      for dst = 0 to t.nodes - 1 do
        send ~src ~dst ~bytes (fun () -> fn dst)
      done

    let run ?until () = run_loop t ?until ()
    let total_bytes () = t.bytes_total
    let messages () = t.msgs_total
  end : Transport.S)
