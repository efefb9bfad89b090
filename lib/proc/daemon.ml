module Socket = Dpc_net.Socket
module Backend = Dpc_core.Backend
module Durable = Dpc_core.Durable
module Runtime = Dpc_engine.Runtime
module Journal = Dpc_engine.Journal
module Tuple = Dpc_ndlog.Tuple

type t = {
  sock : Socket.t;
  runtime : Runtime.t;
  backend : Backend.t;
  durable : Durable.t;
  local : int;
}

(* The simulator's crash switchboard has no meaning here: the "crash" of a
   real node is the process dying, and recovery happens at the next
   [create] in a fresh process. *)
let real_process_control : Dpc_net.Transport.crash_control =
  {
    crash = ignore;
    restart = ignore;
    is_up = (fun _ -> true);
    crash_stats = { crashes = Atomic.make 0; suppressed = Atomic.make 0 };
  }

(* Small enough that the scenario exercises delta cuts and outbox
   compaction. *)
let config = { Durable.checkpoint_every = 4; rebase_every = 2 }

let rec create ~scheme ~nodes ~local ~addr_of ~dir ?chaos () =
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let backend = Backend.make scheme ~delp ~env ~nodes in
  let sock = Socket.create ~nodes ~local ~addr_of () in
  (match chaos with
  | Some (fault_config, seed) -> Socket.set_chaos sock ~config:fault_config ~seed
  | None -> ());
  let runtime =
    Runtime.create ~transport:(Socket.transport sock) ~delp ~env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  let durable =
    Durable.attach ~backend ~runtime ~control:real_process_control ~config ~disk:dir
      ~disk_nodes:(fun node -> node = local)
      ()
  in
  let outbox () = Option.get (Durable.outbox durable local) in
  (* Checkpoint cuts carry the transport's channel sequence state; recovery
     pushes the newest cut's blob back, then the WAL's watermark advances
     (monotonic, so they can only advance it further). *)
  Durable.set_channel_state durable
    ~snapshot:(fun node -> if node = local then Some (Socket.snapshot_channels sock) else None)
    ~restore:(fun node blob -> if node = local then Socket.restore_channels sock blob)
    ~next_seq:(fun ~node:_ ~peer ~seq -> Socket.set_next_seq sock ~dst:peer seq)
    ~expected:(fun ~node:_ ~peer ~seq -> Socket.set_expected sock ~src:peer seq);
  (* Replay reconciliation: remote sends regenerated while the WAL replays
     arrive in channel order starting at the restored cut's cursor. A send
     whose position the outbox already recorded needs nothing (its frame is
     either acked or in the pending tail re-offered below); a send past the
     ledger's cursor is the crash window — the arrival made the WAL but the
     kill landed before the outbox append — so it is recorded now and rides
     out with the pending tail. *)
  let replay_pos = Hashtbl.create 4 in
  Runtime.set_remote runtime
    ~is_local:(fun node -> node = local)
    ~ship:(fun ~dst ~bytes:_ ~payload -> Socket.send_payload sock ~dst payload)
    ~replayed:(fun ~dst ~payload ->
      let pos =
        match Hashtbl.find_opt replay_pos dst with
        | Some p -> p
        | None -> Socket.sender_next_seq sock ~dst
      in
      Hashtbl.replace replay_pos dst (pos + 1);
      let ob = outbox () in
      if pos >= Durable.Outbox.next_seq ob ~dst then
        Durable.Outbox.record_send ob ~dst ~seq:pos payload);
  Socket.set_persist sock (fun event ->
      match event with
      | Socket.Sent { dst; seq; payload } ->
          (* The WAL group holding this send's cause (the arrival or input
             being processed right now) must hit disk before the ledger
             promises the send — otherwise a crash could leave an outbox
             record whose origin the journal never saw. *)
          Durable.flush_wal durable local;
          Durable.Outbox.record_send (outbox ()) ~dst ~seq payload
      | Socket.Acked { dst; seq } -> Durable.Outbox.record_ack (outbox ()) ~dst ~seq
      | Socket.Expected { src; seq } ->
          Durable.journal durable local (Journal.Expected { peer = src; seq }));
  (* The ack of a delivery batch is a durable promise: flush before acks. *)
  Socket.set_sync sock (fun () -> Durable.flush_wal durable local);
  Socket.set_deliver sock (fun ~src:_ ~payload -> Runtime.deliver_remote runtime ~node:local payload);
  let t = { sock; runtime; backend; durable; local } in
  if Durable.recovered durable local then begin
    Durable.recover durable local;
    let ob = outbox () in
    (* The ledger is the sender's durable cursor — ahead of both the cut
       and whatever replay just reconciled. *)
    for dst = 0 to nodes - 1 do
      if dst <> local then Socket.set_next_seq sock ~dst (Durable.Outbox.next_seq ob ~dst)
    done;
    List.iter
      (fun (dst, seq, payload) -> Socket.requeue sock ~dst ~seq payload)
      (Durable.Outbox.pending ob)
  end;
  Socket.set_control sock (fun ~payload ~reply -> handle_control t ~payload ~reply);
  t

and handle_control t ~payload ~reply =
  let respond r = reply (Ctrl.encode_reply r) in
  let homed_here tuple what k =
    if Tuple.loc tuple <> t.local then
      respond
        (Ctrl.Error
           (Printf.sprintf "%s %s is homed at node %d, not this daemon (node %d)" what
              (Tuple.to_string tuple) (Tuple.loc tuple) t.local))
    else k ()
  in
  match Ctrl.decode_request payload with
  | exception exn -> respond (Ctrl.Error (Printexc.to_string exn))
  | Ctrl.Load tuples ->
      Runtime.load_slow t.runtime tuples;
      respond Ctrl.Ok
  | Ctrl.Inject event ->
      homed_here event "input event" (fun () ->
          Runtime.inject t.runtime event;
          respond Ctrl.Ok)
  | Ctrl.Slow_insert tuple ->
      homed_here tuple "slow tuple" (fun () ->
          Runtime.insert_slow_runtime t.runtime tuple;
          respond Ctrl.Ok)
  | Ctrl.Slow_delete tuple ->
      homed_here tuple "slow tuple" (fun () ->
          respond (Ctrl.Deleted (Runtime.delete_slow_runtime t.runtime tuple)))
  | Ctrl.Checkpoint ->
      Durable.checkpoint_now t.durable t.local;
      respond Ctrl.Ok
  | Ctrl.Status ->
      let s = Socket.stats t.sock in
      let rs = Runtime.stats t.runtime in
      respond
        (Ctrl.Status_r
           {
             node = t.local;
             recovered = Durable.recovered t.durable t.local;
             unacked = Socket.unacked t.sock;
             data_sent = s.data_sent;
             data_received = s.data_received;
             fired = rs.fired;
             outputs = rs.outputs;
             wal_entries = (Durable.node_stats t.durable t.local).wal_entries;
             outbox_bytes =
               (match Durable.outbox t.durable t.local with
               | Some ob -> Durable.Outbox.size_bytes ob
               | None -> 0);
           })
  | Ctrl.Digest ->
      respond
        (Ctrl.Digest_r
           {
             node = t.local;
             store = Backend.digest_node t.backend t.local;
             db = Dpc_engine.Db.digest (Runtime.db t.runtime t.local);
           })
  | Ctrl.Shutdown -> Socket.stop t.sock
  | Ctrl.Compact ->
      (match Durable.outbox t.durable t.local with
      | Some ob -> Durable.Outbox.compact ob
      | None -> ());
      respond Ctrl.Ok
  | Ctrl.Block peer -> (
      match Socket.set_peer_blocked t.sock ~peer true with
      | () -> respond Ctrl.Ok
      | exception Invalid_argument msg -> respond (Ctrl.Error msg))
  | Ctrl.Unblock peer -> (
      match Socket.set_peer_blocked t.sock ~peer false with
      | () -> respond Ctrl.Ok
      | exception Invalid_argument msg -> respond (Ctrl.Error msg))

let serve t =
  Runtime.run t.runtime;
  Socket.close t.sock
