(* Real-process building blocks, unit-tested in one process: the
   dpc-wire-v1 frame codec (round-trips, incremental decoding, corruption
   detection), the durable outbox ledger (persist-before-send across
   simulated kill -9 reloads, torn tails, compaction), the control
   protocol codec, a live two-socket transport pair, and on-disk durable
   recovery digest equality. The full cross-process oracle — three dpcd
   daemons, a real kill -9, digests against the simulator — is `make
   procs` (bin/dpcd.ml cluster mode); these tests cover the pieces it is
   built from. *)

module Wire = Dpc_net.Wire
module Socket = Dpc_net.Socket
module Outbox = Dpc_core.Durable.Outbox

let check = Alcotest.check

let frame kind ~src ~dst ~seq payload : Wire.frame = { kind; src; dst; seq; payload }

let temp_dir prefix = Filename.temp_dir (prefix ^ "-") ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let drain decoder =
  let rec go acc =
    match Wire.Decoder.next decoder with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let test_wire_roundtrip () =
  let frames =
    [
      frame Wire.Data ~src:0 ~dst:1 ~seq:1 "hello";
      frame Wire.Ack ~src:1 ~dst:0 ~seq:41 "";
      frame Wire.Hello ~src:2 ~dst:0 ~seq:0 "";
      frame Wire.Ctrl ~src:Wire.control_id ~dst:1 ~seq:7 (String.make 300 'x');
      frame Wire.Data ~src:0 ~dst:2 ~seq:max_int "payload with \x00 bytes \xff";
    ]
  in
  let d = Wire.Decoder.create () in
  List.iter (fun f -> Wire.Decoder.feed_string d (Wire.encode f)) frames;
  let got = drain d in
  check Alcotest.int "all frames decoded" (List.length frames) (List.length got);
  List.iter2
    (fun (a : Wire.frame) (b : Wire.frame) ->
      check Alcotest.bool "kind" true (a.kind = b.kind);
      check Alcotest.int "src" a.src b.src;
      check Alcotest.int "dst" a.dst b.dst;
      check Alcotest.int "seq" a.seq b.seq;
      check Alcotest.string "payload" a.payload b.payload)
    frames got

(* Feed the stream one byte at a time: a frame must appear exactly when
   its last byte lands, never earlier (no partial delivery). *)
let test_wire_incremental () =
  let f1 = frame Wire.Data ~src:0 ~dst:1 ~seq:5 "abc" in
  let f2 = frame Wire.Data ~src:0 ~dst:1 ~seq:6 "defg" in
  let bytes = Wire.encode f1 ^ Wire.encode f2 in
  let d = Wire.Decoder.create () in
  let boundary1 = String.length (Wire.encode f1) in
  let seen = ref 0 in
  String.iteri
    (fun i c ->
      Wire.Decoder.feed_string d (String.make 1 c);
      List.iter
        (fun (got : Wire.frame) ->
          incr seen;
          let expected_at = if !seen = 1 then boundary1 - 1 else String.length bytes - 1 in
          check Alcotest.int "frame completed exactly at its last byte" expected_at i;
          check Alcotest.string "payload" (if !seen = 1 then "abc" else "defg") got.payload)
        (drain d))
    bytes;
  check Alcotest.int "both frames arrived" 2 !seen

let expect_corrupt what bytes =
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d bytes;
  match drain d with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: decoder accepted corrupt input" what

let test_wire_corruption () =
  let good = Wire.encode (frame Wire.Data ~src:0 ~dst:1 ~seq:3 "payload") in
  let patch i c = String.mapi (fun j x -> if j = i then c else x) good in
  expect_corrupt "bad magic" (patch 0 'X');
  expect_corrupt "bad version" (patch 4 '\xff');
  expect_corrupt "bad kind" (patch 5 '\x09');
  (* Oversized length field: bytes 22-25 big-endian. *)
  expect_corrupt "oversized length" (patch 22 '\x7f');
  (* Flip one payload byte: the SHA-1 digest must catch it. *)
  expect_corrupt "payload digest" (patch (String.length good - 1) '!');
  (* A truncated frame is not corrupt — just incomplete. *)
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d (String.sub good 0 (String.length good - 1));
  check Alcotest.bool "truncated prefix yields nothing" true (Wire.Decoder.next d = None);
  (* Encoder-side validation. *)
  (match Wire.encode (frame Wire.Data ~src:(-1) ~dst:0 ~seq:0 "") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "negative src accepted");
  match Wire.encode (frame Wire.Data ~src:0 ~dst:0 ~seq:0 (String.make (Wire.max_payload + 1) 'a')) with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized payload accepted"

let wire_fuzz =
  QCheck.Test.make ~count:200 ~name:"wire codec round-trips arbitrary frames"
    QCheck.(
      quad (int_bound 3) (pair (int_bound 1000) (int_bound 1000))
        (int_bound 1_000_000) (string_of_size Gen.(int_bound 2000)))
    (fun (k, (src, dst), seq, payload) ->
      let kind = List.nth [ Wire.Data; Wire.Ack; Wire.Hello; Wire.Ctrl ] k in
      let f = frame kind ~src ~dst ~seq payload in
      let d = Wire.Decoder.create () in
      (* Split the wire bytes at an arbitrary point to exercise buffering. *)
      let bytes = Wire.encode f in
      let cut = seq mod (String.length bytes + 1) in
      Wire.Decoder.feed_string d (String.sub bytes 0 cut);
      let early = Wire.Decoder.next d in
      Wire.Decoder.feed_string d (String.sub bytes cut (String.length bytes - cut));
      match (early, drain d) with
      | None, [ got ] | Some got, [] ->
          got.Wire.kind = f.kind && got.src = f.src && got.dst = f.dst && got.seq = f.seq
          && got.payload = f.payload
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Durable outbox *)

let test_outbox_basic () =
  with_temp_dir "dpc-outbox" (fun dir ->
      let ob = Outbox.open_ ~dir in
      check Alcotest.int "fresh next_seq" 1 (Outbox.next_seq ob ~dst:1);
      Outbox.record_send ob ~dst:1 ~seq:1 "a";
      Outbox.record_send ob ~dst:1 ~seq:2 "b";
      Outbox.record_send ob ~dst:2 ~seq:1 "c";
      Outbox.record_ack ob ~dst:1 ~seq:1;
      check Alcotest.int "next_seq advanced" 3 (Outbox.next_seq ob ~dst:1);
      check Alcotest.int "acked" 1 (Outbox.acked ob ~dst:1);
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "pending is the unacked tail"
        [ (1, 2, "b"); (2, 1, "c") ]
        (Outbox.pending ob);
      Outbox.close ob)

(* The exactly-once property across a crash: whatever interleaving of
   sends and cumulative acks hit the ledger, a reload (what a restarted
   daemon does) reconstructs exactly the recorded-but-unacked tail — the
   frames to re-offer — and the durable cursor never runs backwards, so
   a re-offered send can never collide with a fresh sequence number. *)
let outbox_crash_reload =
  QCheck.Test.make ~count:60 ~name:"outbox reload reconstructs the unacked tail exactly once"
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 2) (int_bound 3)))
    (fun ops ->
      with_temp_dir "dpc-outbox-fuzz" (fun dir ->
          let ob = Outbox.open_ ~dir in
          let next = Array.make 3 1 in
          let sent = Hashtbl.create 16 in
          let acked = Array.make 3 0 in
          List.iter
            (fun (dst, op) ->
              if op < 3 then begin
                (* A send: persist-before-first-send means the record always
                   reaches the ledger, even if the frame never leaves. *)
                let seq = next.(dst) in
                next.(dst) <- seq + 1;
                let payload = Printf.sprintf "p-%d-%d" dst seq in
                Outbox.record_send ob ~dst ~seq payload;
                Hashtbl.replace sent (dst, seq) payload
              end
              else if next.(dst) > 1 then begin
                (* A cumulative ack somewhere into the sent range. *)
                let seq = 1 + ((dst * 7) mod (next.(dst) - 1)) in
                Outbox.record_ack ob ~dst ~seq;
                acked.(dst) <- max acked.(dst) seq
              end)
            ops;
          (* kill -9: no close, no flush — reopen from the bytes on disk. *)
          let reloaded = Outbox.open_ ~dir in
          let expected =
            Hashtbl.fold
              (fun (dst, seq) payload acc ->
                if seq > acked.(dst) then ((dst, seq, payload) :: acc) else acc)
              sent []
            |> List.sort compare
          in
          let ok_pending = Outbox.pending reloaded = expected in
          let ok_cursor =
            List.for_all (fun dst -> Outbox.next_seq reloaded ~dst = next.(dst)) [ 0; 1; 2 ]
          in
          (* Compaction must preserve exactly the same observable state. *)
          Outbox.compact reloaded;
          let ok_compacted = Outbox.pending reloaded = expected in
          let recompacted = Outbox.open_ ~dir in
          let ok_reload2 =
            Outbox.pending recompacted = expected
            && List.for_all (fun dst -> Outbox.next_seq recompacted ~dst = next.(dst)) [ 0; 1; 2 ]
          in
          Outbox.close ob;
          Outbox.close reloaded;
          Outbox.close recompacted;
          ok_pending && ok_cursor && ok_compacted && ok_reload2))

(* [pending] against a list model, after every step of a random run of
   sends, cumulative acks (advancing or not) and compactions reloaded
   from their Mark summaries. An ack drops the covered entries from the
   live table in place. *)
let outbox_model =
  QCheck.Test.make ~count:60 ~name:"outbox pending equals a list model"
    QCheck.(list_of_size Gen.(int_range 1 60) (triple (int_bound 2) (int_bound 4) small_nat))
    (fun ops ->
      with_temp_dir "dpc-outbox-model" (fun dir ->
          let ob = ref (Outbox.open_ ~dir) in
          let next = Array.make 3 1 and model = ref [] in
          let step ok (dst, op, k) =
            (match op with
            | 0 | 1 | 2 ->
                let seq = next.(dst) in
                next.(dst) <- seq + 1;
                let payload = Printf.sprintf "p-%d-%d" dst seq in
                Outbox.record_send !ob ~dst ~seq payload;
                model := (dst, seq, payload) :: !model
            | 3 ->
                let seq = k mod next.(dst) in
                Outbox.record_ack !ob ~dst ~seq;
                model := List.filter (fun (d, s, _) -> d <> dst || s > seq) !model
            | _ ->
                Outbox.compact !ob;
                Outbox.close !ob;
                ob := Outbox.open_ ~dir);
            ok && Outbox.pending !ob = List.sort compare !model
          in
          let ok = List.fold_left step true ops in
          Outbox.close !ob;
          ok))

(* A kill mid-append leaves a torn record at the end of the file; the
   reload must keep the valid prefix and drop the tail — safe, because
   an unfinished record's frame was never transmitted. *)
let test_outbox_torn_tail () =
  with_temp_dir "dpc-outbox-torn" (fun dir ->
      let ob = Outbox.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:1 "kept";
      Outbox.record_send ob ~dst:1 ~seq:2 "also kept";
      Outbox.close ob;
      let path = Filename.concat dir "outbox.log" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      (* Tag byte of a Send record with nothing behind it. *)
      ignore (Unix.write_substring fd "\x00" 0 1);
      Unix.close fd;
      let reloaded = Outbox.open_ ~dir in
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "torn tail dropped, prefix kept"
        [ (1, 1, "kept"); (1, 2, "also kept") ]
        (Outbox.pending reloaded);
      check Alcotest.int "cursor from the prefix" 3 (Outbox.next_seq reloaded ~dst:1);
      Outbox.close reloaded)

(* ------------------------------------------------------------------ *)
(* Control protocol codec *)

let test_ctrl_roundtrip () =
  let tuple = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x" in
  let requests =
    [
      Dpc_proc.Ctrl.Load [ tuple; Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
      Dpc_proc.Ctrl.Inject tuple;
      Dpc_proc.Ctrl.Slow_insert tuple;
      Dpc_proc.Ctrl.Slow_delete tuple;
      Dpc_proc.Ctrl.Checkpoint;
      Dpc_proc.Ctrl.Status;
      Dpc_proc.Ctrl.Digest;
      Dpc_proc.Ctrl.Shutdown;
      Dpc_proc.Ctrl.Compact;
      Dpc_proc.Ctrl.Block 2;
      Dpc_proc.Ctrl.Unblock 2;
    ]
  in
  List.iter
    (fun req ->
      check Alcotest.bool "request round-trips" true
        (Dpc_proc.Ctrl.decode_request (Dpc_proc.Ctrl.encode_request req) = req))
    requests;
  let replies =
    [
      Dpc_proc.Ctrl.Ok;
      Dpc_proc.Ctrl.Deleted true;
      Dpc_proc.Ctrl.Status_r
        {
          node = 1;
          recovered = true;
          unacked = 3;
          data_sent = 10;
          data_received = 7;
          fired = 21;
          outputs = 13;
          wal_entries = 5;
          outbox_bytes = 420;
        };
      Dpc_proc.Ctrl.Digest_r { node = 2; store = "abc"; db = "def" };
      Dpc_proc.Ctrl.Error "nope";
    ]
  in
  List.iter
    (fun reply ->
      check Alcotest.bool "reply round-trips" true
        (Dpc_proc.Ctrl.decode_reply (Dpc_proc.Ctrl.encode_reply reply) = reply))
    replies

(* ------------------------------------------------------------------ *)
(* A live socket pair: two transports in one process, pumped alternately. *)

let pump transports ~until_cond ~tag =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (until_cond ())) && Unix.gettimeofday () < deadline do
    List.iter
      (fun tr -> Dpc_net.Transport.run ~until:(Dpc_net.Transport.now tr +. 0.02) tr)
      transports
  done;
  if not (until_cond ()) then Alcotest.failf "%s: condition not reached within 10s" tag

let test_socket_pair () =
  with_temp_dir "dpc-sock" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let a = Socket.create ~nodes:2 ~local:0 ~addr_of () in
      let b = Socket.create ~nodes:2 ~local:1 ~addr_of () in
      Fun.protect
        ~finally:(fun () ->
          Socket.close a;
          Socket.close b)
        (fun () ->
          let got_a = ref [] and got_b = ref [] in
          Socket.set_deliver a (fun ~src ~payload -> got_a := (src, payload) :: !got_a);
          Socket.set_deliver b (fun ~src ~payload -> got_b := (src, payload) :: !got_b);
          let persist_b = ref [] in
          Socket.set_persist b (fun ev -> persist_b := ev :: !persist_b);
          let ta = Socket.transport a and tb = Socket.transport b in
          for i = 1 to 5 do
            Socket.send_payload a ~dst:1 (Printf.sprintf "a->b %d" i)
          done;
          Socket.send_payload b ~dst:0 "b->a 1";
          pump [ ta; tb ] ~tag:"duplex delivery" ~until_cond:(fun () ->
              List.length !got_b = 5 && List.length !got_a = 1);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "b received in channel order"
            (List.init 5 (fun i -> (0, Printf.sprintf "a->b %d" (i + 1))))
            (List.rev !got_b);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "a received" [ (1, "b->a 1") ] (List.rev !got_a);
          (* Acks flow back: pump until both outboxes drain. *)
          pump [ ta; tb ] ~tag:"acks drain" ~until_cond:(fun () ->
              Socket.unacked a = 0 && Socket.unacked b = 0);
          (* The receiver persisted every watermark advance, in order,
             before the deliveries it covers. *)
          let expected_marks =
            List.filter_map
              (function Socket.Expected { src = 0; seq } -> Some seq | _ -> None)
              (List.rev !persist_b)
          in
          check (Alcotest.list Alcotest.int) "watermark advances in order" [ 2; 3; 4; 5; 6 ]
            expected_marks;
          let sa = Socket.stats a in
          check Alcotest.int "a sent five" 5 sa.data_sent;
          check Alcotest.int "a received one" 1 sa.data_received))

(* ------------------------------------------------------------------ *)
(* Durable disk recovery, in-process: the same forwarding scenario the
   dpcd oracle runs, on a direct transport with the log mirrored to
   disk; a second world attached to the same directory must rebuild
   byte-identical per-node digests from checkpoint chains + WAL alone. *)

let quiet_control () : Dpc_net.Transport.crash_control =
  {
    crash = ignore;
    restart = ignore;
    is_up = (fun _ -> true);
    crash_stats = { crashes = Atomic.make 0; suppressed = Atomic.make 0 };
  }

let build_disk_world scheme dir =
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let backend = Dpc_core.Backend.make scheme ~delp ~env ~nodes:Dpc_proc.Scenario.nodes in
  let transport = Dpc_net.Transport.direct ~nodes:Dpc_proc.Scenario.nodes () in
  let runtime =
    Dpc_engine.Runtime.create ~transport ~delp ~env ~hook:(Dpc_core.Backend.hook backend)
      ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  let durable =
    Dpc_core.Durable.attach ~backend ~runtime ~control:(quiet_control ())
      ~config:{ Dpc_core.Durable.checkpoint_every = 4; rebase_every = 2 }
      ~disk:dir ()
  in
  (backend, runtime, durable)

let digests backend runtime =
  Array.init Dpc_proc.Scenario.nodes (fun node ->
      ( Dpc_core.Backend.digest_node backend node,
        Dpc_proc.Scenario.db_digest (Dpc_engine.Runtime.db runtime node) ))

let test_disk_recovery () =
  List.iter
    (fun scheme ->
      with_temp_dir "dpc-disk" (fun dir ->
          let backend, runtime, durable = build_disk_world scheme dir in
          Dpc_engine.Runtime.load_slow runtime (Dpc_proc.Scenario.routes ());
          let phase injects =
            List.iter (fun ev -> Dpc_engine.Runtime.inject runtime ev) injects;
            Dpc_engine.Runtime.run runtime
          in
          phase (Dpc_proc.Scenario.pre_packets ());
          phase (Dpc_proc.Scenario.mid_packets ());
          ignore (Dpc_engine.Runtime.delete_slow_runtime runtime (Dpc_proc.Scenario.refreshed_route ()));
          Dpc_engine.Runtime.insert_slow_runtime runtime (Dpc_proc.Scenario.refreshed_route ());
          Dpc_engine.Runtime.run runtime;
          phase (Dpc_proc.Scenario.post_packets ());
          let before = digests backend runtime in
          (* kill -9 durability model: write() to the kernel survives the
             signal, but entries still in the userspace group-commit buffer
             do not. A real daemon flushes before every ack and outbox
             record, so a quiescent cluster has an empty buffer — model
             that quiescent point before handing the directory over. *)
          for node = 0 to Dpc_proc.Scenario.nodes - 1 do
            Dpc_core.Durable.flush_wal durable node
          done;
          (* The "restarted process": a fresh world over the same directory. *)
          let backend2, runtime2, durable2 = build_disk_world scheme dir in
          for node = 0 to Dpc_proc.Scenario.nodes - 1 do
            if not (Dpc_core.Durable.recovered durable2 node) then
              Alcotest.failf "node %d found no on-disk state" node;
            Dpc_core.Durable.recover durable2 node
          done;
          let after = digests backend2 runtime2 in
          Array.iteri
            (fun node (store, db) ->
              let store', db' = after.(node) in
              check Alcotest.string
                (Printf.sprintf "%s node %d store digest" (Dpc_core.Backend.scheme_name scheme) node)
                store store';
              check Alcotest.string
                (Printf.sprintf "%s node %d db digest" (Dpc_core.Backend.scheme_name scheme) node)
                db db')
            before))
    Dpc_core.Backend.all_schemes

(* Group commit on disk: a flush writes the group's byte range of the
   node's wal buffer through to wal-<epoch>.log, so after many groups, a
   cut, a crash and a recovery every node's file holds exactly its
   flushed range. *)
let test_disk_wal_matches_memory () =
  with_temp_dir "dpc-wal" (fun dir ->
      let nodes = Dpc_proc.Scenario.nodes in
      let delp = Dpc_apps.Forwarding.delp () and env = Dpc_apps.Forwarding.env in
      let backend = Dpc_core.Backend.make Dpc_core.Backend.S_advanced ~delp ~env ~nodes in
      let transport, control =
        Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes ())
      in
      let runtime =
        Dpc_engine.Runtime.create ~transport ~reliable:Dpc_net.Reliable.default_config ~delp ~env
          ~hook:(Dpc_core.Backend.hook backend) ~nodes:(Dpc_core.Backend.nodes backend) ()
      in
      Dpc_engine.Runtime.load_slow runtime (Dpc_proc.Scenario.routes ());
      let durable =
        Dpc_core.Durable.attach ~backend ~runtime ~control
          ~config:{ Dpc_core.Durable.checkpoint_every = 0; rebase_every = 0 }
          ~disk:dir ()
      in
      let phase injects =
        List.iter (fun ev -> Dpc_engine.Runtime.inject runtime ev) injects;
        Dpc_engine.Runtime.run runtime
      in
      phase (Dpc_proc.Scenario.pre_packets ());
      Dpc_core.Durable.checkpoint_now durable 0;
      phase (Dpc_proc.Scenario.mid_packets ());
      Dpc_core.Durable.crash durable 1;
      Dpc_core.Durable.restart durable 1;
      phase (Dpc_proc.Scenario.post_packets ());
      let wal_file node =
        let node_dir = Filename.concat dir (Printf.sprintf "node-%d" node) in
        match
          List.filter
            (fun f -> String.length f > 4 && String.sub f 0 4 = "wal-")
            (Array.to_list (Sys.readdir node_dir))
        with
        | [ f ] -> In_channel.with_open_bin (Filename.concat node_dir f) In_channel.input_all
        | files -> Alcotest.failf "node %d has %d wal files" node (List.length files)
      in
      for node = 0 to nodes - 1 do
        let wal = Dpc_core.Durable.wal durable node in
        check Alcotest.bool (Printf.sprintf "node %d flushed groups" node) true (wal <> "");
        check Alcotest.string (Printf.sprintf "node %d wal file = flushed range" node) wal
          (wal_file node)
      done;
      check Alcotest.bool "node 1 crashed" true
        ((Dpc_core.Durable.node_stats durable 1).crashes = 1))

(* A kill mid-append can leave any prefix of an entry at the end of a
   wal, a digest's length byte included: recovery drops that tail
   ([Journal.read] raises [Corrupt] on it) and rebuilds the state the
   valid prefix records. *)
let test_disk_wal_damaged_tail () =
  with_temp_dir "dpc-wal-tail" (fun dir ->
      let scheme = Dpc_core.Backend.S_advanced in
      let backend, runtime, durable = build_disk_world scheme dir in
      Dpc_engine.Runtime.load_slow runtime (Dpc_proc.Scenario.routes ());
      List.iter (fun ev -> Dpc_engine.Runtime.inject runtime ev) (Dpc_proc.Scenario.pre_packets ());
      Dpc_engine.Runtime.run runtime;
      for node = 0 to Dpc_proc.Scenario.nodes - 1 do
        Dpc_core.Durable.flush_wal durable node
      done;
      let before = digests backend runtime in
      (* An arrival whose evid claims 19 bytes, after node 1's last entry. *)
      let node_dir = Filename.concat dir "node-1" in
      let wal =
        List.find
          (fun f -> String.length f > 4 && String.sub f 0 4 = "wal-")
          (Array.to_list (Sys.readdir node_dir))
      in
      let w = Dpc_util.Serialize.writer () in
      Dpc_util.Serialize.write_varint w 1;
      Dpc_ndlog.Tuple.serialize w (List.hd (Dpc_proc.Scenario.pre_packets ()));
      Dpc_util.Serialize.write_string w (String.make 19 'e');
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (Filename.concat node_dir wal)
        (fun oc -> output_string oc (Dpc_util.Serialize.contents w));
      let backend2, runtime2, durable2 = build_disk_world scheme dir in
      for node = 0 to Dpc_proc.Scenario.nodes - 1 do
        Dpc_core.Durable.recover durable2 node
      done;
      Array.iteri
        (fun node (store, db) ->
          let store', db' = (digests backend2 runtime2).(node) in
          check Alcotest.string (Printf.sprintf "node %d store digest" node) store store';
          check Alcotest.string (Printf.sprintf "node %d db digest" node) db db')
        before)

let () =
  Alcotest.run "dpc_proc"
    [
      ( "wire codec",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "incremental, no partial delivery" `Quick test_wire_incremental;
          Alcotest.test_case "corruption detected" `Quick test_wire_corruption;
          QCheck_alcotest.to_alcotest wire_fuzz;
        ] );
      ( "durable outbox",
        [
          Alcotest.test_case "record / ack / pending" `Quick test_outbox_basic;
          QCheck_alcotest.to_alcotest outbox_crash_reload;
          QCheck_alcotest.to_alcotest outbox_model;
          Alcotest.test_case "torn tail dropped" `Quick test_outbox_torn_tail;
        ] );
      ("control protocol", [ Alcotest.test_case "round-trip" `Quick test_ctrl_roundtrip ]);
      ("socket transport", [ Alcotest.test_case "duplex pair" `Quick test_socket_pair ]);
      ( "disk recovery",
        [
          Alcotest.test_case "digest equality, all schemes" `Quick test_disk_recovery;
          Alcotest.test_case "wal file equals the flushed range" `Quick
            test_disk_wal_matches_memory;
          Alcotest.test_case "damaged wal tail trimmed" `Quick test_disk_wal_damaged_tail;
        ] );
    ]
