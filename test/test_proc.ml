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
let feed_string d s = Wire.Decoder.feed d (Bytes.of_string s) 0 (String.length s)

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
  List.iter (fun f -> feed_string d (Wire.encode f)) frames;
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
      feed_string d (String.make 1 c);
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
  feed_string d bytes;
  match drain d with
  | exception Dpc_util.Serialize.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: decoder accepted corrupt input" what

let test_wire_corruption () =
  let good = Wire.encode (frame Wire.Data ~src:0 ~dst:1 ~seq:3 "payload") in
  let patch i c = String.mapi (fun j x -> if j = i then c else x) good in
  expect_corrupt "bad magic" (patch 0 'X');
  expect_corrupt "bad version" (patch 4 '\xff');
  expect_corrupt "bad kind" (patch 5 '\x09');
  (* A seq no encoder writes: bit 62 (past max_int) or bit 63 set. *)
  expect_corrupt "seq past max_int" (patch 14 '\x40');
  expect_corrupt "seq top bit" (patch 14 '\x80');
  (* Oversized length field: bytes 22-25 big-endian. *)
  expect_corrupt "oversized length" (patch 22 '\x7f');
  (* Flip one payload byte: the SHA-1 digest must catch it. *)
  expect_corrupt "payload digest" (patch (String.length good - 1) '!');
  (* A truncated frame is not corrupt — just incomplete. *)
  let d = Wire.Decoder.create () in
  feed_string d (String.sub good 0 (String.length good - 1));
  check Alcotest.bool "truncated prefix yields nothing" true (Wire.Decoder.next d = None);
  (* Encoder-side validation: a bad field is the caller's error. *)
  (match Wire.encode (frame Wire.Data ~src:(-1) ~dst:0 ~seq:0 "") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative src accepted");
  match Wire.encode (frame Wire.Data ~src:0 ~dst:0 ~seq:0 (String.make (Wire.For_testing.max_payload + 1) 'a')) with
  | exception Invalid_argument _ -> ()
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
      feed_string d (String.sub bytes 0 cut);
      let early = Wire.Decoder.next d in
      feed_string d (String.sub bytes cut (String.length bytes - cut));
      match (early, drain d) with
      | None, [ got ] | Some got, [] ->
          got.Wire.kind = f.kind && got.src = f.src && got.dst = f.dst && got.seq = f.seq
          && got.payload = f.payload
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Durable outbox *)

let test_outbox_basic () =
  with_temp_dir "dpc-outbox" (fun dir ->
      let ob = Outbox.For_testing.open_ ~dir in
      check Alcotest.int "fresh next_seq" 1 (Outbox.next_seq ob ~dst:1);
      Outbox.record_send ob ~dst:1 ~seq:1 "a";
      Outbox.record_send ob ~dst:1 ~seq:2 "b";
      Outbox.record_send ob ~dst:2 ~seq:1 "c";
      Outbox.record_ack ob ~dst:1 ~seq:1;
      check Alcotest.int "next_seq advanced" 3 (Outbox.next_seq ob ~dst:1);
      check Alcotest.int "acked" 1 (Outbox.For_testing.acked ob ~dst:1);
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "pending is the unacked tail"
        [ (1, 2, "b"); (2, 1, "c") ]
        (Outbox.pending ob);
      Outbox.For_testing.close ob)

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
          let ob = Outbox.For_testing.open_ ~dir in
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
          let reloaded = Outbox.For_testing.open_ ~dir in
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
          let recompacted = Outbox.For_testing.open_ ~dir in
          let ok_reload2 =
            Outbox.pending recompacted = expected
            && List.for_all (fun dst -> Outbox.next_seq recompacted ~dst = next.(dst)) [ 0; 1; 2 ]
          in
          Outbox.For_testing.close ob;
          Outbox.For_testing.close reloaded;
          Outbox.For_testing.close recompacted;
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
          let ob = ref (Outbox.For_testing.open_ ~dir) in
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
                Outbox.For_testing.close !ob;
                ob := Outbox.For_testing.open_ ~dir);
            ok && Outbox.pending !ob = List.sort compare !model
          in
          let ok = List.fold_left step true ops in
          Outbox.For_testing.close !ob;
          ok))

(* A kill mid-append leaves a torn record at the end of the file; the
   reload must keep the valid prefix and drop the tail — safe, because
   an unfinished record's frame was never transmitted. *)
let test_outbox_torn_tail () =
  with_temp_dir "dpc-outbox-torn" (fun dir ->
      let ob = Outbox.For_testing.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:1 "kept";
      Outbox.record_send ob ~dst:1 ~seq:2 "also kept";
      Outbox.For_testing.close ob;
      let path = Filename.concat dir "outbox.log" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      (* Tag byte of a Send record with nothing behind it. *)
      ignore (Unix.write_substring fd "\x00" 0 1);
      Unix.close fd;
      let reloaded = Outbox.For_testing.open_ ~dir in
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "torn tail dropped, prefix kept"
        [ (1, 1, "kept"); (1, 2, "also kept") ]
        (Outbox.pending reloaded);
      check Alcotest.int "cursor from the prefix" 3 (Outbox.next_seq reloaded ~dst:1);
      Outbox.For_testing.close reloaded)

(* The send recorded after a torn tail was dropped survives the next
   reload: the reload must not append it behind the torn bytes, where the
   load after it stops. *)
let test_outbox_send_after_torn_tail () =
  with_temp_dir "dpc-outbox-torn-send" (fun dir ->
      let ob = Outbox.For_testing.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:1 "one";
      Outbox.record_send ob ~dst:1 ~seq:2 "two";
      Outbox.For_testing.close ob;
      let fd = Unix.openfile (Filename.concat dir "outbox.log") [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      (* A Send record to node 1, seq 3, cut inside its payload. *)
      let torn = "\x00\x01\x03\x05thr" in
      ignore (Unix.write_substring fd torn 0 (String.length torn));
      Unix.close fd;
      let ob = Outbox.For_testing.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:3 "three";
      Outbox.For_testing.close ob;
      let reloaded = Outbox.For_testing.open_ ~dir in
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "the send after the restart is pending"
        [ (1, 1, "one"); (1, 2, "two"); (1, 3, "three") ]
        (Outbox.pending reloaded);
      check Alcotest.int "and counted in the cursor" 4 (Outbox.next_seq reloaded ~dst:1);
      Outbox.For_testing.close reloaded)

(* ------------------------------------------------------------------ *)
(* Control protocol codec *)

(* One request and one reply of each tag. *)
let ctrl_requests =
  let tuple = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x" in
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

let ctrl_replies =
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

let test_ctrl_roundtrip () =
  List.iter
    (fun req ->
      check Alcotest.bool "request round-trips" true
        (Dpc_proc.Ctrl.decode_request (Dpc_proc.Ctrl.encode_request req) = req))
    ctrl_requests;
  List.iter
    (fun reply ->
      check Alcotest.bool "reply round-trips" true
        (Dpc_proc.Ctrl.decode_reply (Dpc_proc.Ctrl.encode_reply reply) = reply))
    ctrl_replies

(* [decode] raises [Corrupt] on [blob] followed by one junk byte. *)
let check_trailing_byte what decode blob =
  match decode (blob ^ "\x00") with
  | _ -> Alcotest.failf "%s with a trailing byte decoded" what
  | exception Dpc_util.Serialize.Corrupt _ -> ()

let test_ctrl_trailing_byte () =
  List.iteri
    (fun i req ->
      check_trailing_byte (Printf.sprintf "request %d" i) Dpc_proc.Ctrl.decode_request
        (Dpc_proc.Ctrl.encode_request req))
    ctrl_requests;
  List.iteri
    (fun i reply ->
      check_trailing_byte (Printf.sprintf "reply %d" i) Dpc_proc.Ctrl.decode_reply
        (Dpc_proc.Ctrl.encode_reply reply))
    ctrl_replies

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

let ordered prefix n = List.init n (fun i -> Printf.sprintf "%s %d" prefix (i + 1))

(* Link chaos on both ends and one partition cycle: every payload still
   arrives exactly once and in channel order, and every ack lands. *)
let test_socket_chaos () =
  with_temp_dir "dpc-sock-chaos" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let a = Socket.create ~nodes:2 ~local:0 ~addr_of () in
      let b = Socket.create ~nodes:2 ~local:1 ~addr_of () in
      Fun.protect
        ~finally:(fun () ->
          Socket.close a;
          Socket.close b)
        (fun () ->
          let config =
            Dpc_net.Transport.fault_config ~drop:0.2 ~duplicate:0.1 ~delay:0.1 ~delay_max:0.1 ()
          in
          Socket.set_chaos a ~config ~seed:3;
          Socket.set_chaos b ~config ~seed:4;
          let got_a = ref [] and got_b = ref [] in
          Socket.set_deliver a (fun ~src:_ ~payload -> got_a := payload :: !got_a);
          Socket.set_deliver b (fun ~src:_ ~payload -> got_b := payload :: !got_b);
          let send_range lo hi =
            for i = lo to hi do
              Socket.send_payload a ~dst:1 (Printf.sprintf "a %d" i);
              Socket.send_payload b ~dst:0 (Printf.sprintf "b %d" i)
            done
          in
          let trs = [ Socket.transport a; Socket.transport b ] in
          send_range 1 20;
          pump trs ~tag:"first half" ~until_cond:(fun () -> List.length !got_b >= 10);
          Socket.set_peer_blocked a ~peer:1 true;
          send_range 21 40;
          let heal_at = Unix.gettimeofday () +. 0.3 in
          pump trs ~tag:"partitioned" ~until_cond:(fun () -> Unix.gettimeofday () >= heal_at);
          check Alcotest.bool "the partition holds" true (List.length !got_b < 40);
          Socket.set_peer_blocked a ~peer:1 false;
          pump trs ~tag:"healed" ~until_cond:(fun () ->
              List.length !got_a = 40 && List.length !got_b = 40
              && Socket.unacked a = 0 && Socket.unacked b = 0);
          check (Alcotest.list Alcotest.string) "a->b once, in order" (ordered "a" 40)
            (List.rev !got_b);
          check (Alcotest.list Alcotest.string) "b->a once, in order" (ordered "b" 40)
            (List.rev !got_a);
          let faults (s : Socket.stats) = s.chaos_dropped + s.chaos_duplicated + s.chaos_delayed in
          check Alcotest.bool "chaos struck" true (faults (Socket.stats a) > 0 && faults (Socket.stats b) > 0);
          check Alcotest.bool "the partition dropped frames" true
            ((Socket.stats a).blocked_drops + (Socket.stats b).retransmits > 0)))

(* Node 0's seat without a Socket: a dial into node 1 that writes frames
   in any order, and a listener that reads node 1's acks. *)
type raw_peer = {
  out : Unix.file_descr;
  listener : Unix.file_descr;
  mutable inbound : Unix.file_descr list;
  decoder : Wire.Decoder.t;
  mutable acks : int list;
}

let raw_peer ~addr_of =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Socket.sockaddr (addr_of 0));
  Unix.listen listener 4;
  Unix.set_nonblock listener;
  let out = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect out (Socket.sockaddr (addr_of 1));
  Unix.set_nonblock out;
  { out; listener; inbound = []; decoder = Wire.Decoder.create (); acks = [] }

(* Write every frame, running [wait] (the receiver's loop) whenever the
   socket buffer is full. *)
let raw_write p ~wait frames =
  let s = String.concat "" (List.map Wire.encode frames) in
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring p.out s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> wait ()
  done

let raw_poll p =
  (match Unix.accept p.listener with
  | fd, _ ->
      Unix.set_nonblock fd;
      p.inbound <- fd :: p.inbound
  | exception Unix.Unix_error _ -> ());
  let buf = Bytes.create 4096 in
  List.iter
    (fun fd ->
      match Unix.read fd buf 0 (Bytes.length buf) with
      | n -> Wire.Decoder.feed p.decoder buf 0 n
      | exception Unix.Unix_error _ -> ())
    p.inbound;
  List.iter
    (fun (f : Wire.frame) -> if f.kind = Wire.Ack then p.acks <- f.seq :: p.acks)
    (drain p.decoder)

let raw_close p = List.iter Unix.close (p.out :: p.listener :: p.inbound)

let data seq = frame Wire.Data ~src:0 ~dst:1 ~seq (string_of_int seq)

(* The window bound over a socket: frame 1 is missing, frames 2 to
   [window + 1] fill node 1's window, and frame [window + 2] finds it
   full. That one is dropped without an ack; when frame 1 arrives the
   ack stops below it, and its second copy is delivered. *)
let test_socket_window_bound () =
  with_temp_dir "dpc-sock-window" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let b = Socket.create ~nodes:2 ~local:1 ~addr_of () in
      let p = raw_peer ~addr_of in
      Fun.protect
        ~finally:(fun () ->
          Socket.close b;
          raw_close p)
        (fun () ->
          let got = ref [] in
          Socket.set_deliver b (fun ~src:_ ~payload -> got := int_of_string payload :: !got);
          let tb = Socket.transport b in
          let pump_until tag cond =
            pump [ tb ] ~tag ~until_cond:(fun () ->
                raw_poll p;
                cond ())
          in
          let raw_write = raw_write p ~wait:(fun () ->
            Dpc_net.Transport.run ~until:(Dpc_net.Transport.now tb +. 0.02) tb)
          in
          let w = Dpc_net.Reliable.For_testing.window in
          raw_write (frame Wire.Hello ~src:0 ~dst:1 ~seq:0 "" :: List.init (w + 1) (fun i -> data (i + 2)));
          (* A duplicate of a held frame marks the end of the burst. *)
          raw_write [ data 2 ];
          pump_until "burst read" (fun () -> (Socket.stats b).dup_dropped = 1);
          let s = Socket.stats b in
          check Alcotest.int "the window is full" w s.held;
          check Alcotest.int "nothing delivered behind the gap" 0 (List.length !got);
          check Alcotest.int "nothing acked" 0 s.acks_sent;
          raw_write [ data 1 ];
          pump_until "gap filled" (fun () -> List.mem (w + 1) p.acks);
          check (Alcotest.list Alcotest.int) "the held frames, in order"
            (List.init (w + 1) (fun i -> i + 1)) (List.rev !got);
          check Alcotest.int "the ack stops below the dropped frame" (w + 1)
            (List.fold_left max 0 p.acks);
          raw_write [ data (w + 2) ];
          pump_until "second copy delivered" (fun () -> List.mem (w + 2) p.acks);
          check (Alcotest.list Alcotest.int) "every frame once, in order"
            (List.init (w + 2) (fun i -> i + 1)) (List.rev !got)))

(* Frames and restores naming a peer outside the cluster. Before, the
   frames opened channel state for a node that does not exist, and the
   restore accepted the peer. *)
let test_socket_stray_peers () =
  with_temp_dir "dpc-sock-stray" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let b = Socket.create ~nodes:2 ~local:1 ~addr_of () in
      let p = raw_peer ~addr_of in
      Fun.protect
        ~finally:(fun () ->
          Socket.close b;
          raw_close p)
        (fun () ->
          let got = ref [] in
          Socket.set_deliver b (fun ~src ~payload -> got := (src, payload) :: !got);
          raw_write p ~wait:ignore
            [
              frame Wire.Hello ~src:0 ~dst:1 ~seq:0 "";
              frame Wire.Data ~src:7 ~dst:1 ~seq:1 "past the cluster";
              frame Wire.Ack ~src:5 ~dst:1 ~seq:3 "";
              frame Wire.Data ~src:1 ~dst:1 ~seq:1 "from itself";
              frame Wire.Data ~src:0 ~dst:1 ~seq:1 "from node 0";
            ];
          pump [ Socket.transport b ] ~tag:"valid frame delivered" ~until_cond:(fun () -> !got <> []);
          check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "only node 0's frame"
            [ (0, "from node 0") ] !got;
          check Alcotest.int "strays counted" 3 (Socket.stats b).stray_frames;
          let blob ~out ~into =
            Dpc_util.Serialize.with_scratch (fun w ->
                Dpc_util.Serialize.write_string w "dpc-chan-v1";
                Dpc_util.Serialize.write_list w
                  (fun (dst, next_seq, acked) ->
                    List.iter (Dpc_util.Serialize.write_varint w) [ dst; next_seq; acked ])
                  out;
                Dpc_util.Serialize.write_list w
                  (fun (src, expected) ->
                    List.iter (Dpc_util.Serialize.write_varint w) [ src; expected ])
                  into)
          in
          let before = Socket.snapshot_channels b in
          List.iter
            (fun (what, blob) ->
              match Socket.restore_channels b blob with
              | () -> Alcotest.failf "restore accepted %s" what
              | exception Dpc_util.Serialize.Corrupt _ -> ())
            [
              ("a sender past the cluster", blob ~out:[ (0, 4, 2); (2, 3, 1) ] ~into:[]);
              ("a receiver past the cluster", blob ~out:[ (0, 4, 2) ] ~into:[ (1000, 3) ]);
              ("the local node as a peer", blob ~out:[] ~into:[ (1, 3) ]);
            ];
          check Alcotest.string "nothing applied" before (Socket.snapshot_channels b)))

(* ------------------------------------------------------------------ *)
(* Golden process formats: a dpc-wire-v1 frame of every kind, a
   dpc-outbox-v1 ledger before and after compaction, and a dpc-chan-v1
   channel snapshot, checked in under fixtures/ as the bytes the encoders
   write for small fixed inputs. The encoders must reproduce them byte
   for byte and the decoders must read them back. When an encoder changes
   on purpose, the failing test writes [<fixture>.actual] next to the
   test binary; review it and copy it over the fixture. *)

let fixture name = Filename.concat "fixtures" name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_fixture name actual =
  let path = fixture name in
  let expected = if Sys.file_exists path then read_file path else "" in
  if not (String.equal expected actual) then begin
    Out_channel.with_open_bin (name ^ ".actual") (fun oc -> output_string oc actual);
    Alcotest.failf "%s: encoder wrote %d bytes that differ from the fixture's %d (see %s.actual)"
      name (String.length actual) (String.length expected) name
  end

let golden_frames =
  [
    frame Wire.Hello ~src:1 ~dst:0 ~seq:0 "";
    frame Wire.Data ~src:0 ~dst:1 ~seq:3 "payload";
    frame Wire.Ack ~src:1 ~dst:0 ~seq:3 "";
    frame Wire.Ctrl ~src:Wire.control_id ~dst:1 ~seq:7 "status";
  ]

let test_wire_fixture () =
  check_fixture "wire-frames.bin" (String.concat "" (List.map Wire.encode golden_frames));
  let d = Wire.Decoder.create () in
  feed_string d (read_file (fixture "wire-frames.bin"));
  check Alcotest.bool "decoded frames" true (drain d = golden_frames)

(* Send and Ack records on two channels, then the compacted ledger of
   Mark records and pending sends. *)
let test_outbox_fixture () =
  with_temp_dir "dpc-outbox-fixture" (fun dir ->
      let ob = Outbox.For_testing.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:1 "a";
      Outbox.record_send ob ~dst:1 ~seq:2 "b";
      Outbox.record_send ob ~dst:2 ~seq:1 "c";
      Outbox.record_ack ob ~dst:1 ~seq:1;
      Outbox.record_send ob ~dst:1 ~seq:3 "d";
      Outbox.record_ack ob ~dst:2 ~seq:1;
      let log = Filename.concat dir "outbox.log" in
      check_fixture "outbox.bin" (read_file log);
      Outbox.compact ob;
      check_fixture "outbox-compacted.bin" (read_file log);
      Outbox.For_testing.close ob);
  List.iter
    (fun name ->
      with_temp_dir "dpc-outbox-fixture" (fun dir ->
          Out_channel.with_open_bin (Filename.concat dir "outbox.log") (fun oc ->
              output_string oc (read_file (fixture name)));
          let ob = Outbox.For_testing.open_ ~dir in
          check
            (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
            (name ^ " pending") [ (1, 2, "b"); (1, 3, "d") ] (Outbox.pending ob);
          check Alcotest.(pair int int) (name ^ " channel 1") (4, 1)
            (Outbox.next_seq ob ~dst:1, Outbox.For_testing.acked ob ~dst:1);
          check Alcotest.(pair int int) (name ^ " channel 2") (2, 1)
            (Outbox.next_seq ob ~dst:2, Outbox.For_testing.acked ob ~dst:2);
          Outbox.For_testing.close ob))
    [ "outbox.bin"; "outbox-compacted.bin" ]

(* Node 0 of a live three-node cluster sends three payloads to node 1
   and two to node 2, receives two from node 1 and one from node 2, and
   every ack lands: its snapshot has sent, acked and expected state on
   both peers. *)
let test_chan_fixture () =
  with_temp_dir "dpc-chan-fixture" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let socks = Array.init 3 (fun local -> Socket.create ~nodes:3 ~local ~addr_of ()) in
      Fun.protect
        ~finally:(fun () -> Array.iter Socket.close socks)
        (fun () ->
          let got = ref 0 in
          Array.iter (fun s -> Socket.set_deliver s (fun ~src:_ ~payload:_ -> incr got)) socks;
          List.iter
            (fun (src, dst, n) ->
              for i = 1 to n do
                Socket.send_payload socks.(src) ~dst (Printf.sprintf "%d->%d %d" src dst i)
              done)
            [ (0, 1, 3); (0, 2, 2); (1, 0, 2); (2, 0, 1) ];
          pump (Array.to_list (Array.map Socket.transport socks)) ~tag:"every ack lands"
            ~until_cond:(fun () -> !got = 8 && Array.for_all (fun s -> Socket.unacked s = 0) socks);
          check_fixture "chan.bin" (Socket.snapshot_channels socks.(0)));
      let fresh = Socket.create ~nodes:3 ~local:0 ~addr_of () in
      Fun.protect
        ~finally:(fun () -> Socket.close fresh)
        (fun () ->
          let blob = read_file (fixture "chan.bin") in
          Socket.restore_channels fresh blob;
          check Alcotest.int "restored sender cursor" 4 (Socket.sender_next_seq fresh ~dst:1);
          check Alcotest.string "chan.bin re-encoded" blob (Socket.snapshot_channels fresh)))

(* A manifest naming a base and two deltas, and a delta cut that carries
   the store, db and channel fixtures above as its blobs. *)
let golden_cut : Dpc_core.Durable.checkpoint =
  {
    store = read_file (fixture "store-advanced-delta.bin");
    db = read_file (fixture "db-delta.bin");
    channels = Some (read_file (fixture "chan.bin"));
  }

let test_manifest_fixture () =
  let module Durable = Dpc_core.Durable in
  check_fixture "manifest.bin" (Durable.For_testing.encode_manifest ~epoch:2 ~base:3 ~deltas:[ 4; 5 ]);
  check Alcotest.(triple int int (list int)) "decoded manifest" (2, 3, [ 4; 5 ])
    (Durable.For_testing.decode_manifest (read_file (fixture "manifest.bin")))

let test_cut_fixture () =
  let module Durable = Dpc_core.Durable in
  check_fixture "cut-delta.bin" (Durable.For_testing.encode_cut ~is_delta:true golden_cut);
  check Alcotest.bool "decoded cut" true
    (Durable.For_testing.decode_cut (read_file (fixture "cut-delta.bin")) = (true, golden_cut))

let test_manifest_cut_trailing_byte () =
  let module Durable = Dpc_core.Durable in
  check_trailing_byte "manifest.bin" Durable.For_testing.decode_manifest (read_file (fixture "manifest.bin"));
  check_trailing_byte "cut-delta.bin" Durable.For_testing.decode_cut (read_file (fixture "cut-delta.bin"))

(* The socket's channel decoder finds the junk before it applies anything. *)
let test_chan_trailing_byte () =
  with_temp_dir "dpc-chan-trailing" (fun dir ->
      let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
      let fresh = Socket.create ~nodes:3 ~local:0 ~addr_of () in
      Fun.protect
        ~finally:(fun () -> Socket.close fresh)
        (fun () ->
          let before = Socket.snapshot_channels fresh in
          check_trailing_byte "chan.bin" (Socket.restore_channels fresh)
            (read_file (fixture "chan.bin"));
          check Alcotest.string "nothing applied" before (Socket.snapshot_channels fresh)))

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
        Dpc_engine.Db.digest (Dpc_engine.Runtime.db runtime node) ))

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
      Dpc_core.Durable.For_testing.crash durable 1;
      Dpc_core.Durable.For_testing.restart durable 1;
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
        let wal = Dpc_core.Durable.For_testing.wal durable node in
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

(* A manifest that names a cut its directory lacks, or one that cannot
   be read, is damaged state: attach raises Corrupt, as for a cut that
   does not decode, and not Sys_error. *)
let test_disk_manifest_names_missing_cut () =
  with_temp_dir "dpc-manifest" (fun dir ->
      let scheme = Dpc_core.Backend.S_advanced in
      let _, runtime, durable = build_disk_world scheme dir in
      Dpc_engine.Runtime.load_slow runtime (Dpc_proc.Scenario.routes ());
      List.iter (fun ev -> Dpc_engine.Runtime.inject runtime ev) (Dpc_proc.Scenario.pre_packets ());
      Dpc_engine.Runtime.run runtime;
      for node = 0 to Dpc_proc.Scenario.nodes - 1 do
        Dpc_core.Durable.flush_wal durable node
      done;
      let manifest = Filename.concat dir "node-1/manifest" in
      let epoch, base, deltas = Dpc_core.Durable.For_testing.decode_manifest (read_file manifest) in
      let attach_with what ~base ~deltas =
        Out_channel.with_open_bin manifest (fun oc ->
            output_string oc (Dpc_core.Durable.For_testing.encode_manifest ~epoch ~base ~deltas));
        match build_disk_world scheme dir with
        | _ -> Alcotest.failf "%s: attach succeeded" what
        | exception Dpc_util.Serialize.Corrupt _ -> ()
      in
      attach_with "a missing base cut" ~base:99 ~deltas;
      attach_with "a missing delta cut" ~base ~deltas:(deltas @ [ 99 ]);
      Unix.mkdir (Filename.concat dir "node-1/cut-99.bin") 0o755;
      attach_with "a cut that is a directory" ~base ~deltas:(deltas @ [ 99 ]))

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
          Alcotest.test_case "send after a torn tail survives a reload" `Quick
            test_outbox_send_after_torn_tail;
        ] );
      ( "control protocol",
        [
          Alcotest.test_case "round-trip" `Quick test_ctrl_roundtrip;
          Alcotest.test_case "trailing byte rejected" `Quick test_ctrl_trailing_byte;
        ] );
      ( "socket transport",
        [
          Alcotest.test_case "duplex pair" `Quick test_socket_pair;
          Alcotest.test_case "chaos and a partition cycle" `Quick test_socket_chaos;
          Alcotest.test_case "receive window bound" `Quick test_socket_window_bound;
          Alcotest.test_case "peers past the cluster" `Quick test_socket_stray_peers;
        ] );
      ( "format fixtures",
        [
          Alcotest.test_case "dpc-wire-v1 frames" `Quick test_wire_fixture;
          Alcotest.test_case "dpc-outbox-v1 ledgers" `Quick test_outbox_fixture;
          Alcotest.test_case "dpc-chan-v1 snapshot" `Quick test_chan_fixture;
          Alcotest.test_case "dpc-manifest-v1 manifest" `Quick test_manifest_fixture;
          Alcotest.test_case "dpc-cut-v1 delta cut" `Quick test_cut_fixture;
          Alcotest.test_case "manifest and cut, trailing byte rejected" `Quick
            test_manifest_cut_trailing_byte;
          Alcotest.test_case "dpc-chan-v1, trailing byte rejected" `Quick
            test_chan_trailing_byte;
        ] );
      ( "disk recovery",
        [
          Alcotest.test_case "digest equality, all schemes" `Quick test_disk_recovery;
          Alcotest.test_case "wal file equals the flushed range" `Quick
            test_disk_wal_matches_memory;
          Alcotest.test_case "damaged wal tail trimmed" `Quick test_disk_wal_damaged_tail;
          Alcotest.test_case "manifest naming a missing cut" `Quick
            test_disk_manifest_names_missing_cut;
        ] );
    ]
