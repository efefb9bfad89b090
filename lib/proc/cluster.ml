module Wire = Dpc_net.Wire
module Backend = Dpc_core.Backend

let addr_of ~dir node = Printf.sprintf "unix:%s/node-%d.sock" dir node

let scheme_arg = function
  | Backend.S_exspan -> "exspan"
  | Backend.S_basic -> "basic"
  | Backend.S_advanced -> "advanced"
  | Backend.S_advanced_interclass -> "advanced-interclass"

let scheme_of_arg = function
  | "exspan" -> Some Backend.S_exspan
  | "basic" -> Some Backend.S_basic
  | "advanced" -> Some Backend.S_advanced
  | "advanced-interclass" -> Some Backend.S_advanced_interclass
  | _ -> None

exception Oracle_failure of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Oracle_failure msg)) fmt

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* ---- the control client ---------------------------------------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; decoder : Wire.Decoder.t; node : int; mutable seq : int }

  (* The daemon binds its listen socket inside [Daemon.create], so a
     connection refused just means the process has not reached that point
     yet — retry until the deadline. *)
  let connect ~addr ~node ~timeout =
    let sa = Dpc_net.Socket.sockaddr addr in
    let deadline = Unix.gettimeofday () +. timeout in
    let rec attempt () =
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
        when Unix.gettimeofday () < deadline ->
          Unix.close fd;
          Unix.sleepf 0.02;
          attempt ()
      | exception exn ->
          Unix.close fd;
          raise exn
    in
    let fd = attempt () in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    write_all fd (Wire.encode { kind = Hello; src = Wire.control_id; dst = node; seq = 0; payload = "" });
    { fd; decoder = Wire.Decoder.create (); node; seq = 0 }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let rec next_reply t ~seq buf =
    match Wire.Decoder.next t.decoder with
    | Some { kind = Ctrl; seq = s; payload; _ } when s = seq -> Ctrl.decode_reply payload
    | Some _ -> next_reply t ~seq buf
    | None -> (
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 -> failf "daemon %d closed the control connection" t.node
        | n ->
            Wire.Decoder.feed t.decoder buf 0 n;
            next_reply t ~seq buf
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            failf "daemon %d control reply timed out" t.node)

  (* Fire-and-forget: [Shutdown] has no reply. *)
  let send t req =
    t.seq <- t.seq + 1;
    write_all t.fd
      (Wire.encode
         {
           kind = Ctrl;
           src = Wire.control_id;
           dst = t.node;
           seq = t.seq;
           payload = Ctrl.encode_request req;
         })

  let request t req =
    send t req;
    next_reply t ~seq:t.seq (Bytes.create 65536)
end

let expect_ok node what = function
  | Ctrl.Ok -> ()
  | Ctrl.Error msg -> failf "daemon %d rejected %s: %s" node what msg
  | _ -> failf "daemon %d: unexpected reply to %s" node what

let status client =
  match Client.request client Ctrl.Status with
  | Ctrl.Status_r s -> s
  | Ctrl.Error msg -> failf "daemon %d status failed: %s" client.Client.node msg
  | _ -> failf "daemon %d: unexpected reply to status" client.Client.node

(* ---- daemon processes ------------------------------------------------- *)

type proc = { node : int; mutable pid : int }

let spawn ?chaos ~exe ~dir ~scheme node =
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "node-%d.log" node))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let chaos_args =
    match chaos with
    | None -> []
    | Some ((fc : Dpc_net.Transport.fault_config), seed) ->
        [
          "--drop"; string_of_float fc.drop;
          "--dup"; string_of_float fc.duplicate;
          "--delay"; string_of_float fc.delay;
          "--delay-max"; string_of_float fc.delay_max;
          "--chaos-seed"; string_of_int seed;
        ]
  in
  let args =
    Array.of_list
      ([
         exe; "serve";
         "--scheme"; scheme_arg scheme;
         "--nodes"; string_of_int Scenario.nodes;
         "--local"; string_of_int node;
         "--dir"; dir;
       ]
      @ chaos_args)
  in
  let pid = Unix.create_process exe args Unix.stdin log log in
  Unix.close log;
  { node; pid }

let kill_hard proc =
  if proc.pid > 0 then begin
    (try Unix.kill proc.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] proc.pid) with Unix.Unix_error _ -> ());
    proc.pid <- -1
  end

(* Reap a daemon that was asked to shut down; escalate to SIGKILL if it
   does not exit within the grace period. *)
let reap ?(grace = 5.0) proc =
  if proc.pid > 0 then begin
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] proc.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then kill_hard proc
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
      | _ -> proc.pid <- -1
      | exception Unix.Unix_error _ -> proc.pid <- -1
    in
    wait ()
  end

(* ---- the quiescence barrier ------------------------------------------- *)

(* Two consecutive all-daemon polls with zero unacked frames everywhere
   and unchanged monotonic counters: nothing in flight, nothing happened
   between the polls, so (absent new control input) nothing will. *)
let quiesce ?(timeout = 30.0) clients =
  let deadline = Unix.gettimeofday () +. timeout in
  let poll () =
    List.map (fun c -> let s = status c in (s.Ctrl.unacked, s.data_sent, s.data_received)) clients
  in
  let stable a b =
    List.for_all2
      (fun (ua, sa, ra) (ub, sb, rb) -> ua = 0 && ub = 0 && sa = sb && ra = rb)
      a b
  in
  let rec settle prev =
    if Unix.gettimeofday () > deadline then failf "cluster did not quiesce within %.0fs" timeout;
    let round = poll () in
    if stable prev round then ()
    else begin
      Unix.sleepf 0.03;
      settle round
    end
  in
  settle (poll ())

(* ---- the oracle ------------------------------------------------------- *)

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let digest client =
  match Client.request client Ctrl.Digest with
  | Ctrl.Digest_r { node; store; db } ->
      if node <> client.Client.node then
        failf "daemon %d answered for node %d" client.Client.node node;
      { Scenario.store; db }
  | Ctrl.Error msg -> failf "daemon %d digest failed: %s" client.Client.node msg
  | _ -> failf "daemon %d: unexpected reply to digest" client.Client.node

(* A live cluster, as an oracle's phases see it. *)
type cluster = {
  client : int -> Client.t;
  clients : unit -> Client.t list;  (* the connected ones *)
  kill : int -> unit;  (* kill -9 the node's daemon and drop its client *)
  respawn : int -> unit;  (* start the node's daemon again and reconnect *)
}

(* One oracle run: spawn a daemon per node, load the routes everywhere,
   drive [phases], hold every node's digests to the simulator's
   [reference], and shut the daemons down. Spawned processes are always
   reaped. *)
let with_cluster ?chaos ~exe ~dir ~reference scheme phases =
  mkdir_p dir;
  let procs = Array.init Scenario.nodes (fun node -> { node; pid = -1 }) in
  let clients : Client.t option array = Array.make Scenario.nodes None in
  let client node = Option.get clients.(node) in
  let spawn node = procs.(node).pid <- (spawn ?chaos ~exe ~dir ~scheme node).pid in
  let connect node =
    clients.(node) <- Some (Client.connect ~addr:(addr_of ~dir node) ~node ~timeout:10.0)
  in
  let cluster =
    {
      client;
      clients = (fun () -> Array.to_list clients |> List.filter_map Fun.id);
      kill =
        (fun node ->
          Client.close (client node);
          clients.(node) <- None;
          kill_hard procs.(node));
      respawn =
        (fun node ->
          spawn node;
          connect node);
    }
  in
  let cleanup () =
    Array.iter (fun c -> Option.iter Client.close c) clients;
    Array.iter kill_hard procs
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        Array.iter (fun p -> spawn p.node) procs;
        Array.iter (fun p -> connect p.node) procs;
        (* Routes everywhere: each daemon keeps only its own node's entries
           live, but loading the full table keeps the daemons agnostic of
           which rows they will need. *)
        Array.iter
          (fun p -> expect_ok p.node "load" (Client.request (client p.node) (Ctrl.Load (Scenario.routes ()))))
          procs;
        quiesce (cluster.clients ());
        let summary = phases cluster in
        (* The verdict: every node's digests against the simulator's. *)
        Array.iteri
          (fun node (expected : Scenario.digests) ->
            let got = digest (client node) in
            if got.Scenario.store <> expected.Scenario.store then
              failf "node %d store digest diverged from the simulator (%s vs %s)" node
                got.Scenario.store expected.Scenario.store;
            if got.Scenario.db <> expected.Scenario.db then
              failf "node %d db digest diverged from the simulator (%s vs %s)" node
                got.Scenario.db expected.Scenario.db)
          reference;
        Array.iter
          (fun p -> if Option.is_some clients.(p.node) then Client.send (client p.node) Ctrl.Shutdown)
          procs;
        Array.iter reap procs;
        summary)
  with
  | summary -> Ok summary
  | exception Oracle_failure msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

let inject c packets =
  List.iter
    (fun packet -> expect_ok 0 "inject" (Client.request (c.client 0) (Ctrl.Inject packet)))
    packets

let expect_outputs c expected =
  let sink = status (c.client 2) in
  if sink.Ctrl.outputs <> expected then
    failf "node 2 recorded %d outputs, expected %d" sink.Ctrl.outputs expected

let run_scheme ?chaos ~exe ~dir scheme =
  with_cluster ?chaos ~exe ~dir ~reference:(Scenario.simulate scheme) scheme (fun c ->
      (* Phase 1: pre packets on the healthy chain. *)
      inject c (Scenario.pre_packets ());
      quiesce (c.clients ());
      (* Cut a checkpoint at node 1 so its recovery restores a real cut
         (channels included) and replays only the tail. *)
      expect_ok 1 "checkpoint" (Client.request (c.client 1) Ctrl.Checkpoint);
      (* Phase 2: kill node 1 the hard way, inject while it is down. *)
      c.kill 1;
      inject c (Scenario.mid_packets ());
      (* Let node 0 actually attempt (and fail) deliveries toward the dead
         process — the frames must wait in its durable outbox. *)
      Unix.sleepf 0.3;
      let stalled = (status (c.client 0)).Ctrl.unacked in
      if stalled = 0 then failf "node 0 reported nothing in flight while node 1 was dead";
      c.respawn 1;
      let s1 = status (c.client 1) in
      if not s1.Ctrl.recovered then failf "respawned node 1 did not recover from disk";
      quiesce (c.clients ());
      (* Phase 3: the §5.5 route refresh at node 1. *)
      (match Client.request (c.client 1) (Ctrl.Slow_delete (Scenario.refreshed_route ())) with
      | Ctrl.Deleted true -> ()
      | Ctrl.Deleted false -> failf "node 1 lost its route across the crash"
      | Ctrl.Error msg -> failf "node 1 rejected the route delete: %s" msg
      | _ -> failf "node 1: unexpected reply to the route delete");
      expect_ok 1 "route reinsert"
        (Client.request (c.client 1) (Ctrl.Slow_insert (Scenario.refreshed_route ())));
      quiesce (c.clients ());
      (* Phase 4: post packets against the re-materialized chains. *)
      inject c (Scenario.post_packets ());
      quiesce (c.clients ());
      (* Phase 5: partition 0 <-> 1 in both directions, inject into the
         cut, kill node 1 mid-partition, restart it, then heal. The part
         packets must ride node 0's durable outbox across the outage and
         the crash, and arrive exactly once after the link comes back. *)
      expect_ok 0 "block" (Client.request (c.client 0) (Ctrl.Block 1));
      expect_ok 1 "block" (Client.request (c.client 1) (Ctrl.Block 0));
      inject c (Scenario.part_packets ());
      (* Give node 0's retransmissions time to keep (not) delivering. *)
      Unix.sleepf 0.3;
      let parted = (status (c.client 0)).Ctrl.unacked in
      if parted = 0 then failf "node 0 reported nothing in flight across the partition";
      (* Crash the far side of the cut while it is unreachable. Its
         volatile block dies with the process; node 0's survives, so the
         partition stays up one-way until the explicit heal below. *)
      c.kill 1;
      c.respawn 1;
      if not (status (c.client 1)).Ctrl.recovered then
        failf "node 1 did not recover from disk after the mid-partition crash";
      expect_ok 0 "unblock" (Client.request (c.client 0) (Ctrl.Unblock 1));
      quiesce (c.clients ());
      expect_outputs c Scenario.total_outputs;
      Printf.sprintf
        "%d outputs, node-1 crash recovered, %d frames stalled while down, %d across the partition%s"
        Scenario.total_outputs stalled parted
        (if Option.is_some chaos then ", chaos on" else ""))

(* ---- the soak oracle --------------------------------------------------- *)

(* Ceiling for one daemon's compacted outbox ledger. After a quiesced
   round everything is acked, so [Compact] rewrites the file down to the
   per-channel cursor records — a few dozen bytes per peer, independent
   of how many rounds have flowed through. *)
let soak_outbox_cap = 1024

let run_soak ?chaos ~exe ~dir ~rounds ~per_round scheme =
  let reference = Scenario.simulate_soak scheme ~rounds ~per_round in
  with_cluster ?chaos ~exe ~dir ~reference scheme (fun c ->
      let ledger_peak = ref 0 in
      for round = 1 to rounds do
        inject c (Scenario.soak_packets ~round per_round);
        quiesce (c.clients ());
        (* A quiesced round means every frame is acked, so compaction must
           shrink each ledger back under a round-independent ceiling. *)
        List.iter
          (fun client ->
            expect_ok client.Client.node "compact" (Client.request client Ctrl.Compact);
            let after = (status client).Ctrl.outbox_bytes in
            ledger_peak := max !ledger_peak after;
            if after > soak_outbox_cap then
              failf "round %d: node %d outbox still %d bytes after compact (cap %d)" round
                client.Client.node after soak_outbox_cap)
          (c.clients ())
      done;
      expect_outputs c (rounds * per_round);
      Printf.sprintf "%d rounds x %d packets, ledger peak %d bytes (cap %d)" rounds per_round
        !ledger_peak soak_outbox_cap)

(* Each scheme in its own subdirectory ([<kind>-<scheme>] for a named
   kind), one PASS/FAIL line each. *)
let run_each ?kind ~dir run schemes =
  mkdir_p dir;
  let named sep name = match kind with Some k -> k ^ sep ^ name | None -> name in
  List.fold_left
    (fun ok scheme ->
      let sub = Filename.concat dir (named "-" (scheme_arg scheme)) in
      match run ~dir:sub scheme with
      | Ok summary ->
          Printf.printf "PASS %s %s\n%!" (named " " (Printf.sprintf "%-20s" (scheme_arg scheme))) summary;
          ok
      | Error msg ->
          Printf.printf "FAIL %s %s (logs under %s)\n%!"
            (named " " (Printf.sprintf "%-20s" (scheme_arg scheme))) msg sub;
          false)
    true schemes

let run_all ?chaos ~exe ~dir schemes = run_each ~dir (run_scheme ?chaos ~exe) schemes

let run_soak_all ?chaos ~exe ~dir ~rounds ~per_round schemes =
  run_each ~kind:"soak" ~dir (run_soak ?chaos ~exe ~rounds ~per_round) schemes
