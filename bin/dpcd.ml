(* dpcd: the real-process node daemon and its cluster launcher.

   `dpcd serve` hosts ONE scenario node in this process — socket
   transport, WAL + checkpoints + outbox on disk under --dir — and pumps
   its event loop until a Shutdown control frame.

   `dpcd cluster` is the transparency oracle: it spawns three `dpcd
   serve` children per scheme, drives the Scenario phases over the
   control plane (including a mid-run `kill -9` of node 1 and a recovery
   from its data directory), and checks every node's digests against the
   in-process simulator. Exit status 0 iff every scheme matched. *)

open Cmdliner

let scheme_conv =
  let parse s =
    match Dpc_proc.Cluster.scheme_of_arg s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Dpc_proc.Cluster.scheme_arg s) in
  Arg.conv (parse, print)

let scheme_doc = "Maintenance scheme: exspan, basic, advanced, or advanced-interclass."

(* The process-level chaos widths mirror the in-process sweep
   (test_chaos): wide enough to force drops, duplicates, and delays on
   the real wire, narrow enough that the scenario still quiesces. *)
let chaos_widths = Dpc_net.Transport.fault_config ~drop:0.12 ~duplicate:0.06 ~delay:0.25 ~delay_max:0.02 ()

(* ---- serve ----------------------------------------------------------- *)

let serve scheme nodes local dir drop dup delay delay_max chaos_seed =
  if local < 0 || local >= nodes then
    `Error (false, Printf.sprintf "--local %d out of range for %d nodes" local nodes)
  else begin
    match
      if drop = 0.0 && dup = 0.0 && delay = 0.0 then None
      else Some (Dpc_net.Transport.fault_config ~drop ~duplicate:dup ~delay ~delay_max (), chaos_seed)
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | chaos ->
        let daemon =
          Dpc_proc.Daemon.create ~scheme ~nodes ~local
            ~addr_of:(Dpc_proc.Cluster.addr_of ~dir)
            ~dir ?chaos ()
        in
        Dpc_proc.Daemon.serve daemon;
        `Ok ()
  end

let serve_cmd =
  let scheme =
    Arg.(required & opt (some scheme_conv) None & info [ "scheme" ] ~docv:"SCHEME" ~doc:scheme_doc)
  in
  let nodes =
    Arg.(value & opt int Dpc_proc.Scenario.nodes & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let local =
    Arg.(required & opt (some int) None & info [ "local" ] ~docv:"I" ~doc:"The node this process hosts.")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Data directory: listen sockets, and this node's WAL/checkpoints/outbox under \
                $(i,DIR)/node-$(i,I)/.")
  in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc:"Chaos: drop rate for outgoing data frames.")
  in
  let dup =
    Arg.(value & opt float 0.0 & info [ "dup" ] ~docv:"P" ~doc:"Chaos: duplication rate.")
  in
  let delay =
    Arg.(value & opt float 0.0 & info [ "delay" ] ~docv:"P" ~doc:"Chaos: delay rate.")
  in
  let delay_max =
    Arg.(value & opt float 0.0 & info [ "delay-max" ] ~docv:"S" ~doc:"Chaos: max extra delay in seconds.")
  in
  let chaos_seed =
    Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Chaos: hash seed.")
  in
  let doc = "host one cluster node in this process" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret (const serve $ scheme $ nodes $ local $ dir $ drop $ dup $ delay $ delay_max $ chaos_seed))

(* ---- cluster --------------------------------------------------------- *)

(* Remove [path] and everything under it. *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let cluster schemes dir chaos soak rounds per_round =
  let schemes =
    match schemes with [] -> Dpc_core.Backend.all_schemes | chosen -> chosen
  in
  let made = Option.is_none dir in
  let dir = match dir with Some d -> d | None -> Filename.temp_dir "dpc-procs-" "" in
  let chaos = if chaos then Some (chaos_widths, 7) else None in
  Printf.printf "dpcd cluster%s%s: %d node(s) per scheme, state under %s\n%!"
    (if Option.is_some chaos then " [chaos]" else "")
    (if soak then Printf.sprintf " [soak %dx%d]" rounds per_round else "")
    Dpc_proc.Scenario.nodes dir;
  let ok =
    if soak then
      Dpc_proc.Cluster.run_soak_all ?chaos ~exe:Sys.executable_name ~dir ~rounds ~per_round schemes
    else Dpc_proc.Cluster.run_all ?chaos ~exe:Sys.executable_name ~dir schemes
  in
  (* A directory this command made goes once every scheme passed, and
     stays for inspection otherwise. *)
  if ok then begin
    if made then remove_tree dir;
    `Ok ()
  end
  else begin
    if made then Printf.eprintf "dpcd cluster: keeping %s for inspection\n%!" dir;
    `Error (false, "real-process digests diverged from the simulator")
  end

let cluster_cmd =
  let schemes =
    Arg.(value & opt_all scheme_conv [] & info [ "scheme" ] ~docv:"SCHEME" ~doc:(scheme_doc ^ " Repeatable; default all four."))
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Working directory, kept afterwards. By default a fresh temp dir, removed once \
                every scheme passes and kept on a failure. Keep it short: Unix socket paths live \
                inside it.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Run every daemon with hashed frame corruption on the wire (the in-process chaos \
                sweep's widths: drop 0.12, dup 0.06, delay 0.25/0.02s).")
  in
  let soak =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:"Long-running mode: sustained rounds of traffic with periodic outbox compaction, \
                asserting the ledger stays bounded, instead of the crash/partition scenario.")
  in
  let rounds =
    Arg.(value & opt int 12 & info [ "rounds" ] ~docv:"N" ~doc:"Soak rounds (with --soak).")
  in
  let per_round =
    Arg.(value & opt int 4 & info [ "per-round" ] ~docv:"N" ~doc:"Packets per soak round (with --soak).")
  in
  let doc = "spawn a daemon per node and run the crash/partition/transparency oracle" in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(ret (const cluster $ schemes $ dir $ chaos $ soak $ rounds $ per_round))

let () =
  let doc = "distributed provenance compression, as real processes" in
  let info = Cmd.info "dpcd" ~doc in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; cluster_cmd ]))
