(* Checkpoint/restore tests: a store serialized to bytes and rebuilt must
   answer every query identically, storage accounting must survive the
   round-trip, and the Advanced store must be able to CONTINUE maintenance
   (its equivalence tables are part of the checkpoint). *)

open Dpc_core

let check = Alcotest.check
let tree_t = Alcotest.testable Prov_tree.pp Prov_tree.equal

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

let topology () =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  topo

let routes =
  [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
    Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]

let run_workload scheme payloads =
  let topo = topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  List.iter
    (fun payload ->
      Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
    payloads;
  Dpc_engine.Runtime.run runtime;
  (backend, routing)

let payloads = [ "a"; "b"; "c" ]

let storage_t =
  Alcotest.testable
    (fun fmt (s : Rows.storage) ->
      Format.fprintf fmt "prov=%dB/%d rows, ruleExec=%dB/%d rows, equi=%dB, events=%dB"
        s.prov_bytes s.prov_rows s.rule_exec_bytes s.rule_exec_rows s.equi_bytes
        s.event_bytes)
    ( = )

let test_roundtrip_queries name scheme =
  let backend, routing = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.For_testing.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  List.iter
    (fun payload ->
      let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload in
      let before = (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing out).trees in
      let after = (Backend.query restored ~cost:Dpc_testkit.Query_kit.free ~routing out).trees in
      check (Alcotest.list tree_t) (name ^ ": trees for " ^ payload) before after;
      check Alcotest.bool (name ^ ": found something") true (before <> []))
    payloads

let test_roundtrip_storage name scheme =
  let backend, _ = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.For_testing.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  check storage_t (name ^ ": storage preserved") (Backend.total_storage backend)
    (Backend.total_storage restored)

let test_checkpoint_is_stable name scheme =
  let backend, _ = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.For_testing.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  check Alcotest.string (name ^ ": checkpoint of restore is identical") blob
    (Backend.checkpoint restored)

let test_advanced_continues_after_restore () =
  (* The equivalence tables travel with the checkpoint: a packet of an
     already-seen class processed after restore gets existFlag = true and
     adds only a prov delta. *)
  let backend, routing = run_workload Backend.S_advanced payloads in
  let delp = Dpc_apps.Forwarding.delp () in
  let blob = Backend.checkpoint backend in
  let restored = Backend.For_testing.restore Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env blob in
  let topo = topology () in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook restored) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  let before = Backend.total_storage restored in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"d");
  Dpc_engine.Runtime.run runtime;
  let after = Backend.total_storage restored in
  check Alcotest.int "no new chain rows" before.rule_exec_rows after.rule_exec_rows;
  check Alcotest.int "one new prov delta" (before.prov_rows + 1) after.prov_rows;
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"d" in
  check Alcotest.int "new packet queryable via old chain" 1
    (List.length (Backend.query restored ~cost:Dpc_testkit.Query_kit.free ~routing out).trees)

let test_wrong_magic_rejected () =
  let backend, _ = run_workload Backend.S_basic payloads in
  let blob = Backend.checkpoint backend in
  Alcotest.check_raises "exspan magic on basic blob"
    (Dpc_util.Serialize.Corrupt "not an ExSPAN checkpoint") (fun () ->
      ignore
        (Backend.For_testing.restore Backend.S_exspan ~delp:(Dpc_apps.Forwarding.delp ())
           ~env:Dpc_apps.Forwarding.env blob))

let test_truncated_blob_rejected () =
  let backend, _ = run_workload Backend.S_advanced payloads in
  let blob = Backend.checkpoint backend in
  let truncated = String.sub blob 0 (String.length blob / 2) in
  match
    Backend.For_testing.restore Backend.S_advanced ~delp:(Dpc_apps.Forwarding.delp ())
      ~env:Dpc_apps.Forwarding.env truncated
  with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Dpc_util.Serialize.Corrupt _ -> ()
  | exception Invalid_argument _ -> () (* a digest cut mid-way *)

let test_interclass_layout_roundtrips () =
  let backend, routing = run_workload Backend.S_advanced_interclass payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.For_testing.restore Backend.S_advanced_interclass ~delp:(Dpc_apps.Forwarding.delp ())
      ~env:Dpc_apps.Forwarding.env blob
  in
  (* The interclass flag is encoded in the blob, so the restored store uses
     node/link tables and still answers queries. *)
  check Alcotest.string "name" "advanced+interclass" (Backend.hook restored).name;
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"a" in
  check Alcotest.int "query works" 1
    (List.length (Backend.query restored ~cost:Dpc_testkit.Query_kit.free ~routing out).trees)

(* ------------------------------------------------------------------ *)
(* Durable recovery property: a checkpoint cut MID-RUN (forced, on every
   node, while messages are in flight between events) plus the journal
   tail replayed after a later crash answers every query identically to
   the uninterrupted run. Random programs via Delp_gen; the small
   [checkpoint_every] also exercises automatic compaction. *)

let tree_sig tree =
  Dpc_ndlog.Tuple.canonical (Prov_tree.event_of tree) ^ "|" ^ Prov_tree.to_string tree

let world_digests (w : Dpc_testkit.Delp_gen.world) =
  Dpc_testkit.Delp_gen.queryable w.runtime
  |> List.map (fun (out, evid) ->
       let trees =
         (Backend.query w.backend ~cost:Dpc_testkit.Query_kit.free ~routing:w.routing ~evid out).trees
       in
       ( (Dpc_ndlog.Tuple.canonical out, Dpc_util.Sha1.to_hex evid),
         List.sort_uniq compare (List.map tree_sig trees) ))
  |> List.sort compare

let test_midrun_checkpoint name scheme =
  let cache_hits = ref 0 in
  List.iter
    (fun seed ->
      let open Dpc_testkit in
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      let spacing = 0.4 in
      let clean =
        Delp_gen.build_world
          ~transport:(Dpc_net.Transport.direct ~nodes:instance.nodes ())
          instance scheme
      in
      Delp_gen.run_events ~spacing clean instance.events;
      let crashable, control =
        Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:instance.nodes ())
      in
      let world =
        Delp_gen.build_world ~transport:crashable ~reliable:Dpc_net.Reliable.default_config
          instance scheme
      in
      let durable =
        Durable.attach ~backend:world.Delp_gen.backend ~runtime:world.Delp_gen.runtime ~control
          ~config:{ Durable.checkpoint_every = 4; rebase_every = 4 } ()
      in
      let victim = seed mod instance.nodes in
      let tr = Dpc_engine.Runtime.transport world.Delp_gen.runtime in
      Dpc_net.Transport.schedule tr ~delay:1.0 (fun () ->
        for node = 0 to instance.nodes - 1 do
          Durable.checkpoint_now durable node
        done);
      Durable.schedule durable [ (victim, 1.7, 0.8) ];
      Delp_gen.run_events ~spacing world instance.events;
      let stats = Durable.node_stats durable victim in
      check Alcotest.int
        (Printf.sprintf "%s seed %d: victim crashed once" name seed)
        1 stats.crashes;
      check Alcotest.bool
        (Printf.sprintf "%s seed %d: mid-run checkpoint happened" name seed)
        true (stats.checkpoints >= 2);
      let reference = world_digests clean in
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: queries diverged after mid-run checkpoint + replay\n%s" name
          seed instance.description;
      (* Cache-correctness satellite: a memoization cache attached to the
         recovered world must be invisible — a populating pass and an
         all-hit pass both reproduce the clean run's digests. *)
      let cache = Backend.attach_query_cache world.Delp_gen.backend in
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: cache-on digests diverged (populating pass)\n%s" name seed
          instance.description;
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: cache-on digests diverged (hit pass)\n%s" name seed
          instance.description;
      cache_hits := !cache_hits + (Query_cache.stats cache).hits)
    [ 1; 2; 3; 4; 5 ];
  (* Some seeds derive nothing cacheable; across the five the hit pass
     must have served from memory at least once. *)
  check Alcotest.bool (name ^ ": cache served hits") true (!cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Delta-checkpoint drift suite: a base cut plus a chain of deltas,
   replayed onto a fresh backend, must rebuild state BYTE-IDENTICAL to a
   full checkpoint of the original at the same point — for every scheme.
   This is the invariant that lets [Durable] emit O(changes) deltas
   between periodic full rebases without risking state drift. *)

let batches = [ [ "a"; "b" ]; [ "c"; "d" ]; [ "e" ] ]

let test_delta_drift name scheme =
  let topo = topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  Backend.set_dirty_tracking backend true;
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  let run_batch payloads =
    List.iter
      (fun payload ->
        Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
      payloads;
    Dpc_engine.Runtime.run runtime
  in
  (* Cut after every batch: batch 0 seals the full base, later batches
     emit deltas capturing just that batch's changes. *)
  let cuts =
    List.mapi
      (fun i batch ->
        run_batch batch;
        Array.init 3 (fun node ->
          if i = 0 then Backend.checkpoint_node backend node
          else Backend.checkpoint_delta backend node))
      batches
  in
  let replay =
    Backend.make scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env
      ~nodes:3
  in
  List.iteri
    (fun i cut ->
      Array.iteri
        (fun node blob ->
          if i = 0 then Backend.restore_node replay node blob
          else Backend.apply_delta replay node blob)
        cut)
    cuts;
  for node = 0 to 2 do
    let full = Backend.checkpoint_node backend node in
    let rebuilt = Backend.checkpoint_node replay node in
    if not (String.equal full rebuilt) then
      Alcotest.failf "%s node %d: delta chain drifted from full checkpoint (full %dB, rebuilt %dB)"
        name node (String.length full) (String.length rebuilt)
  done

(* ------------------------------------------------------------------ *)
(* Crash-schedule hygiene: a crash landing at the exact instant a node's
   previous outage ends is an event-queue tie (restart and crash race)
   and must be pruned, not admitted. *)

let schedule_t =
  Alcotest.list (Alcotest.triple Alcotest.int (Alcotest.float 1e-9) (Alcotest.float 1e-9))

let test_prune_overlaps () =
  let pruned =
    Durable.For_testing.prune_overlaps ~nodes:2
      [ (0, 1.0, 0.5); (0, 1.5, 0.3); (1, 1.5, 0.3); (0, 1.6, 0.2); (0, 0.0, 0.1) ]
  in
  (* (0, 1.5, _) collides with node 0's restart at exactly 1.0 + 0.5 and
     must go; the same instant on node 1 is fine; time 0.0 is a valid
     crash time (busy_until starts at -inf, not 0). *)
  check schedule_t "exact-restart-instant crash rejected"
    [ (0, 0.0, 0.1); (0, 1.0, 0.5); (1, 1.5, 0.3); (0, 1.6, 0.2) ]
    pruned;
  (match Durable.For_testing.prune_overlaps ~nodes:0 [] with
   | _ -> Alcotest.fail "expected Invalid_argument for nodes = 0"
   | exception Invalid_argument _ -> ());
  match Durable.For_testing.prune_overlaps ~nodes:1 [ (1, 0.5, 0.1) ] with
  | _ -> Alcotest.fail "expected Invalid_argument for out-of-range node"
  | exception Invalid_argument _ -> ()

let test_random_schedule_no_ties () =
  List.iter
    (fun seed ->
      let sched =
        Durable.random_schedule ~seed ~nodes:3 ~count:40 ~horizon:10.0 ~min_down:0.1
          ~max_down:0.5
      in
      let busy = Array.make 3 Float.neg_infinity in
      List.iter
        (fun (node, at, down) ->
          if at <= busy.(node) then
            Alcotest.failf "seed %d: crash at %.6f while node %d busy until %.6f" seed at node
              busy.(node);
          busy.(node) <- at +. down)
        sched)
    [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* Channel sequence advances in the wal *)

(* 200 nodes, so peers take two varint bytes. In memory, no automatic
   cuts: node 0's wal holds exactly what the property writes. *)
let seq_world =
  lazy
    (let nodes = 200 in
     let delp = Dpc_apps.Forwarding.delp () and env = Dpc_apps.Forwarding.env in
     let backend = Backend.make Backend.S_basic ~delp ~env ~nodes in
     let transport, control =
       Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes ())
     in
     let runtime =
       Dpc_engine.Runtime.create ~transport ~reliable:Dpc_net.Reliable.default_config ~delp ~env
         ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
     in
     let durable =
       Durable.attach ~backend ~runtime ~control
         ~config:{ Durable.checkpoint_every = 0; rebase_every = 0 } ()
     in
     (durable, Option.get (Dpc_engine.Runtime.reliability runtime)))

(* With [rebase_every = 3], a base cut is followed by two delta cuts,
   then the next cut rebases: after checkpoint 0 at attach, cuts 1 to 7
   run delta, delta, full, delta, delta, full, delta. Read from
   [node_stats]: a cut is a delta exactly when it raises [delta_cuts]. *)
let test_rebase_every () =
  let delp = Dpc_apps.Forwarding.delp () and env = Dpc_apps.Forwarding.env in
  let backend = Backend.make Backend.S_advanced ~delp ~env ~nodes:3 in
  let transport, control = Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:3 ()) in
  let runtime =
    Dpc_engine.Runtime.create ~transport ~delp ~env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  let durable =
    Durable.attach ~backend ~runtime ~control
      ~config:{ Durable.checkpoint_every = 0; rebase_every = 3 } ()
  in
  let stats () = Durable.node_stats durable 1 in
  check Alcotest.(pair int int) "checkpoint 0 is a base" (1, 0)
    ((stats ()).checkpoints, (stats ()).delta_cuts);
  let kinds =
    List.init 7 (fun _ ->
      let before = (stats ()).delta_cuts in
      Durable.checkpoint_now durable 1;
      if (stats ()).delta_cuts > before then "delta" else "full")
  in
  check Alcotest.(list string) "cut kinds"
    [ "delta"; "delta"; "full"; "delta"; "delta"; "full"; "delta" ]
    kinds;
  check Alcotest.int "every cut counted" 8 (stats ()).checkpoints

(* Reliable reports a sequence advance as plain ints, and Durable writes
   it straight into the owning node's wal. For any peer and seq those
   bytes are [Journal.write]'s for the entry the advance stands for:
   [Next_seq] in the sender's wal, [Expected] in the receiver's. *)
let prop_seq_advance_bytes =
  QCheck.Test.make ~name:"sequence advances write Journal.write's bytes" ~count:200
    QCheck.(pair (int_bound 199) (int_range 1 (1 lsl 40)))
    (fun (peer, seq) ->
      let durable, rel = Lazy.force seq_world in
      (* Wipe node 0's channels and cut its wal, so both advances below
         are fresh and land in an empty wal. *)
      Dpc_net.Reliable.forget rel ~node:0;
      Durable.checkpoint_now durable 0;
      Dpc_net.Reliable.set_next_seq rel ~src:0 ~dst:peer seq;
      Dpc_net.Reliable.set_expected rel ~src:peer ~dst:0 seq;
      Durable.flush_wal durable 0;
      Durable.For_testing.wal durable 0
      = Dpc_util.Serialize.with_scratch (fun w ->
            Dpc_engine.Journal.write w (Dpc_engine.Journal.Next_seq { peer; seq });
            Dpc_engine.Journal.write w (Dpc_engine.Journal.Expected { peer; seq })))

(* The wal's sequence advances come back through Durable's channel
   source: node 1 forwards three packets from 0 to 2 with no cut after
   checkpoint 0, so its channel state after a crash and restart is the
   wal's alone, and recovering journals nothing. *)
let test_channel_state_restart () =
  let delp = Dpc_apps.Forwarding.delp () and env = Dpc_apps.Forwarding.env in
  let backend = Backend.make Backend.S_basic ~delp ~env ~nodes:3 in
  let transport, control = Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:3 ()) in
  let runtime =
    Dpc_engine.Runtime.create ~transport ~reliable:Dpc_net.Reliable.default_config ~delp ~env
      ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1; Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  let durable =
    Durable.attach ~backend ~runtime ~control
      ~config:{ Durable.checkpoint_every = 0; rebase_every = 0 } ()
  in
  List.iter
    (fun payload ->
      Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
    [ "a"; "b"; "c" ];
  Dpc_engine.Runtime.run runtime;
  let rel = Option.get (Dpc_engine.Runtime.reliability runtime) in
  let seqs () = (Dpc_net.Reliable.delivered rel ~src:0 ~dst:1, Dpc_net.Reliable.sent rel ~src:1 ~dst:2) in
  check Alcotest.(pair int int) "three in, three out" (3, 3) (seqs ());
  Durable.flush_wal durable 1;
  let wal = Durable.For_testing.wal durable 1 in
  Durable.For_testing.crash durable 1;
  check Alcotest.(pair int int) "wiped by the crash" (0, 0) (seqs ());
  Durable.For_testing.restart durable 1;
  check Alcotest.(pair int int) "restored from the wal" (3, 3) (seqs ());
  check Alcotest.string "recovery journals nothing" wal (Durable.For_testing.wal durable 1);
  Alcotest.check_raises "a host's record on a runtime with a link"
    (Invalid_argument
       "Durable.set_channel_state: the runtime's Reliable link holds the channel state")
    (fun () ->
      Durable.set_channel_state durable
        ~snapshot:(fun _ -> None)
        ~restore:(fun _ _ -> ())
        ~next_seq:(fun ~node:_ ~peer:_ ~seq:_ -> ())
        ~expected:(fun ~node:_ ~peer:_ ~seq:_ -> ()))

let scheme_cases f =
  List.map
    (fun s ->
      Alcotest.test_case (Backend.scheme_name s) `Quick (fun () ->
        f (Backend.scheme_name s) s))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let () =
  Alcotest.run "dpc_persistence"
    [
      ("round-trip queries", scheme_cases test_roundtrip_queries);
      ("round-trip storage", scheme_cases test_roundtrip_storage);
      ("checkpoint stable", scheme_cases test_checkpoint_is_stable);
      ( "advanced",
        [
          Alcotest.test_case "continues after restore" `Quick
            test_advanced_continues_after_restore;
          Alcotest.test_case "interclass layout" `Quick test_interclass_layout_roundtrips;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "wrong magic" `Quick test_wrong_magic_rejected;
          Alcotest.test_case "truncated blob" `Quick test_truncated_blob_rejected;
        ] );
      ("mid-run checkpoint + replay", scheme_cases test_midrun_checkpoint);
      ("delta checkpoints", scheme_cases test_delta_drift);
      ("rebase rule", [ Alcotest.test_case "every third cut is a base" `Quick test_rebase_every ]);
      ( "crash schedule",
        [
          Alcotest.test_case "prune overlaps" `Quick test_prune_overlaps;
          Alcotest.test_case "random schedule never ties" `Quick test_random_schedule_no_ties;
        ] );
      ("wal bytes", [ QCheck_alcotest.to_alcotest prop_seq_advance_bytes ]);
      ( "channel state",
        [ Alcotest.test_case "restart restores the wal's advances" `Quick test_channel_state_restart ]
      );
    ]
