(* Golden store formats: the whole-store checkpoint, one node blob and one
   delta of every scheme, checked in under fixtures/ as the bytes today's
   encoders write for a small deterministic scenario. A refactor of the
   stores must reproduce them byte for byte, and decoding a fixture must
   rebuild a store that encodes to the same bytes again.

   The scenario runs [Fixture_world]'s forwarding line:
   - batch 1, then every node is cut (the node fixture is node 2's blob
     at this cut);
   - batch 2, whose slow insert wipes every node's [htequi] and whose
     packets grow two Advanced classes to a second chain root;
   - node 2's delta since the cut is the delta fixture, and the
     whole-store checkpoint after it the store fixture.

   The same scenario pins the engine's [Db] formats at node 2, whose Db
   tracks its changes from the start: its [Db.snapshot] at the cut, and
   its [Db.snapshot_delta] after batch 2 and one slow delete (the tag "x"
   leaves node 2's Db after the store blobs are taken, so the delta
   records a removal as well as inserts). The Db does not depend on the
   scheme. [Fixture_world.channels] pins [dpc-rel-v1] at a node that has
   both sent and received, and [wal.bin] a WAL with every journal entry
   kind.

   When an encoder changes on purpose, the failing test writes what it
   produced next to the test binary as [<fixture>.actual]; review it and
   copy it over the fixture in the same commit. *)

open Dpc_core
open Fixture_world

type blobs = { store : string; node : string; delta : string }

(* Node 2's Db at the cut and after the slow delete, and the Db itself. *)
type db_blobs = { db_node : string; db_delta : string; db : Dpc_engine.Db.t }

let feed_string d s = Dpc_net.Wire.Decoder.feed d (Bytes.of_string s) 0 (String.length s)

let scenario scheme =
  let w = Fixture_world.create scheme in
  batch1 w;
  let cut = Array.init 3 (Backend.checkpoint_node w.backend) in
  let db_node = Dpc_engine.Db.snapshot w.db in
  batch2 w;
  let deltas = Array.init 3 (Backend.checkpoint_delta w.backend) in
  let store = Backend.checkpoint w.backend in
  ignore (Dpc_engine.Db.remove w.db (tag ~at:2 "x"));
  ( { store; node = cut.(2); delta = deltas.(2) },
    w.backend,
    { db_node; db_delta = Dpc_engine.Db.snapshot_delta w.db; db = w.db } )

let fixture name = Filename.concat "fixtures" name
let file_names label =
  ("store-" ^ label ^ ".bin", "store-" ^ label ^ "-node.bin", "store-" ^ label ^ "-delta.bin")

let read_fixture name =
  let path = fixture name in
  if not (Sys.file_exists path) then Alcotest.failf "missing fixture %s" path;
  In_channel.with_open_bin path In_channel.input_all

let fixtures =
  let read label =
    let s, n, d = file_names label in
    { store = read_fixture s; node = read_fixture n; delta = read_fixture d }
  in
  let memo = Hashtbl.create 4 in
  fun label ->
    match Hashtbl.find_opt memo label with
    | Some f -> f
    | None ->
        let f = read label in
        Hashtbl.add memo label f;
        f

let db_node_fixture = "db-node.bin"
and db_delta_fixture = "db-delta.bin"
and channels_fixture = "rel-node.bin"

(* Each [(name, expected, actual)] must match; every mismatch leaves its
   [name.actual] behind before the test fails. *)
let check_bytes cases =
  let bad = List.filter (fun (_, expected, actual) -> not (String.equal expected actual)) cases in
  List.iter
    (fun (name, _, actual) ->
      Out_channel.with_open_bin (name ^ ".actual") (fun oc -> output_string oc actual))
    bad;
  match bad with
  | [] -> ()
  | (name, expected, actual) :: _ ->
      Alcotest.failf "%s: encoder wrote %d bytes that differ from the fixture's %d (see %s.actual)"
        name (String.length actual) (String.length expected) name

(* Today's encoders reproduce each fixture. A missing fixture compares as
   empty, so the test writes its [.actual] file too. *)
let expected name = if Sys.file_exists (fixture name) then read_fixture name else ""

let test_encoders scheme label () =
  let actual, _, _ = scenario scheme in
  let s, n, d = file_names label in
  check_bytes
    [ (s, expected s, actual.store); (n, expected n, actual.node); (d, expected d, actual.delta) ]

(* Decoding a fixture and encoding the result gives the same bytes. A delta
   is a change record, not a state, so it is checked the way recovery uses
   it: the node fixture plus the delta must rebuild node 2 exactly as the
   scenario left it. *)
let test_roundtrip scheme label () =
  let f = fixtures label in
  let s, n, d = file_names label in
  let restored = Backend.For_testing.restore scheme ~delp:(delp ()) ~env f.store in
  let fresh = Backend.make scheme ~delp:(delp ()) ~env ~nodes:3 in
  Backend.restore_node fresh 2 f.node;
  let node = Backend.checkpoint_node fresh 2 in
  Backend.apply_delta fresh 2 f.delta;
  let _, live, _ = scenario scheme in
  check_bytes
    [
      (s ^ ".re-encoded", f.store, Backend.checkpoint restored);
      (n ^ ".re-encoded", f.node, node);
      (d ^ ".replayed", Backend.checkpoint_node live 2, Backend.checkpoint_node fresh 2);
    ]

(* The Db blobs are the same under every scheme. *)
let test_db_encoders () =
  List.iter
    (fun (scheme, _) ->
      let _, _, db = scenario scheme in
      check_bytes
        [ (db_node_fixture, expected db_node_fixture, db.db_node);
          (db_delta_fixture, expected db_delta_fixture, db.db_delta) ])
    schemes

let test_db_roundtrip () =
  let node = read_fixture db_node_fixture and delta = read_fixture db_delta_fixture in
  let db = Dpc_engine.Db.create () in
  Dpc_engine.Db.load db node;
  let re_encoded = Dpc_engine.Db.snapshot db in
  Dpc_engine.Db.apply_delta db delta;
  let _, _, live = scenario Backend.S_basic in
  check_bytes
    [ (db_node_fixture ^ ".re-encoded", node, re_encoded);
      (db_delta_fixture ^ ".replayed", Dpc_engine.Db.snapshot live.db, Dpc_engine.Db.snapshot db) ]

let test_channel_encoder () =
  check_bytes
    [ (channels_fixture, expected channels_fixture,
       Dpc_net.Reliable.snapshot (channels ()) ~node:1) ]

let test_channel_roundtrip () =
  let blob = read_fixture channels_fixture in
  let rel = Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:3 ()) in
  Dpc_net.Reliable.restore rel ~node:1 blob;
  check_bytes [ (channels_fixture ^ ".re-encoded", blob, Dpc_net.Reliable.snapshot rel ~node:1) ]

(* ------------------------------------------------------------------ *)
(* The Db writers against a list-based reference: relations by name,
   each relation's tuples sorted by [Tuple.compare], and the delta as
   the effective inserts and removes in order. *)

module S = Dpc_util.Serialize

let reference_canonical db =
  let w = S.writer () in
  S.write_list w
    (fun rel ->
      S.write_string w rel;
      S.write_list w (Dpc_ndlog.Tuple.serialize w) (Dpc_engine.Db.scan db rel))
    (Dpc_engine.Db.For_testing.relations db);
  S.contents w

let reference_delta log =
  let w = S.writer () in
  S.write_list w
    (fun (add, tuple) ->
      S.write_bool w add;
      Dpc_ndlog.Tuple.serialize w tuple)
    (List.rev log);
  S.contents w

(* Three relations over a small universe, so inserts and removes collide;
   the second argument is an [Int] or a [Str], so tuples of one relation
   compare across constructors. *)
let db_tuple (rel, at, v) =
  Dpc_ndlog.Tuple.make
    [| "a"; "b"; "c" |].(rel)
    [ Dpc_ndlog.Value.Addr at;
      (if v mod 2 = 0 then Dpc_ndlog.Value.Int v else Dpc_ndlog.Value.Str (string_of_int v)) ]

(* Op 0-2 inserts, 3 removes, 4 cuts a snapshot and 5 a delta. *)
let prop_db_writers_match_reference =
  QCheck.Test.make ~name:"Db writers equal the list-based reference" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (quad (int_bound 5) (int_bound 2) (int_bound 2) (int_bound 5)))
    (fun ops ->
      let db = Dpc_engine.Db.create () in
      Dpc_engine.Db.set_dirty_tracking db true;
      let log = ref [] in
      let same what expected actual =
        String.equal expected actual
        || QCheck.Test.fail_reportf "%s: %d bytes, reference %d" what (String.length actual)
             (String.length expected)
      in
      List.for_all
        (fun (op, rel, at, v) ->
          let tuple = db_tuple (rel, at, v) in
          match op with
          | 0 | 1 | 2 ->
              if Dpc_engine.Db.insert db tuple then log := (true, tuple) :: !log;
              true
          | 3 ->
              if Dpc_engine.Db.remove db tuple then log := (false, tuple) :: !log;
              true
          | 4 ->
              let expected = reference_canonical db in
              log := [];
              same "snapshot" expected (Dpc_engine.Db.snapshot db)
          | _ ->
              let expected = reference_delta !log in
              log := [];
              same "delta" expected (Dpc_engine.Db.snapshot_delta db))
        ops
      && same "canonical" (reference_canonical db) (Dpc_engine.Db.For_testing.canonical db))

(* The Advanced delta fixtures record what that format exists for: the
   wipe of [htequi] by the slow insert, and hmap classes whose ref lists
   grew. The classes of (0, 2) and (2, 2) each hold one chain root at the
   cut (the node fixture) and two in the delta. Both blobs put the same
   sections in the same order up to the hmap, except for the delta's wipe
   flag. *)
let hmap_root_counts blob ~delta =
  let open Dpc_util.Serialize in
  let r = reader blob in
  ignore (read_string r);
  ignore (read_bool r);
  ignore (read_list r (fun () -> Rows.read_prov_row r));
  ignore (read_list r (fun () -> Rows.read_rule_exec_row r));
  ignore (read_list r (fun () -> Rows.read_rule_exec_row r));
  ignore (read_list r (fun () -> Rows.read_link_row r));
  let wiped = delta && read_bool r in
  ignore (read_list r (fun () -> read_string r));
  let roots =
    read_list r (fun () ->
      ignore (read_string r);
      List.length (read_list r (fun () -> ignore (read_varint r); read_string r)))
  in
  (wiped, roots)

let test_delta_records_equivalence_changes label () =
  let f = fixtures label in
  Alcotest.(check (pair bool (list int))) "one root per class at the cut" (false, [ 1; 1 ])
    (hmap_root_counts f.node ~delta:false);
  Alcotest.(check (pair bool (list int))) "wiped, and both classes grown" (true, [ 2; 2 ])
    (hmap_root_counts f.delta ~delta:true)

(* ------------------------------------------------------------------ *)
(* Decoders fail only with [Serialize.Corrupt]. *)

let decode scheme format blob =
  let f = fixtures (List.assoc scheme schemes) in
  match format with
  | `Store -> ignore (Backend.For_testing.restore scheme ~delp:(delp ()) ~env blob)
  | `Node -> Backend.restore_node (Backend.make scheme ~delp:(delp ()) ~env ~nodes:3) 2 blob
  | `Delta ->
      let b = Backend.make scheme ~delp:(delp ()) ~env ~nodes:3 in
      Backend.restore_node b 2 f.node;
      Backend.apply_delta b 2 blob

let fixture_of (f : blobs) = function `Store -> f.store | `Node -> f.node | `Delta -> f.delta

(* Over-long, negative and oversized varints: ten bytes that decode to -1
   if read naively, max_int, and a count larger than any fixture could
   hold. *)
let big_varints =
  [ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"; "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"; "\x88\x27" ]

(* [kind] 0 truncates at [pos]; 1 flips bit [arg mod 8] of the byte at
   [pos]; 2 sets it to 0xff; 3 replaces it with one of [big_varints]. *)
let mutate blob ~kind ~pos ~arg =
  let len = String.length blob in
  let pos = pos mod len in
  match kind with
  | 0 -> String.sub blob 0 pos
  | 1 | 2 ->
      let b = Bytes.of_string blob in
      let c = Char.code blob.[pos] in
      Bytes.set b pos (Char.chr (if kind = 1 then c lxor (1 lsl (arg mod 8)) else 0xff));
      Bytes.to_string b
  | _ ->
      String.sub blob 0 pos
      ^ List.nth big_varints (arg mod List.length big_varints)
      ^ String.sub blob (pos + 1) (len - pos - 1)

(* A WAL with every entry kind: arrivals with and without [eqkey] and
   [prev], a [sig] of each op, and payloads over the 64-byte interning
   boundary. fixtures/wal.bin holds [Journal.write]'s bytes for it. *)
let wal_fixture = "wal.bin"

let journal_entries =
  let digest = Dpc_util.Sha1.digest_string in
  let packet = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"a" in
  let big = Dpc_apps.Forwarding.packet ~src:1 ~dst:2 ~payload:(String.make 100 'p') in
  let meta ?eqkey ?prev evid =
    { Dpc_engine.Prov_hook.evid = digest evid; exist_flag = Option.is_some eqkey;
      eqkey = Option.map digest eqkey;
      prev =
        (match prev with
        | None -> No_back
        | Some (node, r) -> Back { node; rid = digest r }) }
  in
  let open Dpc_engine.Journal in
  [
    Input packet;
    Next_seq { peer = 1; seq = 1 };
    Arrival { event = packet; meta = meta "e" ~eqkey:"k" ~prev:(0, "r") };
    Arrival { event = packet; meta = meta "e" };
    Arrival { event = big; meta = meta "f" ~eqkey:"k" };
    Arrival { event = big; meta = meta "f" ~prev:(300, "s") };
    Next_seq { peer = 2; seq = 4 };
    Expected { peer = 0; seq = 3 };
    Expected { peer = 129; seq = 100_000 };
    Sig { op = Dpc_engine.Prov_hook.Slow_insert; tuple = tag ~at:2 "y" };
    Sig { op = Dpc_engine.Prov_hook.Slow_delete; tuple = tag ~at:2 (String.make 65 't') };
    Slow_insert (tag ~at:2 "y");
    Slow_delete (tag ~at:2 "x");
    Load (tag ~at:2 "x");
    Input big;
  ]

let journal =
  let w = S.writer () in
  List.iter (Dpc_engine.Journal.write w) journal_entries;
  S.contents w

let meta_equal (a : Dpc_engine.Prov_hook.meta) (b : Dpc_engine.Prov_hook.meta) =
  let sha = Dpc_util.Sha1.equal in
  sha a.evid b.evid && a.exist_flag = b.exist_flag
  && Option.equal sha a.eqkey b.eqkey
  && Dpc_engine.Prov_hook.compare_back a.prev b.prev = 0

let entry_equal (a : Dpc_engine.Journal.entry) (b : Dpc_engine.Journal.entry) =
  let tuple = Dpc_ndlog.Tuple.equal in
  match (a, b) with
  | Input x, Input y | Slow_insert x, Slow_insert y | Slow_delete x, Slow_delete y | Load x, Load y
    ->
      tuple x y
  | Arrival x, Arrival y -> tuple x.event y.event && meta_equal x.meta y.meta
  | Sig x, Sig y -> x.op = y.op && tuple x.tuple y.tuple
  | Next_seq x, Next_seq y -> x.peer = y.peer && x.seq = y.seq
  | Expected x, Expected y -> x.peer = y.peer && x.seq = y.seq
  | (Input _ | Arrival _ | Sig _ | Slow_insert _ | Slow_delete _ | Load _ | Next_seq _
    | Expected _), _ ->
      false

let test_wal_encoder () = check_bytes [ (wal_fixture, expected wal_fixture, journal) ]

let test_wal_decoder () =
  let r = S.reader (read_fixture wal_fixture) in
  let rec entries acc = if S.at_end r then List.rev acc else entries (Dpc_engine.Journal.read r :: acc) in
  let decoded = entries [] in
  Alcotest.check Alcotest.int "entries" (List.length journal_entries) (List.length decoded);
  List.iteri
    (fun i (want, got) ->
      if not (entry_equal want got) then Alcotest.failf "entry %d decodes to a different entry" i)
    (List.combine journal_entries decoded)

let decode_journal blob =
  let r = S.reader blob in
  while not (S.at_end r) do
    ignore (Dpc_engine.Journal.read r)
  done

(* [f dir] in a fresh directory, removed afterwards with what [f] left
   in it. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "dpc-fuzz-" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let ctrl_request =
  Dpc_proc.Ctrl.Load
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1; Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]

let ctrl_reply =
  Dpc_proc.Ctrl.Status_r
    { node = 1; recovered = true; unacked = 3; data_sent = 300; data_received = 200; fired = 1000;
      outputs = 17; wal_entries = 64; outbox_bytes = 4096 }

(* The process tier's decoders: control messages, a stream of frames, an
   outbox ledger loaded from disk, the manifest and a cut, and a socket's
   channel snapshot. *)
let process_targets =
  let module Durable = Dpc_core.Durable in
  let module Wire = Dpc_net.Wire in
  [
    ("ctrl request", (fun () -> Dpc_proc.Ctrl.encode_request ctrl_request),
     fun blob -> ignore (Dpc_proc.Ctrl.decode_request blob));
    ("ctrl reply", (fun () -> Dpc_proc.Ctrl.encode_reply ctrl_reply),
     fun blob -> ignore (Dpc_proc.Ctrl.decode_reply blob));
    ("wire frames", (fun () -> read_fixture "wire-frames.bin"),
     fun blob ->
       let d = Wire.Decoder.create () in
       feed_string d blob;
       while Wire.Decoder.next d <> None do () done);
    ("outbox", (fun () -> read_fixture "outbox.bin"),
     fun blob ->
       in_temp_dir (fun dir ->
         Out_channel.with_open_bin (Filename.concat dir "outbox.log") (fun oc ->
           output_string oc blob);
         Durable.Outbox.For_testing.close (Durable.Outbox.For_testing.open_ ~dir)));
    ("manifest", (fun () -> read_fixture "manifest.bin"),
     fun blob -> ignore (Durable.For_testing.decode_manifest blob));
    ("cut", (fun () -> read_fixture "cut-delta.bin"), fun blob -> ignore (Durable.For_testing.decode_cut blob));
    ("socket channels", (fun () -> read_fixture "chan.bin"),
     fun blob ->
       in_temp_dir (fun dir ->
         let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
         let socket = Dpc_net.Socket.create ~nodes:3 ~local:0 ~addr_of () in
         Fun.protect
           ~finally:(fun () -> Dpc_net.Socket.close socket)
           (fun () -> Dpc_net.Socket.restore_channels socket blob)));
  ]

(* Every decoder the property feeds: a label, the valid input it mutates
   and the decode. *)
let targets =
  Array.of_list
    (List.concat_map
       (fun (scheme, label) ->
         List.map
           (fun (format, name) ->
             (label ^ " " ^ name, (fun () -> fixture_of (fixtures label) format), decode scheme format))
           [ (`Store, "store"); (`Node, "node"); (`Delta, "delta") ])
       schemes
    @ [
        ("db node", (fun () -> read_fixture db_node_fixture),
         fun blob -> Dpc_engine.Db.load (Dpc_engine.Db.create ()) blob);
        ("db delta", (fun () -> read_fixture db_delta_fixture),
         fun blob ->
           let db = Dpc_engine.Db.create () in
           Dpc_engine.Db.load db (read_fixture db_node_fixture);
           Dpc_engine.Db.apply_delta db blob);
        ("channels", (fun () -> read_fixture channels_fixture),
         fun blob ->
           Dpc_net.Reliable.restore
             (Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:3 ()))
             ~node:1 blob);
        ("journal", (fun () -> read_fixture wal_fixture), decode_journal);
      ]
    @ process_targets)

let prop_decoders_raise_only_corrupt =
  QCheck.Test.make ~name:"store decoders raise only Corrupt" ~count:15_000
    QCheck.(
      quad (int_bound (Array.length targets - 1)) (int_bound 3) (int_bound 1_000_000)
        (int_bound 255))
    (fun (t, kind, pos, arg) ->
      let label, valid, decode = targets.(t) in
      match decode (mutate (valid ()) ~kind ~pos ~arg) with
      | () -> true
      | exception Dpc_util.Serialize.Corrupt _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s, mutation %d at %d (%d): %s" label kind pos arg
            (Printexc.to_string e))

(* The defects the property found, each pinned by hand. *)
let test_corrupt_headers () =
  let open Dpc_util.Serialize in
  let corrupt_with name decode blob =
    match decode blob with
    | () -> Alcotest.failf "%s: decoded" name
    | exception Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  let corrupt name scheme format blob = corrupt_with name (decode scheme format) blob in
  let blob f =
    let w = writer () in
    f w;
    contents w
  in
  let basic_store ~nodes body =
    blob (fun w ->
      write_string w "dpc-basic-v1";
      write_varint w nodes;
      body w)
  in
  let empty_lists n w = for _ = 1 to n do write_varint w 0 done in
  corrupt "no nodes" Backend.S_basic `Store (basic_store ~nodes:0 (empty_lists 2));
  corrupt "more nodes than bytes" Backend.S_basic `Store (basic_store ~nodes:1000 (empty_lists 4));
  let tuple = tag ~at:0 "x" in
  corrupt "side entry past the cluster" Backend.S_basic `Store
    (basic_store ~nodes:1 (fun w ->
       (* node 0's empty prov and ruleExec lists, then a slow tuple at
          node 7 *)
       empty_lists 2 w;
       write_list w
         (fun () ->
           write_varint w 7;
           write_string w (String.make 20 'k');
           Dpc_ndlog.Tuple.serialize w tuple)
         [ () ];
       write_varint w 0));
  corrupt "short digest" Backend.S_exspan `Node
    (blob (fun w ->
       (* one prov row, at node 2, whose vid is 19 bytes *)
       write_string w "dpc-exspan-node-v1";
       write_varint w 1;
       write_varint w 2;
       write_string w (String.make 19 'v')));
  corrupt "negative count" Backend.S_exspan `Node
    (blob (fun w -> write_string w "dpc-exspan-node-v1") ^ List.hd big_varints);
  corrupt "huge count" Backend.S_exspan `Node
    (blob (fun w -> write_string w "dpc-exspan-node-v1") ^ List.nth big_varints 1);
  corrupt_with "channel peer past the cluster"
    (Dpc_net.Reliable.restore (Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:3 ())) ~node:1)
    (blob (fun w ->
       write_string w "dpc-rel-v1";
       write_list w (fun (peer, seq) -> write_varint w peer; write_varint w seq) [ (7, 1) ];
       write_varint w 0));
  corrupt_with "short digest in a journal entry" decode_journal
    (blob (fun w ->
       (* an arrival whose evid is 19 bytes *)
       write_varint w 1;
       Dpc_ndlog.Tuple.serialize w (tag ~at:2 "x");
       write_string w (String.make 19 'e')))

(* Each decoder reads its blob to the end: a fixture followed by one junk
   byte raises [Corrupt]. The channel decoder finds the junk before it
   applies anything. *)
let test_trailing_byte () =
  let rejects name decode =
    match decode (read_fixture name ^ "\x00") with
    | () -> Alcotest.failf "%s with a trailing byte decoded" name
    | exception Dpc_util.Serialize.Corrupt _ -> ()
  in
  List.iter
    (fun (scheme, label) ->
      let store, _, _ = file_names label in
      rejects store (decode scheme `Store))
    schemes;
  rejects db_node_fixture (Dpc_engine.Db.load (Dpc_engine.Db.create ()));
  rejects db_delta_fixture (fun blob ->
    let db = Dpc_engine.Db.create () in
    Dpc_engine.Db.load db (read_fixture db_node_fixture);
    Dpc_engine.Db.apply_delta db blob);
  let rel = Dpc_net.Reliable.wrap (Dpc_net.Transport.direct ~nodes:3 ()) in
  let before = Dpc_net.Reliable.snapshot rel ~node:1 in
  rejects channels_fixture (Dpc_net.Reliable.restore rel ~node:1);
  Alcotest.check Alcotest.string "nothing applied" before (Dpc_net.Reliable.snapshot rel ~node:1)

(* ------------------------------------------------------------------ *)
(* In-place digests: [Backend.digest_node] and [Db.digest] hash the bytes
   the node blob and [Db.For_testing.canonical] writers leave in the scratch arena,
   read through Serialize's 4,096-byte chunk instead of copied out. Each
   must equal the SHA-1 of the bytes the materializing call returns, on
   either side of a chunk boundary and from inside a call that holds the
   arena. *)

let check = Alcotest.check
let chunk = 4096
let sha1_hex s = Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string s)

let test_digest_scratch () =
  List.iter
    (fun len ->
      let write w = Dpc_util.Serialize.write_string w (String.make len 'd') in
      check Alcotest.string
        (Printf.sprintf "a %d-byte string" len)
        (sha1_hex (Dpc_util.Serialize.with_scratch write))
        (Dpc_util.Sha1.to_hex (Dpc_util.Serialize.digest_scratch write)))
    (* Blobs of 1, 64, 4,095, 4,096, 4,097, 8,192 and 10,003 bytes. *)
    [ 0; 63; 4093; 4094; 4095; 8190; 10000 ]

let check_node_digest what backend node =
  let digest = Backend.digest_node backend node in
  check Alcotest.string what (sha1_hex (Backend.checkpoint_node backend node)) digest

let check_db_digest what db =
  check Alcotest.string what (sha1_hex (Dpc_engine.Db.For_testing.canonical db)) (Dpc_engine.Db.digest db)

(* A world that took one packet from node 0 to node 2 with a [len]-byte
   payload. Node 0 keeps the packet under every scheme, so its blob grows
   a byte a payload byte, and so does node 2's Db with the [recv] it
   keeps. *)
let one_packet scheme len =
  let w = Fixture_world.create scheme in
  inject w [ (0, String.make len 'q') ];
  w

(* The payload length at which [size] of [one_packet] is [target] bytes:
   [size] grows with the payload, by a byte a byte once its length takes
   two varint bytes. *)
let payload_for scheme size target =
  let size_at len = size (one_packet scheme len) in
  let rec go len =
    let n = size_at len in
    if n = target then len
    else if n < target then go (len + target - n)
    else if size_at (len - 1) < target then Alcotest.failf "no payload gives %d bytes" target
    else go (len - 1)
  in
  go 1

let test_in_place_digests scheme () =
  let w = Fixture_world.create scheme in
  check_node_digest "a node with no rows" w.backend 1;
  check_db_digest "an empty Db" (Dpc_engine.Db.create ());
  batch1 w;
  check_node_digest "a blob shorter than a chunk" w.backend 2;
  check_db_digest "a Db shorter than a chunk" w.db;
  let node_size (w : Fixture_world.t) = String.length (Backend.checkpoint_node w.backend 0) in
  let one_chunk = one_packet scheme (payload_for scheme node_size chunk) in
  check Alcotest.int "the blob is one chunk" chunk (node_size one_chunk);
  check_node_digest "a blob of one chunk" one_chunk.backend 0;
  let db_size (w : Fixture_world.t) = String.length (Dpc_engine.Db.For_testing.canonical w.db) in
  let one_chunk_db = one_packet scheme (payload_for scheme db_size chunk) in
  check Alcotest.int "the Db is one chunk" chunk (db_size one_chunk_db);
  check_db_digest "a Db of one chunk" one_chunk_db.db;
  let long = one_packet scheme ((2 * chunk) + 100) in
  check_node_digest "a blob of over two chunks" long.backend 0;
  check_db_digest "a Db of over two chunks" long.db;
  (* With the arena held by an outer writer: the digests hash writers of
     their own, and leave the outer blob as it was. *)
  let outer =
    Dpc_util.Serialize.with_scratch (fun wr ->
      Dpc_util.Serialize.write_string wr "outer";
      check_node_digest "a blob, nested" long.backend 0;
      check_db_digest "a Db, nested" long.db;
      Dpc_util.Serialize.write_string wr "after")
  in
  check Alcotest.string "the outer blob" "\005outer\005after" outer

let () =
  Alcotest.run "dpc_store_format"
    [
      ( "fixtures",
        List.concat_map
          (fun (scheme, label) ->
            [
              Alcotest.test_case (label ^ " encoders") `Quick (test_encoders scheme label);
              Alcotest.test_case (label ^ " round trip") `Quick (test_roundtrip scheme label);
            ])
          schemes );
      ( "db and channels",
        [
          Alcotest.test_case "db encoders" `Quick test_db_encoders;
          Alcotest.test_case "db round trip" `Quick test_db_roundtrip;
          Alcotest.test_case "channel encoder" `Quick test_channel_encoder;
          Alcotest.test_case "channel round trip" `Quick test_channel_roundtrip;
          QCheck_alcotest.to_alcotest prop_db_writers_match_reference;
          Alcotest.test_case "wal encoder" `Quick test_wal_encoder;
          Alcotest.test_case "wal decoder" `Quick test_wal_decoder;
        ] );
      ( "advanced deltas",
        List.map
          (fun label ->
            Alcotest.test_case label `Quick (test_delta_records_equivalence_changes label))
          [ "advanced"; "advanced-interclass" ] );
      ( "in-place digests",
        Alcotest.test_case "digest_scratch at chunk boundaries" `Quick test_digest_scratch
        :: List.map
             (fun (scheme, label) -> Alcotest.test_case label `Quick (test_in_place_digests scheme))
             schemes );
      ( "decoders",
        [
          Alcotest.test_case "corrupt headers" `Quick test_corrupt_headers;
          Alcotest.test_case "trailing byte rejected" `Quick test_trailing_byte;
          QCheck_alcotest.to_alcotest prop_decoders_raise_only_corrupt;
        ] );
    ]
