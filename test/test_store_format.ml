(* Golden store formats: the whole-store checkpoint, one node blob and one
   delta of every scheme, checked in under fixtures/ as the bytes today's
   encoders write for a small deterministic scenario. A refactor of the
   stores must reproduce them byte for byte, and decoding a fixture must
   rebuild a store that encodes to the same bytes again.

   The scenario runs forwarding on the 3-node line 0 - 1 - 2, with a final
   rule that joins a [tag] at the receiver, and dirty tracking on:
   - batch 1: packets "a" and "b" from node 0 to node 2, and "z" from node
     2 to itself; then every node is cut (the node fixture is node 2's
     blob at this cut);
   - a §5.5 slow insert, a second tag at node 2, broadcasts [sig] and wipes
     every node's [htequi];
   - batch 2: "c" from 0 to 2 and "y" from 2 to itself. The receiver's
     rule now fires on both tags, so under either Advanced layout the
     classes of (0, 2) and (2, 2) each gain a second chain root;
   - node 2's delta since the cut is the delta fixture, and the
     whole-store checkpoint after it the store fixture.

   When an encoder changes on purpose, the failing test writes what it
   produced next to the test binary as [<fixture>.actual]; review it and
   copy it over the fixture in the same commit. *)

open Dpc_core

let source =
  {|r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
r2 recv(@L, S, D, DT, T) :- packet(@L, S, D, DT), D == L, tag(@L, T).
|}

let delp () =
  match Dpc_ndlog.Parser.parse_program ~name:"tagged-forwarding" source with
  | Error e -> failwith e
  | Ok p -> (
      match Dpc_ndlog.Delp.validate p with
      | Ok d -> d
      | Error e -> failwith (Dpc_ndlog.Delp.error_to_string e))

let env = Dpc_engine.Env.empty
let tag ~at t = Dpc_ndlog.Tuple.make "tag" [ Dpc_ndlog.Value.Addr at; Dpc_ndlog.Value.Str t ]
let link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

let schemes =
  [
    (Backend.S_exspan, "exspan");
    (Backend.S_basic, "basic");
    (Backend.S_advanced, "advanced");
    (Backend.S_advanced_interclass, "advanced-interclass");
  ]

type blobs = { store : string; node : string; delta : string }

let scenario scheme =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 link;
  Dpc_net.Topology.add_link topo 1 2 link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = delp () in
  let backend = Backend.make scheme ~delp ~env ~nodes:3 in
  Backend.set_dirty_tracking backend true;
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env
      ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2; tag ~at:2 "x" ];
  let batch packets =
    List.iter
      (fun (src, payload) ->
        Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src ~dst:2 ~payload))
      packets;
    Dpc_engine.Runtime.run runtime
  in
  batch [ (0, "a"); (0, "b"); (2, "z") ];
  let cut = Array.init 3 (Backend.checkpoint_node backend) in
  Dpc_engine.Runtime.insert_slow_runtime runtime (tag ~at:2 "y");
  Dpc_engine.Runtime.run runtime;
  batch [ (0, "c"); (2, "y") ];
  let deltas = Array.init 3 (Backend.checkpoint_delta backend) in
  ({ store = Backend.checkpoint backend; node = cut.(2); delta = deltas.(2) }, backend)

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
let test_encoders scheme label () =
  let actual, _ = scenario scheme in
  let s, n, d = file_names label in
  let expected name = if Sys.file_exists (fixture name) then read_fixture name else "" in
  check_bytes
    [ (s, expected s, actual.store); (n, expected n, actual.node); (d, expected d, actual.delta) ]

(* Decoding a fixture and encoding the result gives the same bytes. A delta
   is a change record, not a state, so it is checked the way recovery uses
   it: the node fixture plus the delta must rebuild node 2 exactly as the
   scenario left it. *)
let test_roundtrip scheme label () =
  let f = fixtures label in
  let s, n, d = file_names label in
  let restored = Backend.restore scheme ~delp:(delp ()) ~env f.store in
  let fresh = Backend.make scheme ~delp:(delp ()) ~env ~nodes:3 in
  Backend.restore_node fresh 2 f.node;
  let node = Backend.checkpoint_node fresh 2 in
  Backend.apply_delta fresh 2 f.delta;
  let _, live = scenario scheme in
  check_bytes
    [
      (s ^ ".re-encoded", f.store, Backend.checkpoint restored);
      (n ^ ".re-encoded", f.node, node);
      (d ^ ".replayed", Backend.checkpoint_node live 2, Backend.checkpoint_node fresh 2);
    ]

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
  | `Store -> ignore (Backend.restore scheme ~delp:(delp ()) ~env blob)
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

let formats = [| `Store; `Node; `Delta |]

let prop_decoders_raise_only_corrupt =
  QCheck.Test.make ~name:"store decoders raise only Corrupt" ~count:10_000
    QCheck.(
      quad (int_bound 3) (int_bound 2) (int_bound 3) (pair (int_bound 1_000_000) (int_bound 255)))
    (fun (s, fmt, kind, (pos, arg)) ->
      let scheme, label = List.nth schemes s and format = formats.(fmt) in
      let blob = mutate (fixture_of (fixtures label) format) ~kind ~pos ~arg in
      match decode scheme format blob with
      | () -> true
      | exception Dpc_util.Serialize.Corrupt _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s, mutation %d at %d (%d): %s" label kind pos arg
            (Printexc.to_string e))

(* The defects the property found, each pinned by hand. *)
let test_corrupt_headers () =
  let open Dpc_util.Serialize in
  let corrupt name scheme format blob =
    match decode scheme format blob with
    | () -> Alcotest.failf "%s: decoded" name
    | exception Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
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
    (blob (fun w -> write_string w "dpc-exspan-node-v1") ^ List.nth big_varints 1)

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
      ( "advanced deltas",
        List.map
          (fun label ->
            Alcotest.test_case label `Quick (test_delta_records_equivalence_changes label))
          [ "advanced"; "advanced-interclass" ] );
      ( "decoders",
        [
          Alcotest.test_case "corrupt headers" `Quick test_corrupt_headers;
          QCheck_alcotest.to_alcotest prop_decoders_raise_only_corrupt;
        ] );
    ]
