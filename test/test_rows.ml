(* Unit tests for the dpc_core storage building blocks: row serialization,
   the deduplicating multi-map, size accounting, side stores, and the
   storage record arithmetic. *)

open Dpc_core

let check = Alcotest.check

let d1 = Dpc_util.Sha1.digest_string "one"
let d2 = Dpc_util.Sha1.digest_string "two"
let d3 = Dpc_util.Sha1.digest_string "three"

let prov_row = { Rows.loc = 3; vid = d1; rid = Some (1, d2); evid = Some d3 }
let base_row = { Rows.loc = 0; vid = d1; rid = None; evid = None }

let exec_row =
  { Rows.rloc = 2; rid = d1; rule = "r1"; vids = [ d2; d3 ]; next = Some (1, d2) }

let link_row = { Rows.link_rloc = 2; link_rid = d1; link_next = None }

(* ------------------------------------------------------------------ *)
(* Row serialization *)

let roundtrip write read v =
  let w = Dpc_util.Serialize.writer () in
  write w v;
  let r = Dpc_util.Serialize.reader (Dpc_util.Serialize.contents w) in
  let v' = read r in
  check Alcotest.bool "consumed everything" true (Dpc_util.Serialize.at_end r);
  v'

let test_prov_row_roundtrip () =
  check Alcotest.bool "full row" true
    (roundtrip Rows.write_prov_row Rows.read_prov_row prov_row = prov_row);
  check Alcotest.bool "base row" true
    (roundtrip Rows.write_prov_row Rows.read_prov_row base_row = base_row)

let test_exec_row_roundtrip () =
  check Alcotest.bool "exec row" true
    (roundtrip Rows.write_rule_exec_row Rows.read_rule_exec_row exec_row = exec_row);
  let leaf = { exec_row with Rows.next = None; vids = [] } in
  check Alcotest.bool "leaf row" true
    (roundtrip Rows.write_rule_exec_row Rows.read_rule_exec_row leaf = leaf)

let test_link_row_roundtrip () =
  check Alcotest.bool "link row" true
    (roundtrip Rows.write_link_row Rows.read_link_row link_row = link_row)

(* ------------------------------------------------------------------ *)
(* Size accounting *)

let test_row_bytes_reflect_contents () =
  (* An evid column costs bytes; more vids cost more. *)
  let without = Rows.prov_row_bytes ~with_evid:false prov_row in
  let with_evid = Rows.prov_row_bytes ~with_evid:true prov_row in
  check Alcotest.bool "evid costs ~21 bytes" true (with_evid - without >= 20);
  let small = { exec_row with Rows.vids = [ d2 ] } in
  check Alcotest.bool "vids cost bytes" true
    (Rows.rule_exec_row_bytes ~with_next:true exec_row
    > Rows.rule_exec_row_bytes ~with_next:true small);
  check Alcotest.bool "next column costs bytes" true
    (Rows.rule_exec_row_bytes ~with_next:true exec_row
    > Rows.rule_exec_row_bytes ~with_next:false exec_row)

(* The analytic size formulas must agree byte-for-byte with a real
   serialization — Db and the store tables charge rows with the formulas,
   and persistence writes the rows with the writers. *)
let test_row_bytes_match_serialization () =
  let open Dpc_util.Serialize in
  let measure write = let w = writer () in write w; size w in
  let wr_digest w d = write_string w (Dpc_util.Sha1.to_raw d) in
  let wr_ref w = function
    | None -> write_bool w false
    | Some (node, d) ->
        write_bool w true;
        write_varint w node;
        wr_digest w d
  in
  let rows = [ prov_row; base_row; { prov_row with Rows.loc = 200; rid = Some (150, d3) } ] in
  List.iter
    (fun (r : Rows.prov_row) ->
      List.iter
        (fun with_evid ->
          let reference =
            measure (fun w ->
              write_varint w r.loc;
              wr_digest w r.vid;
              wr_ref w r.rid;
              if with_evid then
                match r.evid with
                | None -> write_bool w false
                | Some e ->
                    write_bool w true;
                    wr_digest w e)
          in
          check Alcotest.int
            (Printf.sprintf "prov row, with_evid=%b" with_evid)
            reference
            (Rows.prov_row_bytes ~with_evid r))
        [ false; true ])
    rows;
  let execs = [ exec_row; { exec_row with Rows.vids = []; next = None; rule = "longer-rule-name" } ] in
  List.iter
    (fun (r : Rows.rule_exec_row) ->
      List.iter
        (fun with_next ->
          let reference =
            measure (fun w ->
              write_varint w r.rloc;
              wr_digest w r.rid;
              write_string w r.rule;
              write_list w (wr_digest w) r.vids;
              if with_next then wr_ref w r.next)
          in
          check Alcotest.int
            (Printf.sprintf "exec row, with_next=%b" with_next)
            reference
            (Rows.rule_exec_row_bytes ~with_next r))
        [ false; true ])
    execs;
  List.iter
    (fun (r : Rows.link_row) ->
      let reference =
        measure (fun w ->
          write_varint w r.link_rloc;
          wr_digest w r.link_rid;
          wr_ref w r.link_next)
      in
      check Alcotest.int "link row" reference (Rows.link_row_bytes r))
    [ link_row; { link_row with Rows.link_next = Some (90, d2) } ]

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_dedup_and_multimap () =
  let t = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) () in
  check Alcotest.bool "first add" true (Rows.Table.add t ~key:"k" prov_row);
  check Alcotest.bool "duplicate row" false (Rows.Table.add t ~key:"k" prov_row);
  check Alcotest.bool "distinct row, same key" true (Rows.Table.add t ~key:"k" base_row);
  check Alcotest.int "two rows" 2 (Rows.Table.rows t);
  let rows_of key =
    let seen = ref [] in
    Rows.Table.iter_key t key (fun r -> seen := r :: !seen);
    List.rev !seen
  in
  check Alcotest.int "the key holds both" 2 (Rows.Table.count t "k");
  check Alcotest.bool "order preserved" true (rows_of "k" = [ prov_row; base_row ]);
  check Alcotest.int "unknown key" 0 (Rows.Table.count t "missing");
  check Alcotest.bool "nothing under an unknown key" true (rows_of "missing" = []);
  (* A third row goes after the second, and a duplicate of the second is
     rejected too. *)
  let third = { base_row with Rows.loc = base_row.loc + 1 } in
  check Alcotest.bool "duplicate later row" false (Rows.Table.add t ~key:"k" base_row);
  check Alcotest.bool "third row" true (Rows.Table.add t ~key:"k" third);
  check Alcotest.bool "oldest first" true (rows_of "k" = [ prov_row; base_row; third ]);
  check Alcotest.bool "concat_map, oldest first" true
    (Rows.Table.concat_map t "k" (fun r -> [ r; r ])
    = [ prov_row; prov_row; base_row; base_row; third; third ]);
  check Alcotest.bool "exists" true (Rows.Table.exists t "k" (fun r -> r = third));
  check Alcotest.bool "exists, unknown key" false (Rows.Table.exists t "missing" (fun _ -> true));
  let raises key = match Rows.Table.only t key with _ -> false | exception Not_found -> true in
  check Alcotest.bool "only: several rows" true (raises "k");
  check Alcotest.bool "only: no row" true (raises "missing");
  ignore (Rows.Table.add t ~key:"j" prov_row);
  check Alcotest.bool "only: one row" true (Rows.Table.only t "j" = prov_row)

(* Past many growths of the bucket array, every key still finds its rows,
   oldest first, and their count. *)
let test_table_growth () =
  let t = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) () in
  let row key i = { prov_row with Rows.loc = (key * 10) + i } in
  let keys = 2000 in
  for i = 0 to 2 do
    for key = 0 to keys - 1 do
      if key mod 3 >= i then ignore (Rows.Table.add t ~key:(string_of_int key) (row key i))
    done
  done;
  check Alcotest.int "rows"
    (List.fold_left ( + ) 0 (List.init keys (fun key -> (key mod 3) + 1)))
    (Rows.Table.rows t);
  for key = 0 to keys - 1 do
    let seen = ref [] in
    Rows.Table.iter_key t (string_of_int key) (fun r -> seen := r :: !seen);
    let want = List.init ((key mod 3) + 1) (row key) in
    if List.rev !seen <> want then Alcotest.failf "key %d: rows out of order or lost" key
  done

let test_table_byte_counter () =
  let t = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) () in
  ignore (Rows.Table.add t ~key:"a" prov_row);
  let one = Rows.Table.bytes t in
  ignore (Rows.Table.add t ~key:"a" prov_row);
  check Alcotest.int "duplicates do not count" one (Rows.Table.bytes t);
  ignore (Rows.Table.add t ~key:"b" base_row);
  check Alcotest.int "sum of row sizes"
    (one + Rows.prov_row_bytes ~with_evid:true base_row)
    (Rows.Table.bytes t);
  Rows.Table.clear t;
  check Alcotest.int "clear resets rows" 0 (Rows.Table.rows t);
  check Alcotest.int "clear resets bytes" 0 (Rows.Table.bytes t)

let test_table_iter_visits_all () =
  let t = Rows.Table.create ~row_bytes:(Rows.prov_row_bytes ~with_evid:true) () in
  ignore (Rows.Table.add t ~key:"a" prov_row);
  ignore (Rows.Table.add t ~key:"b" base_row);
  let n = ref 0 in
  Rows.Table.iter t (fun _ _ -> incr n);
  check Alcotest.int "two visits" 2 !n;
  (* A key's further rows are visited too, each with its key. *)
  ignore (Rows.Table.add t ~key:"a" base_row);
  let seen = ref [] in
  Rows.Table.iter t (fun k r -> seen := (k, r) :: !seen);
  check Alcotest.bool "three visits" true
    (List.sort compare !seen
    = List.sort compare [ ("a", prov_row); ("a", base_row); ("b", base_row) ])

(* ------------------------------------------------------------------ *)
(* Side_store *)

let tuple = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:0

let test_side_store_basics () =
  let s = Side_store.create () in
  Side_store.put s ~key:d1 tuple;
  Side_store.put s ~key:d1 tuple;
  check Alcotest.int "idempotent put" 1 (Side_store.count s);
  check Alcotest.bool "get hit" true (Side_store.get s ~key:d1 <> None);
  check Alcotest.bool "get miss (other key)" true (Side_store.get s ~key:d2 = None);
  check Alcotest.int "bytes = digest + tuple" (20 + Dpc_ndlog.Tuple.wire_size tuple)
    (Side_store.bytes s);
  check Alcotest.bool "fresh store independent" true
    (Side_store.get (Side_store.create ()) ~key:d1 = None)

let test_side_store_iter () =
  let s = Side_store.create () in
  Side_store.put s ~key:d1 tuple;
  Side_store.put s ~key:d2 tuple;
  let visited = ref [] in
  Side_store.iter s (fun ~key _ -> visited := Dpc_util.Sha1.to_hex key :: !visited);
  check Alcotest.int "two entries" 2 (List.length !visited);
  check Alcotest.bool "keys correct" true
    (List.mem (Dpc_util.Sha1.to_hex d1) !visited && List.mem (Dpc_util.Sha1.to_hex d2) !visited)

(* ------------------------------------------------------------------ *)
(* Storage record *)

let test_storage_arithmetic () =
  let a =
    { Rows.prov_bytes = 1; rule_exec_bytes = 2; equi_bytes = 3; event_bytes = 4;
      prov_rows = 5; rule_exec_rows = 6 }
  in
  let two = Rows.add_storage a a in
  check Alcotest.int "prov" 2 two.prov_bytes;
  check Alcotest.int "rows" 12 two.rule_exec_rows;
  check Alcotest.int "paper metric" 3 (Rows.provenance_bytes a);
  check Alcotest.int "identity" 1 (Rows.add_storage Rows.empty_storage a).prov_bytes

let test_show_helpers () =
  check Alcotest.string "null ref" "NULL" (Rows.show_ref None);
  check Alcotest.bool "ref with node" true
    (String.length (Rows.show_ref (Some (3, d1))) > 3);
  check Alcotest.int "abbrev is 8 chars" 8 (String.length (Rows.show_digest d1))

let prop_prov_row_roundtrip =
  let digest_gen = QCheck.Gen.map Dpc_util.Sha1.digest_string QCheck.Gen.string in
  let row_gen =
    QCheck.Gen.(
      map
        (fun (loc, v, has_rid, rloc, has_evid) ->
          {
            Rows.loc;
            vid = v;
            rid = (if has_rid then Some (rloc, v) else None);
            evid = (if has_evid then Some v else None);
          })
        (tup5 (int_bound 500) digest_gen bool (int_bound 500) bool))
  in
  QCheck.Test.make ~name:"prov row round-trip" ~count:200 (QCheck.make row_gen) (fun row ->
    roundtrip Rows.write_prov_row Rows.read_prov_row row = row)

let prop_exec_row_roundtrip =
  let digest_gen = QCheck.Gen.map Dpc_util.Sha1.digest_string QCheck.Gen.string in
  let row_gen =
    QCheck.Gen.(
      map
        (fun (rloc, rid, rule, vids, has_next) ->
          { Rows.rloc; rid; rule; vids; next = (if has_next then Some (rloc, rid) else None) })
        (tup5 (int_bound 500) digest_gen (string_size (int_bound 10))
           (list_size (int_bound 4) digest_gen) bool))
  in
  QCheck.Test.make ~name:"exec row round-trip" ~count:200 (QCheck.make row_gen) (fun row ->
    roundtrip Rows.write_rule_exec_row Rows.read_rule_exec_row row = row)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_rows"
    [
      ( "serialization",
        [
          Alcotest.test_case "prov row" `Quick test_prov_row_roundtrip;
          Alcotest.test_case "exec row" `Quick test_exec_row_roundtrip;
          Alcotest.test_case "link row" `Quick test_link_row_roundtrip;
        ]
        @ qsuite [ prop_prov_row_roundtrip; prop_exec_row_roundtrip ] );
      ( "sizing",
        [
          Alcotest.test_case "bytes reflect contents" `Quick test_row_bytes_reflect_contents;
          Alcotest.test_case "formulas match serialization" `Quick
            test_row_bytes_match_serialization;
        ] );
      ( "table",
        [
          Alcotest.test_case "dedup and multimap" `Quick test_table_dedup_and_multimap;
          Alcotest.test_case "byte counter" `Quick test_table_byte_counter;
          Alcotest.test_case "growth" `Quick test_table_growth;
          Alcotest.test_case "iter" `Quick test_table_iter_visits_all;
        ] );
      ( "side store",
        [
          Alcotest.test_case "basics" `Quick test_side_store_basics;
          Alcotest.test_case "iter" `Quick test_side_store_iter;
        ] );
      ( "storage",
        [
          Alcotest.test_case "arithmetic" `Quick test_storage_arithmetic;
          Alcotest.test_case "show helpers" `Quick test_show_helpers;
        ] );
    ]
