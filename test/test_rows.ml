(* Unit tests for the dpc_core storage building blocks: row serialization,
   the deduplicating multi-map, size accounting, side stores, and the
   storage record arithmetic. *)

open Dpc_core
module Prov_hook = Dpc_engine.Prov_hook

let check = Alcotest.check

let d1 = Dpc_util.Sha1.digest_string "one"
let d2 = Dpc_util.Sha1.digest_string "two"
let d3 = Dpc_util.Sha1.digest_string "three"

let back node rid = Prov_hook.Back { node; rid }
let prov_row = { Rows.loc = 3; vid = d1; rid = back 1 d2; evid = Some d3 }
let base_row = { Rows.loc = 0; vid = d1; rid = No_back; evid = None }

let exec_row =
  { Rows.rloc = 2; rid = d1; rule = "r1"; vids = [| d2; d3 |]; next = back 1 d2 }

let link_row = { Rows.link_rloc = 2; link_rid = d1; link_next = No_back }

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
  let leaf = { exec_row with Rows.next = No_back; vids = [||] } in
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
  let small = { exec_row with Rows.vids = [| d2 |] } in
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
  let wr_ref w : Prov_hook.back -> unit = function
    | No_back -> write_bool w false
    | Back { node; rid = d } ->
        write_bool w true;
        write_varint w node;
        wr_digest w d
  in
  let rows = [ prov_row; base_row; { prov_row with Rows.loc = 200; rid = back 150 d3 } ] in
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
  let execs =
    [ exec_row; { exec_row with Rows.vids = [||]; next = No_back; rule = "longer-rule-name" } ]
  in
  List.iter
    (fun (r : Rows.rule_exec_row) ->
      List.iter
        (fun with_next ->
          let reference =
            measure (fun w ->
              write_varint w r.rloc;
              wr_digest w r.rid;
              write_string w r.rule;
              write_list w (wr_digest w) (Array.to_list r.vids);
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
    [ link_row; { link_row with Rows.link_next = back 90 d2 } ]

(* ------------------------------------------------------------------ *)
(* Table *)

(* A table keyed by the first of each (key, row) pair, so a test can
   file a row under any key. *)
let table () =
  Rows.Table.create ~key:fst ~row_bytes:(fun (_, r) -> Rows.prov_row_bytes ~with_evid:true r) ()

let add t ~key row = Rows.Table.add t (key, row)

let test_table_dedup_and_multimap () =
  let t = table () in
  check Alcotest.bool "first add" true (add t ~key:"k" prov_row);
  check Alcotest.bool "duplicate row" false (add t ~key:"k" prov_row);
  check Alcotest.bool "distinct row, same key" true (add t ~key:"k" base_row);
  check Alcotest.int "two rows" 2 (Rows.Table.rows t);
  let rows_of key =
    let seen = ref [] in
    Rows.Table.iter_key t key (fun (_, r) -> seen := r :: !seen);
    List.rev !seen
  in
  check Alcotest.int "the key holds both" 2 (Rows.Table.count t "k");
  check Alcotest.bool "order preserved" true (rows_of "k" = [ prov_row; base_row ]);
  check Alcotest.int "unknown key" 0 (Rows.Table.count t "missing");
  check Alcotest.bool "nothing under an unknown key" true (rows_of "missing" = []);
  (* A third row goes after the second, and a duplicate of the second is
     rejected too. *)
  let third = { base_row with Rows.loc = base_row.loc + 1 } in
  check Alcotest.bool "duplicate later row" false (add t ~key:"k" base_row);
  check Alcotest.bool "third row" true (add t ~key:"k" third);
  check Alcotest.bool "oldest first" true (rows_of "k" = [ prov_row; base_row; third ]);
  check Alcotest.bool "concat_map, oldest first" true
    (Rows.Table.concat_map t "k" (fun (_, r) -> [ r; r ])
    = [ prov_row; prov_row; base_row; base_row; third; third ]);
  check Alcotest.bool "exists" true (Rows.Table.exists t "k" (fun (_, r) -> r = third));
  check Alcotest.bool "exists, unknown key" false (Rows.Table.exists t "missing" (fun _ -> true));
  let raises key = match Rows.Table.only t key with _ -> false | exception Not_found -> true in
  check Alcotest.bool "only: several rows" true (raises "k");
  check Alcotest.bool "only: no row" true (raises "missing");
  ignore (add t ~key:"j" prov_row);
  check Alcotest.bool "only: one row" true (snd (Rows.Table.only t "j") = prov_row);
  (* [add_first] files a row only under a key that has none, and [first]
     is the key's oldest row. *)
  check Alcotest.bool "add_first, key taken" false (Rows.Table.add_first t ("k", third));
  check Alcotest.bool "add_first, new key" true (Rows.Table.add_first t ("f", third));
  check Alcotest.bool "first, oldest row" true (snd (Rows.Table.first t "k") = prov_row);
  check Alcotest.bool "first, no row" true
    (match Rows.Table.first t "missing" with _ -> false | exception Not_found -> true)

(* Past many growths of the bucket array, every key still finds its rows,
   oldest first, and their count. *)
let test_table_growth () =
  let t = table () in
  let row key i = { prov_row with Rows.loc = (key * 10) + i } in
  let keys = 2000 in
  for i = 0 to 2 do
    for key = 0 to keys - 1 do
      if key mod 3 >= i then ignore (add t ~key:(string_of_int key) (row key i))
    done
  done;
  check Alcotest.int "rows"
    (List.fold_left ( + ) 0 (List.init keys (fun key -> (key mod 3) + 1)))
    (Rows.Table.rows t);
  for key = 0 to keys - 1 do
    let seen = ref [] in
    Rows.Table.iter_key t (string_of_int key) (fun (_, r) -> seen := r :: !seen);
    let want = List.init ((key mod 3) + 1) (row key) in
    if List.rev !seen <> want then Alcotest.failf "key %d: rows out of order or lost" key
  done

let test_table_byte_counter () =
  let t = table () in
  ignore (add t ~key:"a" prov_row);
  let one = Rows.Table.bytes t in
  ignore (add t ~key:"a" prov_row);
  check Alcotest.int "duplicates do not count" one (Rows.Table.bytes t);
  ignore (add t ~key:"b" base_row);
  check Alcotest.int "sum of row sizes"
    (one + Rows.prov_row_bytes ~with_evid:true base_row)
    (Rows.Table.bytes t);
  check Alcotest.int "one row per key and row" 2 (Rows.Table.rows t)

let test_table_iter_visits_all () =
  let t = table () in
  ignore (add t ~key:"a" prov_row);
  ignore (add t ~key:"b" base_row);
  let n = ref 0 in
  Rows.Table.iter t (fun _ -> incr n);
  check Alcotest.int "two visits" 2 !n;
  (* A key's further rows are visited too, each with its key. *)
  ignore (add t ~key:"a" base_row);
  let seen = ref [] in
  Rows.Table.iter t (fun (k, r) -> seen := (k, r) :: !seen);
  check Alcotest.bool "three visits" true
    (List.sort compare !seen
    = List.sort compare [ ("a", prov_row); ("a", base_row); ("b", base_row) ])

(* ------------------------------------------------------------------ *)
(* Side_store *)

let tuple = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:0
let other = Dpc_apps.Forwarding.route ~at:1 ~dst:3 ~next:0

let count s =
  let n = ref 0 in
  Side_store.iter s (fun ~key:_ _ -> incr n);
  !n

(* Entries are keyed by their tuple's digest. *)
let test_side_store_basics () =
  let s = Side_store.create () and key = Dpc_ndlog.Tuple.digest tuple in
  Side_store.put s tuple;
  (* An equal tuple, built apart: the first one stays. *)
  let again = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:0 in
  Side_store.put s again;
  check Alcotest.int "idempotent put" 1 (count s);
  check Alcotest.bool "get hit" true (Side_store.get s ~key <> None);
  check Alcotest.bool "the first tuple wins" true
    (match Side_store.get s ~key with Some t -> t == tuple | None -> false);
  check Alcotest.bool "get miss (other key)" true (Side_store.get s ~key:d2 = None);
  check Alcotest.int "bytes = digest + tuple" (20 + Dpc_ndlog.Tuple.wire_size tuple)
    (Side_store.bytes s);
  check Alcotest.bool "fresh store independent" true
    (Side_store.get (Side_store.create ()) ~key = None)

let test_side_store_iter () =
  let s = Side_store.create () in
  Side_store.put s tuple;
  Side_store.put s other;
  let visited = ref [] in
  Side_store.iter s (fun ~key _ -> visited := Dpc_util.Sha1.to_hex key :: !visited);
  check Alcotest.int "two entries" 2 (List.length !visited);
  let hex t = Dpc_util.Sha1.to_hex (Dpc_ndlog.Tuple.digest t) in
  check Alcotest.bool "keys correct" true
    (List.mem (hex tuple) !visited && List.mem (hex other) !visited)

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
  check Alcotest.string "null ref" "NULL" (Rows.show_ref No_back);
  check Alcotest.bool "ref with node" true
    (String.length (Rows.show_ref (back 3 d1)) > 3);
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
            rid = (if has_rid then back rloc v else No_back);
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
          { Rows.rloc; rid; rule; vids = Array.of_list vids;
            next = (if has_next then back rloc rid else No_back) })
        (tup5 (int_bound 500) digest_gen (string_size (int_bound 10))
           (list_size (int_bound 4) digest_gen) bool))
  in
  QCheck.Test.make ~name:"exec row round-trip" ~count:200 (QCheck.make row_gen) (fun row ->
    roundtrip Rows.write_rule_exec_row Rows.read_rule_exec_row row = row)

(* ------------------------------------------------------------------ *)
(* Cut order *)

(* The rows as they were before their vids became arrays and their
   references [Prov_hook.back]: the store formats sort rows by
   polymorphic [compare] on these records, and the cut bytes rest on that
   order. *)
type old_prov = {
  o_loc : int;
  o_vid : Dpc_util.Sha1.t;
  o_rid : (int * Dpc_util.Sha1.t) option;
  o_evid : Dpc_util.Sha1.t option;
}

type old_exec = {
  o_rloc : int;
  o_exec_rid : Dpc_util.Sha1.t;
  o_rule : string;
  o_vids : Dpc_util.Sha1.t list;
  o_next : (int * Dpc_util.Sha1.t) option;
}

type old_link = {
  o_link_rloc : int;
  o_link_rid : Dpc_util.Sha1.t;
  o_link_next : (int * Dpc_util.Sha1.t) option;
}

let back_of = function None -> Prov_hook.No_back | Some (node, rid) -> back node rid

let prov_of o = { Rows.loc = o.o_loc; vid = o.o_vid; rid = back_of o.o_rid; evid = o.o_evid }

let exec_of o =
  { Rows.rloc = o.o_rloc; rid = o.o_exec_rid; rule = o.o_rule; vids = Array.of_list o.o_vids;
    next = back_of o.o_next }

let link_of o =
  { Rows.link_rloc = o.o_link_rloc; link_rid = o.o_link_rid; link_next = back_of o.o_link_next }

(* Small pools, so that rows often tie on every field before the one
   that decides: rows equal up to their vids, vid lists of different
   lengths with a common prefix or none, and no reference against one. *)
let pool_digest = QCheck.Gen.oneofl [ d1; d2; d3 ]
let pool_int = QCheck.Gen.int_bound 2
let pool_ref = QCheck.Gen.(opt (pair pool_int pool_digest))

let old_prov_gen =
  QCheck.Gen.(
    map
      (fun (o_loc, o_vid, o_rid, o_evid) -> { o_loc; o_vid; o_rid; o_evid })
      (quad pool_int pool_digest pool_ref (opt pool_digest)))

let old_exec_gen =
  QCheck.Gen.(
    map
      (fun (o_rloc, o_exec_rid, o_rule, o_vids, o_next) ->
        { o_rloc; o_exec_rid; o_rule; o_vids; o_next })
      (tup5 pool_int pool_digest (oneofl [ "r1"; "r2" ])
         (list_size (int_bound 3) pool_digest) pool_ref))

let old_link_gen =
  QCheck.Gen.(
    map
      (fun (o_link_rloc, o_link_rid, o_link_next) -> { o_link_rloc; o_link_rid; o_link_next })
      (triple pool_int pool_digest pool_ref))

let sign c = Int.compare c 0

(* Every pair orders alike, and a list sorts into the same sequence. *)
let prop_cut_order name gen convert compare_new =
  QCheck.Test.make ~name ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 2 12) gen))
    (fun olds ->
      List.for_all
        (fun a -> List.for_all (fun b -> sign (compare a b) = sign (compare_new (convert a) (convert b))) olds)
        olds
      && List.map convert (List.stable_sort compare olds)
         = List.stable_sort compare_new (List.map convert olds))

let test_cut_order_cases () =
  (* The ties [compare] on arrays would break by length first. *)
  let exec vids = { exec_row with Rows.vids } in
  let lt a b = Rows.compare_rule_exec_row (exec a) (exec b) < 0 in
  let lo, hi = if Dpc_util.Sha1.compare d1 d2 < 0 then (d1, d2) else (d2, d1) in
  check Alcotest.bool "a longer list that starts lower sorts first" true (lt [| lo; d3 |] [| hi |]);
  check Alcotest.bool "a proper prefix sorts first" true (lt [| hi |] [| hi; lo |]);
  check Alcotest.bool "no vids sort first" true (lt [||] [| d1 |]);
  check Alcotest.bool "no reference sorts first" true
    (Rows.compare_prov_row base_row { base_row with Rows.rid = back 0 d1 } < 0)

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
      ( "cut order",
        Alcotest.test_case "ties past the vids" `Quick test_cut_order_cases
        :: qsuite
             [
               prop_cut_order "prov rows order as compare on the old rows" old_prov_gen prov_of
                 Rows.compare_prov_row;
               prop_cut_order "ruleExec rows order as compare on the old rows" old_exec_gen
                 exec_of Rows.compare_rule_exec_row;
               prop_cut_order "link rows order as compare on the old rows" old_link_gen link_of
                 Rows.compare_link_row;
             ] );
    ]
