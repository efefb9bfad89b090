(* Tests for dpc_analysis: the attribute-level dependency graph (§5.2,
   Appendix C) and equivalence-key identification (Fig 5). *)

open Dpc_analysis

let check = Alcotest.check

let validate src =
  match Dpc_ndlog.Parser.parse_program ~name:"test" src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p -> begin
      match Dpc_ndlog.Delp.validate p with
      | Ok d -> d
      | Error e -> Alcotest.failf "validation error: %s" (Dpc_ndlog.Delp.error_to_string e)
    end

let forwarding () = Dpc_apps.Forwarding.delp ()
let dns () = Dpc_apps.Dns.delp ()

let attr rel idx = { Depgraph.rel; idx }

(* ------------------------------------------------------------------ *)
(* Dependency graph on the paper's forwarding program (Appendix C). *)

let test_depgraph_forwarding_edges () =
  let g = Depgraph.build (forwarding ()) in
  (* Condition 1: packet:0 -- route:0 (variable L in r1),
     packet:2 -- route:1 (variable D). *)
  check Alcotest.bool "packet:0 -- route:0" true
    (List.mem (attr "route" 0) (Depgraph.neighbors g (attr "packet" 0)));
  check Alcotest.bool "packet:2 -- route:1" true
    (List.mem (attr "route" 1) (Depgraph.neighbors g (attr "packet" 2)));
  (* Condition 2: packet:1 -- recv:1 (variable S in r2). *)
  check Alcotest.bool "packet:1 -- recv:1" true
    (List.mem (attr "recv" 1) (Depgraph.neighbors g (attr "packet" 1)));
  (* Condition 3: packet:0 -- packet:2 via D == L. *)
  check Alcotest.bool "packet:0 -- packet:2" true
    (List.mem (attr "packet" 2) (Depgraph.neighbors g (attr "packet" 0)));
  (* The payload attribute never joins anything slow. *)
  check Alcotest.bool "packet:3 not anchored" false
    (Depgraph.is_anchor g (attr "packet" 3))

let test_depgraph_edges_symmetric () =
  List.iter
    (fun delp ->
      let g = Depgraph.build delp in
      List.iter
        (fun v ->
          List.iter
            (fun w ->
              if not (List.mem v (Depgraph.neighbors g w)) then
                Alcotest.failf "edge %s -- %s not symmetric" (Depgraph.attr_to_string v)
                  (Depgraph.attr_to_string w))
            (Depgraph.neighbors g v))
        (Depgraph.vertices g))
    [ forwarding (); dns () ]

let test_depgraph_slow_attrs_are_anchors () =
  let g = Depgraph.build (forwarding ()) in
  check Alcotest.bool "route:0 anchor" true (Depgraph.is_anchor g (attr "route" 0));
  check Alcotest.bool "route:1 anchor" true (Depgraph.is_anchor g (attr "route" 1))

let test_depgraph_reachability () =
  let g = Depgraph.build (forwarding ()) in
  check Alcotest.bool "reflexive" true (Depgraph.reachable g (attr "packet" 0) (attr "packet" 0));
  check Alcotest.bool "packet:0 reaches route:1 (via packet:2)" true
    (Depgraph.reachable g (attr "packet" 0) (attr "route" 1));
  check Alcotest.bool "payload reaches recv:3 only" true
    (Depgraph.reachable g (attr "packet" 3) (attr "recv" 3));
  check Alcotest.bool "payload does not reach route" false
    (Depgraph.reachable g (attr "packet" 3) (attr "route" 0))

let test_depgraph_assignment_edge () =
  let d =
    validate "r1 out(@L, Y) :- ev(@L, X), s(@L, X), Y := X + 1."
  in
  let g = Depgraph.build d in
  (* Condition 4: ev:1 (X, RHS) -- out:1 (Y, LHS target). *)
  check Alcotest.bool "ev:1 -- out:1" true
    (List.mem (attr "out" 1) (Depgraph.neighbors g (attr "ev" 1)))

(* ------------------------------------------------------------------ *)
(* Equivalence keys *)

let test_keys_forwarding () =
  let k = Equi_keys.compute (forwarding ()) in
  check (Alcotest.list Alcotest.int) "keys = {packet:0, packet:2}" [ 0; 2 ] (Equi_keys.keys k)

let test_keys_dns () =
  let k = Equi_keys.compute (dns ()) in
  (* Host location and URL; the request id flows only to the reply. *)
  check (Alcotest.list Alcotest.int) "keys = {url:0, url:1}" [ 0; 1 ] (Equi_keys.keys k)

let test_keys_dhcp () =
  let k = Equi_keys.compute (Dpc_apps.Dhcp.delp ()) in
  check (Alcotest.list Alcotest.int) "keys = {discover:0}" [ 0 ] (Equi_keys.keys k)

let test_keys_arp () =
  let k = Equi_keys.compute (Dpc_apps.Arp.delp ()) in
  check (Alcotest.list Alcotest.int) "keys = {arpQuery:0, arpQuery:1}" [ 0; 1 ]
    (Equi_keys.keys k)

let test_keys_always_include_location () =
  (* Even a program whose event never joins anything keeps attribute 0. *)
  let d = validate "r1 out(@L, X) :- ev(@L, X)." in
  let k = Equi_keys.compute d in
  check (Alcotest.list Alcotest.int) "location only" [ 0 ] (Equi_keys.keys k)

let test_key_values_and_hash () =
  let k = Equi_keys.compute (forwarding ()) in
  let p1 = Dpc_apps.Forwarding.packet ~src:1 ~dst:3 ~payload:"a" in
  let p2 = Dpc_apps.Forwarding.packet ~src:1 ~dst:3 ~payload:"b" in
  let p3 = Dpc_apps.Forwarding.packet ~src:2 ~dst:3 ~payload:"a" in
  check Alcotest.bool "same keys" true (Equi_keys.equivalent k p1 p2);
  check Alcotest.bool "different ingress" false (Equi_keys.equivalent k p1 p3);
  check Alcotest.bool "hash agrees" true
    (Dpc_util.Sha1.equal (Equi_keys.key_hash k p1) (Equi_keys.key_hash k p2));
  check Alcotest.bool "hash differs" false
    (Dpc_util.Sha1.equal (Equi_keys.key_hash k p1) (Equi_keys.key_hash k p3))

let test_key_values_wrong_relation () =
  let k = Equi_keys.compute (forwarding ()) in
  let r = Dpc_apps.Forwarding.route ~at:0 ~dst:1 ~next:1 in
  Alcotest.check_raises "rejects non-event tuples"
    (Invalid_argument "Equi_keys.key_values: expected a \"packet\" event tuple") (fun () ->
      ignore (Equi_keys.key_values k r))

(* A non-key attribute really does not influence the execution shape:
   payload is not a key, source IS in the tree only via recv. *)
let test_source_not_a_key_in_forwarding () =
  let k = Equi_keys.compute (forwarding ()) in
  check Alcotest.bool "src (packet:1) is not a key" false (List.mem 1 (Equi_keys.keys k))

(* Property: keys are within the event arity, sorted, start with 0. *)
let prop_keys_well_formed =
  let programs =
    [| forwarding (); dns (); Dpc_apps.Dhcp.delp (); Dpc_apps.Arp.delp () |]
  in
  QCheck.Test.make ~name:"keys well-formed" ~count:50 (QCheck.int_bound 3) (fun i ->
    let d = programs.(i) in
    let keys = Equi_keys.keys (Equi_keys.compute d) in
    let arity = Dpc_ndlog.Delp.event_arity d in
    keys <> []
    && List.hd keys = 0
    && List.for_all (fun k -> k >= 0 && k < arity) keys
    && List.sort_uniq compare keys = keys)

(* The key hash is pinned to an independent reference: SHA-1 of the
   canonical key values joined by "+", for every key type, negative ints
   and payloads on both sides of the interning threshold. *)
let reference_key_hash k ev =
  Dpc_util.Sha1.digest_concat (List.map Dpc_ndlog.Value.canonical (Equi_keys.key_values k ev))

let prop_key_hash_reference =
  let d = validate "r1 out(@L, A, B, C) :- ev(@L, A, B, C), s(@L, A, B, C)." in
  let k = Equi_keys.compute d in
  let open Dpc_ndlog in
  let value =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Value.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
          map (fun b -> Value.Bool b) bool;
          map (fun a -> Value.Addr a) nat;
          map (fun s -> Value.Str s) (string_size (oneof [ 0 -- 70; oneofl [ 64; 65; 500 ] ]));
        ])
  in
  QCheck.Test.make ~name:"key hash = digest_concat reference" ~count:200
    (QCheck.make QCheck.Gen.(triple value value value))
    (fun (a, b, c) ->
      let ev = Tuple.make "ev" [ Value.Addr 1; a; b; c ] in
      Equi_keys.keys k = [ 0; 1; 2; 3 ]
      && Dpc_util.Sha1.equal (Equi_keys.key_hash k ev) (reference_key_hash k ev))

let test_key_hash_reference_apps () =
  List.iter
    (fun (name, d, ev) ->
      let k = Equi_keys.compute d in
      check Alcotest.bool (name ^ ": key hash = reference") true
        (Dpc_util.Sha1.equal (Equi_keys.key_hash k ev) (reference_key_hash k ev)))
    [
      ( "forwarding",
        forwarding (),
        Dpc_apps.Forwarding.packet ~src:1 ~dst:3 ~payload:(String.make 500 'x') );
      ( "arp",
        Dpc_apps.Arp.delp (),
        Dpc_apps.Arp.arp_query ~host:2 ~ip:(String.make 65 'i') ~rqid:(-7) );
      ("dns", dns (), Dpc_apps.Dns.url ~host:4 ~url:"www.example.com" ~rqid:(-1));
    ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_analysis"
    [
      ( "depgraph",
        [
          Alcotest.test_case "forwarding edges" `Quick test_depgraph_forwarding_edges;
          Alcotest.test_case "edges symmetric" `Quick test_depgraph_edges_symmetric;
          Alcotest.test_case "slow attrs are anchors" `Quick test_depgraph_slow_attrs_are_anchors;
          Alcotest.test_case "reachability" `Quick test_depgraph_reachability;
          Alcotest.test_case "assignment edge" `Quick test_depgraph_assignment_edge;
        ] );
      ( "equi_keys",
        [
          Alcotest.test_case "forwarding" `Quick test_keys_forwarding;
          Alcotest.test_case "dns" `Quick test_keys_dns;
          Alcotest.test_case "dhcp" `Quick test_keys_dhcp;
          Alcotest.test_case "arp" `Quick test_keys_arp;
          Alcotest.test_case "location always included" `Quick test_keys_always_include_location;
          Alcotest.test_case "values and hash" `Quick test_key_values_and_hash;
          Alcotest.test_case "wrong relation" `Quick test_key_values_wrong_relation;
          Alcotest.test_case "source not a key" `Quick test_source_not_a_key_in_forwarding;
        ]
        @ qsuite [ prop_keys_well_formed; prop_key_hash_reference ]
        @ [ Alcotest.test_case "key hash of app events" `Quick test_key_hash_reference_apps ] );
    ]
