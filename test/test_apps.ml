(* End-to-end tests for the application programs: DNS resolution on a real
   hierarchy (including provenance under every scheme), DHCP and ARP
   round-trips, and the domain-matching UDF. *)

open Dpc_ndlog
open Dpc_core

let check = Alcotest.check
let tuple_t = Alcotest.testable Tuple.pp Tuple.equal

(* ------------------------------------------------------------------ *)
(* f_isSubDomain *)

let test_is_sub_domain () =
  let t = Dpc_apps.Dns.is_sub_domain in
  check Alcotest.bool "root covers everything" true (t "" "www.hello.com");
  check Alcotest.bool "exact" true (t "hello.com" "hello.com");
  check Alcotest.bool "sub" true (t "hello.com" "www.hello.com");
  check Alcotest.bool "label boundary" false (t "hello.com" "shello.com");
  check Alcotest.bool "different tld" false (t "hello.com" "www.hello.org");
  check Alcotest.bool "prefix is not suffix" false (t "www.hello" "www.hello.com")

(* The reference: the suffix check through a [String.sub] copy. *)
let is_sub_domain_by_sub dm url =
  String.equal dm ""
  || String.equal dm url
  ||
  let ld = String.length dm and lu = String.length url in
  lu > ld
  && String.equal (String.sub url (lu - ld) ld) dm
  && url.[lu - ld - 1] = '.'

(* Pairs over a three-letter alphabet, so that near misses are common: the
   empty domain, equal strings, a suffix with and without the label
   boundary, and a domain longer than the URL. *)
let domain_pair =
  let open QCheck.Gen in
  let str = string_size ~gen:(oneofl [ 'a'; 'b'; '.' ]) (int_bound 6) in
  pair str str >>= fun (dm, pre) ->
  oneofl
    [ (dm, pre); ("", pre); (dm, dm); (dm, pre ^ dm); (dm, pre ^ "." ^ dm); (pre ^ "." ^ dm, dm) ]

let prop_is_sub_domain_in_place =
  QCheck.Test.make ~name:"in place = by String.sub" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair string string) domain_pair)
    (fun (dm, url) -> Dpc_apps.Dns.is_sub_domain dm url = is_sub_domain_by_sub dm url)

let test_is_sub_domain_errors () =
  let call args =
    match Dpc_engine.Env.lookup Dpc_apps.Dns.env "f_isSubDomain" with
    | Some f -> ignore (f args)
    | None -> Alcotest.fail "f_isSubDomain is not registered"
  in
  Alcotest.check_raises "two non-strings"
    (Dpc_engine.Eval.Eval_error "f_isSubDomain: expected two strings, got 1 and true") (fun () ->
      call [ Value.Int 1; Value.Bool true ]);
  Alcotest.check_raises "three arguments"
    (Dpc_engine.Eval.Eval_error "f_isSubDomain: expected 2 arguments, got 3") (fun () ->
      call [ Value.Str "a"; Value.Str "b"; Value.Str "c" ])

(* ------------------------------------------------------------------ *)
(* A hand-built 5-node DNS hierarchy:
     0 = root, 1 = "com" server, 2 = "hello.com" server,
     3 = "org" server, 4 = a client host.
   Topology: star around the root plus a client link. *)

let dns_world scheme =
  let topo = Dpc_net.Topology.create ~n:5 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  List.iter (fun (a, b) -> Dpc_net.Topology.add_link topo a b l) [ (0, 1); (1, 2); (0, 3); (0, 4) ];
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Dns.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Dns.env ~nodes:5 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Dns.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [
      Dpc_apps.Dns.root_server ~host:4 ~root:0;
      Dpc_apps.Dns.name_server ~at:0 ~domain:"com" ~server:1;
      Dpc_apps.Dns.name_server ~at:0 ~domain:"org" ~server:3;
      Dpc_apps.Dns.name_server ~at:1 ~domain:"hello.com" ~server:2;
      Dpc_apps.Dns.address_record ~at:2 ~url:"www.hello.com" ~ip:"10.0.0.7";
      Dpc_apps.Dns.address_record ~at:3 ~url:"www.example.org" ~ip:"10.0.0.9";
    ];
  (runtime, backend, routing)

let resolve runtime ~url ~rqid =
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Dns.url ~host:4 ~url ~rqid);
  Dpc_engine.Runtime.run runtime

let test_dns_resolution name scheme =
  let runtime, _, _ = dns_world scheme in
  resolve runtime ~url:"www.hello.com" ~rqid:1;
  let outputs = List.map fst (Dpc_engine.Runtime.outputs runtime) in
  check (Alcotest.list tuple_t) (name ^ ": reply")
    [ Dpc_apps.Dns.reply ~host:4 ~url:"www.hello.com" ~ip:"10.0.0.7" ~rqid:1 ]
    outputs;
  (* r1 at the host, r2 at root and "com", r3 at "hello.com", r4. *)
  check Alcotest.int (name ^ ": five rule executions") 5
    (Dpc_engine.Runtime.stats runtime).fired

let test_dns_provenance_tree name scheme =
  let runtime, backend, routing = dns_world scheme in
  resolve runtime ~url:"www.hello.com" ~rqid:1;
  let out = Dpc_apps.Dns.reply ~host:4 ~url:"www.hello.com" ~ip:"10.0.0.7" ~rqid:1 in
  let result = Backend.query backend ~cost:Query_cost.free ~routing out in
  check Alcotest.int (name ^ ": one tree") 1 (List.length result.trees);
  let tree = List.hd result.trees in
  check (Alcotest.list Alcotest.string) (name ^ ": rule chain")
    [ "r4"; "r3"; "r2"; "r2"; "r1" ]
    (Prov_tree.rules_root_to_leaf tree);
  check tuple_t (name ^ ": leaf event")
    (Dpc_apps.Dns.url ~host:4 ~url:"www.hello.com" ~rqid:1)
    (Prov_tree.event_of tree)

let test_dns_short_path name scheme =
  (* A URL authoritative one level down: shorter chain. *)
  let runtime, backend, routing = dns_world scheme in
  resolve runtime ~url:"www.example.org" ~rqid:9;
  let out = Dpc_apps.Dns.reply ~host:4 ~url:"www.example.org" ~ip:"10.0.0.9" ~rqid:9 in
  let result = Backend.query backend ~cost:Query_cost.free ~routing out in
  check Alcotest.int (name ^ ": one tree") 1 (List.length result.trees);
  check (Alcotest.list Alcotest.string) (name ^ ": rule chain")
    [ "r4"; "r3"; "r2"; "r1" ]
    (Prov_tree.rules_root_to_leaf (List.hd result.trees))

let test_dns_equivalence_compression () =
  let runtime, backend, _ = dns_world Backend.S_advanced in
  for rqid = 1 to 20 do
    resolve runtime ~url:"www.hello.com" ~rqid
  done;
  let storage = Backend.total_storage backend in
  (* One equivalence class (host 4, www.hello.com): 5 shared ruleExec rows,
     one prov delta per request. *)
  check Alcotest.int "shared ruleExec rows" 5 storage.rule_exec_rows;
  check Alcotest.int "per-request prov rows" 20 storage.prov_rows

let test_dns_distinct_urls_distinct_classes () =
  let runtime, backend, _ = dns_world Backend.S_advanced in
  resolve runtime ~url:"www.hello.com" ~rqid:1;
  resolve runtime ~url:"www.example.org" ~rqid:2;
  let storage = Backend.total_storage backend in
  (* 5 + 4 rows for the two chains, minus the shared leaf: both classes
     execute r1 at host 4 with the same rootServer tuple, and the chain rid
     hashes the chain prefix, so the common leaf row deduplicates. *)
  check Alcotest.int "two chains sharing their leaf" 8 storage.rule_exec_rows

let test_dns_all_schemes_agree () =
  let trees scheme =
    let runtime, backend, routing = dns_world scheme in
    resolve runtime ~url:"www.hello.com" ~rqid:1;
    let out = Dpc_apps.Dns.reply ~host:4 ~url:"www.hello.com" ~ip:"10.0.0.7" ~rqid:1 in
    (Backend.query backend ~cost:Query_cost.free ~routing out).trees
  in
  let reference = trees Backend.S_exspan in
  List.iter
    (fun scheme ->
      check
        (Alcotest.list (Alcotest.testable Prov_tree.pp Prov_tree.equal))
        (Backend.scheme_name scheme) reference (trees scheme))
    [ Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

(* ------------------------------------------------------------------ *)
(* DHCP *)

let dhcp_world scheme =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Dhcp.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Dhcp.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Dhcp.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [
      Dpc_apps.Dhcp.dhcp_relay ~host:0 ~server:2;
      Dpc_apps.Dhcp.address_pool ~server:2 ~host:0 ~ip:"192.168.0.5";
    ];
  (runtime, backend, routing)

let test_dhcp_round_trip () =
  let runtime, backend, routing = dhcp_world Backend.S_advanced in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Dhcp.discover ~host:0 ~rqid:1);
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Dhcp.discover ~host:0 ~rqid:2);
  Dpc_engine.Runtime.run runtime;
  let outputs = List.map fst (Dpc_engine.Runtime.outputs runtime) in
  check Alcotest.int "two offers" 2 (List.length outputs);
  (* One equivalence class: the keys are just the host. *)
  check Alcotest.int "one shared chain" 2 (Backend.total_storage backend).rule_exec_rows;
  let out = Dpc_apps.Dhcp.offer ~host:0 ~ip:"192.168.0.5" ~rqid:2 in
  let result = Backend.query backend ~cost:Query_cost.free ~routing out in
  check Alcotest.int "queryable" 1 (List.length result.trees)

(* ------------------------------------------------------------------ *)
(* ARP *)

let test_arp_round_trip () =
  let topo = Dpc_net.Topology.create ~n:2 in
  Dpc_net.Topology.add_link topo 0 1 { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 };
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Arp.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Arp.env ~nodes:2 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Arp.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [
      Dpc_apps.Arp.arp_switch ~host:0 ~switch:1;
      Dpc_apps.Arp.mac_table ~switch:1 ~ip:"10.0.0.3" ~mac:"aa:bb";
      Dpc_apps.Arp.mac_table ~switch:1 ~ip:"10.0.0.4" ~mac:"cc:dd";
    ];
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Arp.arp_query ~host:0 ~ip:"10.0.0.3" ~rqid:1);
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Arp.arp_query ~host:0 ~ip:"10.0.0.4" ~rqid:2);
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Arp.arp_query ~host:0 ~ip:"10.0.0.3" ~rqid:3);
  Dpc_engine.Runtime.run runtime;
  check Alcotest.int "three replies" 3 (List.length (Dpc_engine.Runtime.outputs runtime));
  (* Two classes (host, ip): two chains of two rows, whose identical leaf
     (r1 at host 0, same arpSwitch tuple) deduplicates. *)
  check Alcotest.int "two chains sharing their leaf" 3
    (Backend.total_storage backend).rule_exec_rows;
  let out = Dpc_apps.Arp.arp_reply ~host:0 ~ip:"10.0.0.3" ~mac:"aa:bb" ~rqid:3 in
  let result = Backend.query backend ~cost:Query_cost.free ~routing out in
  check Alcotest.int "repeat query shares chain" 1 (List.length result.trees)

let scheme_cases f =
  List.map
    (fun s ->
      Alcotest.test_case (Backend.scheme_name s) `Quick (fun () ->
        f (Backend.scheme_name s) s))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let () =
  Alcotest.run "dpc_apps"
    [
      ( "is_sub_domain",
        [
          Alcotest.test_case "boundaries" `Quick test_is_sub_domain;
          Alcotest.test_case "type errors name the values" `Quick test_is_sub_domain_errors;
          QCheck_alcotest.to_alcotest prop_is_sub_domain_in_place;
        ] );
      ("dns resolution", scheme_cases test_dns_resolution);
      ("dns provenance", scheme_cases test_dns_provenance_tree);
      ("dns short path", scheme_cases test_dns_short_path);
      ( "dns compression",
        [
          Alcotest.test_case "shared chain" `Quick test_dns_equivalence_compression;
          Alcotest.test_case "distinct URLs" `Quick test_dns_distinct_urls_distinct_classes;
          Alcotest.test_case "all schemes agree" `Quick test_dns_all_schemes_agree;
        ] );
      ("dhcp", [ Alcotest.test_case "round trip" `Quick test_dhcp_round_trip ]);
      ("arp", [ Alcotest.test_case "round trip" `Quick test_arp_round_trip ]);
    ]
