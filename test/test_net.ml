(* Tests for dpc_net: topology invariants, the transit-stub and tree
   generators, routing, and the discrete-event simulator. *)

open Dpc_net

let check = Alcotest.check

(* Whether every node is reachable from node 0. *)
let is_connected t =
  let seen = Array.make (Topology.size t) false in
  let rec go = function
    | [] -> ()
    | v :: rest when seen.(v) -> go rest
    | v :: rest ->
        seen.(v) <- true;
        go (List.rev_append (List.map fst (Topology.neighbors t v)) rest)
  in
  go [ 0 ];
  Array.for_all Fun.id seen

let link = { Topology.latency = 0.01; bandwidth = 1e6 }
let fast_link = { Topology.latency = 0.001; bandwidth = 1e6 }

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_links () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  check Alcotest.bool "connected" true (Topology.connected t 0 1);
  check Alcotest.bool "symmetric" true (Topology.connected t 1 0);
  check Alcotest.bool "absent" false (Topology.connected t 0 2);
  check Alcotest.int "degree" 1 (List.length (Topology.neighbors t 0));
  check Alcotest.int "one undirected link" 1 (List.length (Topology.links t))

let test_topology_rejects_bad_links () =
  let t = Topology.create ~n:2 in
  Alcotest.check_raises "self link" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> Topology.add_link t 0 0 link);
  Alcotest.check_raises "out of range" (Invalid_argument "Topology: node 5 out of range")
    (fun () -> Topology.add_link t 0 5 link)

let test_topology_connectivity () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  check Alcotest.bool "disconnected" false (is_connected t);
  Topology.add_link t 1 2 link;
  check Alcotest.bool "connected" true (is_connected t)

(* ------------------------------------------------------------------ *)
(* Transit-stub generator *)

let test_transit_stub_shape () =
  let rng = Dpc_util.Rng.create ~seed:7 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  check Alcotest.int "100 nodes" 100 (Topology.size ts.topology);
  check Alcotest.int "4 transit" 4 (List.length ts.transit_nodes);
  check Alcotest.int "96 stubs" 96 (List.length ts.stub_nodes);
  check Alcotest.bool "connected" true (is_connected ts.topology);
  (* Transit mesh. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a <> b then check Alcotest.bool "transit mesh" true (Topology.connected ts.topology a b))
        ts.transit_nodes)
    ts.transit_nodes

let test_transit_stub_link_classes () =
  let rng = Dpc_util.Rng.create ~seed:7 in
  let p = Transit_stub.paper_params in
  let ts = Transit_stub.generate ~rng p in
  (match Topology.link ts.topology 0 1 with
  | Some l -> check (Alcotest.float 1e-9) "transit latency" p.transit_link.latency l.latency
  | None -> Alcotest.fail "transit link missing");
  (* Every stub-stub link uses the stub class. *)
  List.iter
    (fun (a, b, (l : Topology.link)) ->
      let is_transit v = v < p.transit in
      if (not (is_transit a)) && not (is_transit b) then
        check (Alcotest.float 1e-9) "stub latency" p.stub_link.latency l.latency)
    (Topology.links ts.topology)

let test_transit_stub_path_stats_close_to_paper () =
  (* The paper reports diameter 12 and mean pair distance 5.3 for its
     GT-ITM topology; ours should be in the same regime. *)
  let rng = Dpc_util.Rng.create ~seed:11 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  let routing = Routing.compute ts.topology in
  let hops =
    let n = Topology.size ts.topology in
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src = dst then None else Routing.hop_count routing ~src ~dst)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let diameter = List.fold_left max 0 hops in
  let mean = float_of_int (List.fold_left ( + ) 0 hops) /. float_of_int (List.length hops) in
  if diameter < 6 || diameter > 16 then Alcotest.failf "diameter %d out of regime" diameter;
  if mean < 3.0 || mean > 8.0 then Alcotest.failf "mean distance %.2f out of regime" mean

let test_transit_stub_deterministic () =
  let gen seed =
    let rng = Dpc_util.Rng.create ~seed in
    Topology.links (Transit_stub.generate ~rng Transit_stub.paper_params).topology
    |> List.map (fun (a, b, _) -> (a, b))
  in
  check Alcotest.bool "same seed, same topology" true (gen 3 = gen 3);
  check Alcotest.bool "different seed, different topology" true (gen 3 <> gen 4)

(* ------------------------------------------------------------------ *)
(* Tree generator *)

let test_tree_shape () =
  let rng = Dpc_util.Rng.create ~seed:5 in
  let tr = Tree_topo.generate ~rng ~n:100 ~backbone_depth:27 ~link in
  check Alcotest.int "100 nodes" 100 (Topology.size tr.topology);
  check Alcotest.bool "connected" true (is_connected tr.topology);
  check Alcotest.int "root has no parent" (-1) tr.parent.(0);
  check Alcotest.int "max depth from backbone" 27 (Tree_topo.max_depth tr);
  (* A tree: n-1 links. *)
  check Alcotest.int "99 links" 99 (List.length (Topology.links tr.topology))

let test_tree_children_inverse_of_parent () =
  let rng = Dpc_util.Rng.create ~seed:5 in
  let tr = Tree_topo.generate ~rng ~n:30 ~backbone_depth:5 ~link in
  for v = 1 to 29 do
    if not (List.mem v (Tree_topo.For_testing.children tr tr.parent.(v))) then
      Alcotest.failf "node %d missing from its parent's children" v
  done

(* ------------------------------------------------------------------ *)
(* Routing *)

let line_topology n =
  let t = Topology.create ~n in
  for v = 0 to n - 2 do
    Topology.add_link t v (v + 1) link
  done;
  t

let test_routing_line () =
  let t = line_topology 5 in
  let r = Routing.compute t in
  check Alcotest.int "next hop" 1 (Routing.successor r ~src:0 ~dst:4);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "path" (Some [ 0; 1; 2; 3; 4 ]) (Routing.path r ~src:0 ~dst:4);
  check (Alcotest.option Alcotest.int) "hops" (Some 4) (Routing.hop_count r ~src:0 ~dst:4);
  check (Alcotest.option (Alcotest.float 1e-9)) "distance" (Some 0.04)
    (Routing.distance r ~src:0 ~dst:4);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "self path" (Some [ 2 ])
    (Routing.path r ~src:2 ~dst:2)

let test_routing_prefers_low_latency () =
  (* 0-1-2 with fast links vs direct slow 0-2. *)
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 fast_link;
  Topology.add_link t 1 2 fast_link;
  Topology.add_link t 0 2 { Topology.latency = 0.1; bandwidth = 1e6 };
  let r = Routing.compute t in
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "two fast hops beat one slow hop" (Some [ 0; 1; 2 ]) (Routing.path r ~src:0 ~dst:2)

let test_routing_unreachable () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  let r = Routing.compute t in
  check Alcotest.int "no hop" (-1) (Routing.successor r ~src:0 ~dst:2);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "no path" None (Routing.path r ~src:0 ~dst:2)

let test_routing_paths_follow_links () =
  let rng = Dpc_util.Rng.create ~seed:13 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  let r = Routing.compute ts.topology in
  let g = Dpc_util.Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let src = Dpc_util.Rng.int g 100 and dst = Dpc_util.Rng.int g 100 in
    match Routing.path r ~src ~dst with
    | None -> Alcotest.fail "transit-stub should be connected"
    | Some p ->
        let rec ok = function
          | a :: (b :: _ as rest) -> Topology.connected ts.topology a b && ok rest
          | [ _ ] | [] -> true
        in
        if not (ok p) then Alcotest.fail "path uses a non-existent link";
        (* Loop-free. *)
        if List.length (List.sort_uniq compare p) <> List.length p then
          Alcotest.fail "path revisits a node"
  done

(* Every pair's next hop and the exact bits of its distance, as one
   SHA-1. *)
let tables_digest topo r =
  let n = Topology.size topo in
  let s = Dpc_util.Sha1.start () in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let d = Option.value ~default:infinity (Routing.distance r ~src ~dst) in
      Dpc_util.Sha1.add s (Printf.sprintf "%d %h;" (Routing.successor r ~src ~dst) d)
    done
  done;
  Dpc_util.Sha1.to_hex (Dpc_util.Sha1.finish s)

let test_routing_paper_tables () =
  (* Pinned from the search over boxed pairs that the reference below
     copies: the 100-server DNS tree and the 100-node transit-stub. *)
  let tree =
    Tree_topo.generate ~rng:(Dpc_util.Rng.create ~seed:1) ~n:100 ~backbone_depth:27
      ~link:{ Topology.latency = 0.010; bandwidth = 100e6 /. 8.0 }
  in
  let ts = Transit_stub.generate ~rng:(Dpc_util.Rng.create ~seed:1) Transit_stub.paper_params in
  List.iter
    (fun (name, topo, expected) ->
      check Alcotest.string name expected (tables_digest topo (Routing.compute topo)))
    [
      ("DNS tree", tree.topology, "0575fd087e4cb05917b150b27f43832228998c1b");
      ("transit-stub", ts.topology, "4f3962ef35cad2d392e38b374a9bff48f626ffb7");
    ]

(* The reference's frontier: a binary min-heap of boxed (distance, node)
   entries ordered by distance alone, with the sift steps [Routing]'s
   frontier copies, so equal distances pop in the same order. *)
module Ref_heap = struct
  type t = { mutable data : (float * int) array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && fst h.data.(i) < fst h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.size && fst h.data.(l) < fst h.data.(i) then l else i in
    let smallest = if r < h.size && fst h.data.(r) < fst h.data.(smallest) then r else smallest in
    if smallest <> i then begin
      swap h i smallest;
      sift_down h smallest
    end

  let push h x =
    if h.size = Array.length h.data then begin
      let data = Array.make (max 8 (2 * h.size)) x in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      sift_down h 0;
      Some top
    end
end

(* The reference: the shortest-path search over boxed (distance, node)
   pairs through [Ref_heap], then a predecessor walk per destination. *)
let reference_tables topo =
  let n = Topology.size topo in
  let neighbors = Array.init n (fun v -> Array.of_list (Topology.neighbors topo v)) in
  let dijkstra src =
    let dist = Array.make n infinity in
    let pred = Array.make n (-1) in
    dist.(src) <- 0.0;
    let heap = Ref_heap.create () in
    Ref_heap.push heap (0.0, src);
    let rec go () =
      match Ref_heap.pop heap with
      | None -> ()
      | Some (d, v) ->
          if d <= dist.(v) then
            Array.iter
              (fun (w, (l : Topology.link)) ->
                let nd = d +. l.latency in
                if nd < dist.(w) then begin
                  dist.(w) <- nd;
                  pred.(w) <- v;
                  Ref_heap.push heap (nd, w)
                end)
              neighbors.(v);
          go ()
    in
    go ();
    (dist, pred)
  in
  let successor = Array.make_matrix n n (-1) in
  let dist = Array.make_matrix n n infinity in
  for src = 0 to n - 1 do
    let d, pred = dijkstra src in
    for dst = 0 to n - 1 do
      dist.(src).(dst) <- d.(dst);
      if dst <> src && d.(dst) < infinity then begin
        let rec first_hop v = if pred.(v) = src then v else first_hop pred.(v) in
        successor.(src).(dst) <- first_hop dst
      end
    done
  done;
  (successor, dist)

(* A connected graph on [n] nodes from [seed]: a random spanning tree plus
   up to [n] extra links, each of latency 1, 2 or 3, so that equal-length
   paths are common. *)
let random_graph n seed =
  let rng = Dpc_util.Rng.create ~seed in
  let t = Topology.create ~n in
  let add a b =
    let latency = float_of_int (1 + Dpc_util.Rng.int rng 3) in
    Topology.add_link t a b { Topology.latency; bandwidth = 1e6 }
  in
  for v = 1 to n - 1 do
    add (Dpc_util.Rng.int rng v) v
  done;
  for _ = 1 to Dpc_util.Rng.int rng (n + 1) do
    let a = Dpc_util.Rng.int rng n and b = Dpc_util.Rng.int rng n in
    if a <> b then add a b
  done;
  t

let prop_routing_reference =
  QCheck.Test.make ~name:"tables = reference" ~count:300
    QCheck.(pair (int_range 1 16) int)
    (fun (n, seed) ->
      let topo = random_graph n seed in
      let r = Routing.compute topo and successor, dist = reference_tables topo in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let d = Option.value ~default:infinity (Routing.distance r ~src ~dst) in
          ok :=
            !ok
            && Routing.successor r ~src ~dst = successor.(src).(dst)
            && Float.equal d dist.(src).(dst)
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Simulator *)

let test_sim_event_ordering () =
  let t = line_topology 2 in
  let r = Routing.compute t in
  let sim = Sim.create ~topology:t ~routing:r () in
  let log = ref [] in
  Sim.schedule sim ~delay:0.3 (fun () -> log := 3 :: !log);
  Sim.schedule sim ~delay:0.1 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:0.2 (fun () -> log := 2 :: !log);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "events processed" 3 (Sim.For_testing.events_processed sim)

let test_sim_fifo_at_equal_time () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:0.5 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_send_accounts_bytes_per_hop () =
  let t = line_topology 3 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let arrived = ref false in
  Sim.send sim ~src:0 ~dst:2 ~bytes:1000 (fun () -> arrived := true);
  Sim.run sim;
  check Alcotest.bool "arrived" true !arrived;
  (* 1000 bytes over two hops. *)
  check Alcotest.int "total bytes" 2000 (Sim.total_bytes sim);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair Alcotest.int Alcotest.int) Alcotest.int))
    "per link" [ ((0, 1), 1000); ((1, 2), 1000) ] (Sim.For_testing.link_bytes sim);
  (* Arrival time = 2 * (latency + bytes / bandwidth). *)
  check (Alcotest.float 1e-9) "clock" (2.0 *. (0.01 +. 0.001)) (Sim.now sim)

let test_sim_self_send () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let arrived = ref false in
  Sim.send sim ~src:0 ~dst:0 ~bytes:100 (fun () -> arrived := true);
  Sim.run sim;
  check Alcotest.bool "delivered" true !arrived;
  check Alcotest.int "no bytes on the wire" 0 (Sim.total_bytes sim)

let test_sim_until_limit () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr fired);
  Sim.schedule sim ~delay:3.0 (fun () -> incr fired);
  Sim.run ~until:2.0 sim;
  check Alcotest.int "only the first event" 1 !fired;
  Sim.run sim;
  check Alcotest.int "rest runs later" 2 !fired

(* The horizon is half-open: an event at exactly [until] stays queued,
   however often that run repeats, and the clock stays at the last event
   that ran. *)
let test_sim_until_half_open () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let fired = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> fired := 1 :: !fired);
  Sim.schedule sim ~delay:2.0 (fun () -> fired := 2 :: !fired);
  Sim.run ~until:2.0 sim;
  Sim.run ~until:2.0 sim;
  check (Alcotest.list Alcotest.int) "the event at until is still queued" [ 1 ] !fired;
  check (Alcotest.float 0.0) "clock at the last event run" 1.0 (Sim.now sim);
  Sim.run ~until:2.5 sim;
  check (Alcotest.list Alcotest.int) "it runs in the next window" [ 2; 1 ] !fired;
  check (Alcotest.float 0.0) "clock at its time" 2.0 (Sim.now sim);
  check Alcotest.int "two events processed" 2 (Sim.For_testing.events_processed sim)

let test_sim_unreachable_send_fails () =
  let t = Topology.create ~n:2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  Alcotest.check_raises "unreachable" (Failure "Sim.send: node 1 unreachable from 0")
    (fun () -> Sim.send sim ~src:0 ~dst:1 ~bytes:1 (fun () -> ()))

let prop_sim_heap_order =
  QCheck.Test.make ~name:"random delays fire in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_inclusive 10.0))
    (fun delays ->
      delays = [] ||
      begin
        let t = line_topology 2 in
        let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
        let fired = ref [] in
        List.iter (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := Sim.now sim :: !fired)) delays;
        Sim.run sim;
        let order = List.rev !fired in
        List.sort compare order = order
      end)

(* ------------------------------------------------------------------ *)
(* Transport — one conformance suite, run against both backends. *)

(* Each case takes a factory so every test gets a fresh transport. *)
let conformance mk =
  let test name f = Alcotest.test_case name `Quick (fun () -> f (mk ())) in
  [
    test "three nodes" (fun tr -> check Alcotest.int "nodes" 3 (Transport.nodes tr));
    test "schedule fires in timestamp order" (fun tr ->
        let log = ref [] in
        Transport.schedule tr ~delay:0.3 (fun () -> log := 3 :: !log);
        Transport.schedule tr ~delay:0.1 (fun () -> log := 1 :: !log);
        Transport.schedule tr ~delay:0.2 (fun () -> log := 2 :: !log);
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log));
    test "FIFO at equal time" (fun tr ->
        let log = ref [] in
        for i = 1 to 5 do
          Transport.schedule tr ~delay:0.5 (fun () -> log := i :: !log)
        done;
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    test "negative delay rejected" (fun tr ->
        match Transport.schedule tr ~delay:(-1.0) (fun () -> ()) with
        | () -> Alcotest.fail "negative delay accepted"
        | exception Invalid_argument _ -> ());
    test "send delivers through the queue, never synchronously" (fun tr ->
        let arrived = ref false in
        Transport.send tr ~src:0 ~dst:2 ~bytes:100 (fun () -> arrived := true);
        check Alcotest.bool "not yet" false !arrived;
        Transport.run tr;
        check Alcotest.bool "delivered" true !arrived);
    test "send counts messages and bytes" (fun tr ->
        Transport.send tr ~src:0 ~dst:2 ~bytes:100 (fun () -> ());
        Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ());
        Transport.run tr;
        check Alcotest.bool "messages" true (Transport.messages tr >= 2);
        check Alcotest.bool "bytes" true (Transport.total_bytes tr >= 150));
    test "broadcast reaches every node, origin included" (fun tr ->
        let seen = ref [] in
        Transport.broadcast tr ~src:1 ~bytes:10 (fun dst -> seen := dst :: !seen);
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "all nodes" [ 0; 1; 2 ]
          (List.sort compare !seen));
    test "run ?until keeps future events queued" (fun tr ->
        let fired = ref 0 in
        Transport.schedule tr ~delay:1.0 (fun () -> incr fired);
        Transport.schedule tr ~delay:3.0 (fun () -> incr fired);
        Transport.run ~until:2.0 tr;
        check Alcotest.int "only the first" 1 !fired;
        check Alcotest.bool "clock within limit" true (Transport.now tr <= 2.0);
        Transport.run tr;
        check Alcotest.int "rest runs later" 2 !fired);
    test "clock is monotone across deliveries" (fun tr ->
        let times = ref [] in
        Transport.schedule tr ~delay:0.2 (fun () -> times := Transport.now tr :: !times);
        Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () ->
            times := Transport.now tr :: !times);
        Transport.run tr;
        let order = List.rev !times in
        check Alcotest.bool "sorted" true (List.sort compare order = order));
  ]

let sim_transport () =
  let t = line_topology 3 in
  Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ())

let direct_transport () = Transport.direct ~nodes:3 ()

let test_of_sim_shares_sim_accounting () =
  let t = line_topology 3 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let tr = Transport.of_sim sim in
  check Alcotest.string "name" "sim" (Transport.name tr);
  Transport.send tr ~src:0 ~dst:2 ~bytes:1000 (fun () -> ());
  Transport.run tr;
  (* Per-hop accounting is the simulator's: two hops on the line. *)
  check Alcotest.int "bytes via transport" (Sim.total_bytes sim) (Transport.total_bytes tr);
  check Alcotest.int "two hops charged" 2000 (Transport.total_bytes tr);
  check (Alcotest.float 1e-9) "same clock" (Sim.now sim) (Transport.now tr)

let test_direct_zero_latency () =
  let tr = direct_transport () in
  check Alcotest.string "name" "direct" (Transport.name tr);
  let at = ref (-1.0) in
  Transport.send tr ~src:0 ~dst:2 ~bytes:500 (fun () -> at := Transport.now tr);
  Transport.run tr;
  check (Alcotest.float 1e-9) "arrives now" 0.0 !at;
  (* Flat per-message accounting: no hops, each message charged once. *)
  check Alcotest.int "bytes once" 500 (Transport.total_bytes tr);
  check Alcotest.int "one message" 1 (Transport.messages tr)

let test_direct_rejects_bad_args () =
  (match Transport.direct ~nodes:0 () with
  | _ -> Alcotest.fail "nodes = 0 accepted"
  | exception Invalid_argument _ -> ());
  let tr = direct_transport () in
  Alcotest.check_raises "dst out of range"
    (Failure "Transport.direct: node 5 out of range") (fun () ->
      Transport.send tr ~src:0 ~dst:5 ~bytes:1 (fun () -> ()))

let prop_direct_random_schedule_order =
  QCheck.Test.make ~name:"direct: random delays fire in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_inclusive 10.0))
    (fun delays ->
      delays = []
      ||
      let tr = direct_transport () in
      let fired = ref [] in
      List.iter
        (fun d -> Transport.schedule tr ~delay:d (fun () -> fired := Transport.now tr :: !fired))
        delays;
      Transport.run tr;
      let order = List.rev !fired in
      List.sort compare order = order)

(* ------------------------------------------------------------------ *)
(* Crash faults: the crashable wrapper and the reliable layer's channel
   state as data. *)

let test_crashable_cuts_deliveries () =
  let tr, control = Transport.crashable (Transport.direct ~nodes:3 ()) in
  check Alcotest.string "name" "crashable+direct" (Transport.name tr);
  let delivered = ref 0 in
  control.Transport.crash 1;
  check Alcotest.bool "node 1 down" false (control.Transport.is_up 1);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "only the up node heard" 1 !delivered;
  check Alcotest.int "suppression counted" 1 (Atomic.get control.Transport.crash_stats.suppressed);
  (* Bytes are still charged: the failure is at the receiver, not the wire. *)
  check Alcotest.int "bytes charged for both" 20 (Transport.total_bytes tr);
  control.Transport.restart 1;
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "delivers again after restart" 2 !delivered

let test_crashable_up_check_at_arrival () =
  (* A message in flight when its destination crashes dies with it: the
     up-check runs at arrival time, not send time. *)
  let t = line_topology 2 in
  let tr, control = Transport.crashable (Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ())) in
  let delivered = ref false in
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> delivered := true);
  (* The link latency is 2 ms; crash node 1 at 1 ms, while the message is
     on the wire. *)
  Transport.schedule tr ~delay:0.001 (fun () -> control.Transport.crash 1);
  Transport.run tr;
  check Alcotest.bool "in-flight message lost" false !delivered;
  check Alcotest.int "counted" 1 (Atomic.get control.Transport.crash_stats.suppressed)

let test_crashable_idempotent_and_ranged () =
  let _, control = Transport.crashable (Transport.direct ~nodes:2 ()) in
  control.Transport.crash 0;
  control.Transport.crash 0;
  check Alcotest.int "double crash counts once" 1 (Atomic.get control.Transport.crash_stats.crashes);
  control.Transport.restart 0;
  control.Transport.restart 0;
  check Alcotest.bool "up again" true (control.Transport.is_up 0);
  (match control.Transport.crash 7 with
  | () -> Alcotest.fail "out-of-range crash accepted"
  | exception Invalid_argument _ -> ());
  match control.Transport.is_up (-1) with
  | _ -> Alcotest.fail "out-of-range is_up accepted"
  | exception Invalid_argument _ -> ()

let reliable_world () =
  let rel = Reliable.wrap (Transport.direct ~nodes:3 ()) in
  let tr = Reliable.transport rel in
  for _ = 1 to 4 do
    Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ())
  done;
  Transport.send tr ~src:2 ~dst:0 ~bytes:50 (fun () -> ());
  Transport.run tr;
  (rel, tr)

let test_reliable_snapshot_roundtrip () =
  let rel, _ = reliable_world () in
  let sender = Reliable.snapshot rel ~node:0 in
  let receiver = Reliable.snapshot rel ~node:1 in
  (* Forget wipes the state a crash would take; restore rebuilds it, and a
     re-snapshot is byte-identical. *)
  Reliable.forget rel ~node:0;
  check Alcotest.bool "forget changed the sender state" true
    (Reliable.snapshot rel ~node:0 <> sender);
  Reliable.restore rel ~node:0 sender;
  check Alcotest.string "sender state round-trips" sender (Reliable.snapshot rel ~node:0);
  Reliable.forget rel ~node:1;
  Reliable.restore rel ~node:1 receiver;
  check Alcotest.string "receiver state round-trips" receiver (Reliable.snapshot rel ~node:1)

let test_reliable_restore_is_monotonic () =
  let rel, tr = reliable_world () in
  let old = Reliable.snapshot rel ~node:0 in
  (* Advance the channel past the snapshot, then replay the stale blob:
     nothing may move backwards. *)
  Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ());
  Transport.run tr;
  let fresh = Reliable.snapshot rel ~node:0 in
  check Alcotest.bool "the channel advanced" true (fresh <> old);
  Reliable.restore rel ~node:0 old;
  check Alcotest.string "stale restore is a no-op" fresh (Reliable.snapshot rel ~node:0)

let test_reliable_persist_observes_advances () =
  let rel = Reliable.wrap (Transport.direct ~nodes:2 ()) in
  let tr = Reliable.transport rel in
  let events = ref [] in
  Reliable.set_persist rel (fun field ~src ~dst ~seq -> events := (field, src, dst, seq) :: !events);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> ());
  Transport.run tr;
  check Alcotest.bool "one sender advance, then one watermark advance" true
    (List.rev !events = [ (Reliable.Next_seq, 0, 1, 1); (Reliable.Expected, 0, 1, 1) ])

let test_reliable_restore_rejects_garbage () =
  let rel, _ = reliable_world () in
  match Reliable.restore rel ~node:0 "not a snapshot" with
  | () -> Alcotest.fail "garbage accepted"
  | exception Dpc_util.Serialize.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Partition faults: the partitionable wrapper, outage plans, backoff
   arithmetic, and the suspension/resurrection path. *)

let test_partitionable_directed_links () =
  let tr, control = Transport.partitionable (Transport.direct ~nodes:3 ()) in
  check Alcotest.string "name" "partitionable+direct" (Transport.name tr);
  let delivered = ref 0 in
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  check Alcotest.bool "0->1 down" false (control.Transport.link_up ~src:0 ~dst:1);
  check Alcotest.bool "1->0 still up (directed)" true (control.Transport.link_up ~src:1 ~dst:0);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:1 ~dst:0 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "only the up links heard" 2 !delivered;
  let pstats = control.Transport.partition_stats in
  check Alcotest.int "loss counted" 1 (Atomic.get pstats.lost);
  (* Bytes are charged either way: the cut is at the receiver's side of
     the wire, not the sender's. *)
  check Alcotest.int "bytes charged for all three" 30 (Transport.total_bytes tr);
  (* Idempotence: re-cutting a down link is not a new cut. *)
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  check Alcotest.int "double cut counts once" 1 (Atomic.get pstats.cuts);
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  check Alcotest.int "double heal counts once" 1 (Atomic.get pstats.heals);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "delivers again after heal" 3 !delivered;
  (match control.Transport.set_link ~src:0 ~dst:7 ~up:false with
  | () -> Alcotest.fail "out-of-range set_link accepted"
  | exception Invalid_argument _ -> ());
  match control.Transport.link_up ~src:(-1) ~dst:0 with
  | _ -> Alcotest.fail "out-of-range link_up accepted"
  | exception Invalid_argument _ -> ()

let test_partition_cut_at_arrival () =
  (* A message in flight when its link goes down dies with it: the link
     check runs at arrival time, like the crashable up-check. *)
  let t = line_topology 2 in
  let tr, control =
    Transport.partitionable
      (Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ()))
  in
  let delivered = ref false in
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> delivered := true);
  Transport.schedule tr ~delay:0.001 (fun () -> control.Transport.set_link ~src:0 ~dst:1 ~up:false);
  Transport.run tr;
  check Alcotest.bool "in-flight message lost" false !delivered;
  check Alcotest.int "counted" 1 (Atomic.get control.Transport.partition_stats.lost)

let test_partition_plans () =
  (* Constructor validation. *)
  (match Transport.split_plan ~nodes:2 ~left:[ 0 ] ~at:2.0 ~duration:(-1.0) with
  | _ -> Alcotest.fail "inverted outage accepted"
  | exception Invalid_argument _ -> ());
  (match Transport.split_plan ~nodes:2 ~left:[ 0 ] ~at:(-1.0) ~duration:2.0 with
  | _ -> Alcotest.fail "negative outage accepted"
  | exception Invalid_argument _ -> ());
  (* A split cuts exactly the directed cross pairs, both ways. *)
  let split = Transport.split_plan ~nodes:4 ~left:[ 0; 1 ] ~at:1.0 ~duration:2.0 in
  check Alcotest.int "2x2 split cuts 8 directed links" 8 (List.length split);
  List.iter
    (fun (o : Transport.outage) ->
      let side n = List.mem n [ 0; 1 ] in
      check Alcotest.bool "cut crosses the split" true (side o.link_src <> side o.link_dst);
      check (Alcotest.float 1e-9) "cut at" 1.0 o.from;
      check (Alcotest.float 1e-9) "heal at" 3.0 o.until)
    split;
  check (Alcotest.float 1e-9) "split horizon" 3.0 (Dpc_testkit.Partition_plans.plan_horizon split);
  (* A flap is [cycles] windows per direction, dwell apart. *)
  let flap = Dpc_testkit.Partition_plans.flap_plan ~a:0 ~b:1 ~at:0.5 ~cycles:3 ~down:0.2 ~dwell:0.3 in
  check Alcotest.int "3 cycles x 2 directions" 6 (List.length flap);
  check (Alcotest.float 1e-9) "last flap heals at" (0.5 +. (2.0 *. 0.5) +. 0.2)
    (Dpc_testkit.Partition_plans.plan_horizon flap);
  (* Seeded-random plans are reproducible, in-horizon, and respect the
     duration bounds. *)
  let draw () =
    Dpc_testkit.Partition_plans.random_plan ~seed:42 ~nodes:4 ~count:5 ~horizon:10.0 ~min_down:0.5 ~max_down:2.0
      ~dwell:0.1 ()
  in
  let p1 = draw () and p2 = draw () in
  check Alcotest.bool "same seed, same plan" true (p1 = p2);
  check Alcotest.bool "a different seed diverges" true
    (p1
    <> Dpc_testkit.Partition_plans.random_plan ~seed:43 ~nodes:4 ~count:5 ~horizon:10.0 ~min_down:0.5
         ~max_down:2.0 ~dwell:0.1 ());
  check Alcotest.bool "plan non-empty" true (p1 <> []);
  List.iter
    (fun (o : Transport.outage) ->
      check Alcotest.bool "window inside horizon" true (o.from >= 0.0 && o.from <= 10.0);
      let d = o.until -. o.from in
      check Alcotest.bool "duration within bounds" true (d >= 0.5 && d <= 2.0);
      check Alcotest.bool "directed pair valid" true
        (o.link_src <> o.link_dst && o.link_src >= 0 && o.link_src < 4 && o.link_dst >= 0
       && o.link_dst < 4))
    p1

let test_schedule_plan_applies () =
  let tr, control = Transport.partitionable (Transport.direct ~nodes:2 ()) in
  Transport.schedule_plan tr control (Dpc_testkit.Partition_plans.link_plan ~a:0 ~b:1 ~at:1.0 ~duration:1.0);
  let during = ref 0 and after = ref 0 in
  Transport.schedule tr ~delay:1.5 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:5 (fun () -> incr during));
  Transport.schedule tr ~delay:2.5 (fun () ->
      Transport.send tr ~src:1 ~dst:0 ~bytes:5 (fun () -> incr after));
  Transport.run tr;
  check Alcotest.int "send during the outage lost" 0 !during;
  check Alcotest.int "send after the heal delivered" 1 !after;
  check Alcotest.int "both directions cut" 2 (Atomic.get control.Transport.partition_stats.cuts);
  check Alcotest.int "both directions healed" 2
    (Atomic.get control.Transport.partition_stats.heals)

let test_backoff_arithmetic () =
  (* No jitter: pure capped exponential. timeout 0.125 doubles to exactly
     the 1.0 cap on the 4th attempt; later attempts stay pinned there. *)
  let config =
    { Reliable.default_config with timeout = 0.125; backoff = 2.0; max_timeout = 1.0 }
  in
  let d attempt = Reliable.For_testing.backoff_delay config ~src:0 ~dst:1 ~attempt in
  check (Alcotest.float 0.0) "attempt 1" 0.125 (d 1);
  check (Alcotest.float 0.0) "attempt 2" 0.25 (d 2);
  check (Alcotest.float 0.0) "attempt 3" 0.5 (d 3);
  check (Alcotest.float 0.0) "cap reached exactly" 1.0 (d 4);
  check (Alcotest.float 0.0) "cap holds" 1.0 (d 7);
  (* Jitter: deterministic per (src, dst, attempt), inside
     ((1-jitter) * capped, capped]. *)
  let jc = { config with jitter = 0.5 } in
  let jd ~src ~dst attempt = Reliable.For_testing.backoff_delay jc ~src ~dst ~attempt in
  check (Alcotest.float 0.0) "jitter is deterministic" (jd ~src:0 ~dst:1 4) (jd ~src:0 ~dst:1 4);
  check Alcotest.bool "channels draw different jitter" true
    (jd ~src:0 ~dst:1 4 <> jd ~src:0 ~dst:2 4);
  check Alcotest.bool "attempts draw different jitter" true
    (jd ~src:0 ~dst:1 4 <> jd ~src:0 ~dst:1 5 || jd ~src:0 ~dst:1 5 = 1.0);
  for attempt = 1 to 8 do
    let v = jd ~src:0 ~dst:1 attempt in
    let capped = d attempt in
    check Alcotest.bool "jittered below the cap" true (v <= capped);
    check Alcotest.bool "jittered above the floor" true (v > 0.5 *. capped)
  done;
  (* wrap rejects jitter outside [0, 1). *)
  (match Reliable.wrap ~config:{ config with jitter = 1.0 } (Transport.direct ~nodes:2 ()) with
  | _ -> Alcotest.fail "jitter = 1 accepted"
  | exception Invalid_argument _ -> ());
  match Reliable.wrap ~config:{ config with jitter = -0.1 } (Transport.direct ~nodes:2 ()) with
  | _ -> Alcotest.fail "negative jitter accepted"
  | exception Invalid_argument _ -> ()

(* The wedge regression: before suspension/resurrection, a partition
   outlasting the retry budget abandoned the channel's tail permanently —
   delivery never happened even after the heal. Now the channel parks
   after exactly [max_retries] retransmissions, probes, and re-offers on
   heal. *)
let test_suspension_and_resurrection () =
  let config =
    { Reliable.timeout = 0.1; backoff = 2.0; max_timeout = 10.0; max_retries = 3; jitter = 0.0 }
  in
  let inner, control = Transport.partitionable (Transport.direct ~nodes:2 ()) in
  let rel = Reliable.wrap ~config inner in
  let tr = Reliable.transport rel in
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  let delivered = ref 0 in
  Transport.send tr ~src:0 ~dst:1 ~bytes:20 (fun () -> incr delivered);
  (* Retransmits land at 0.1, 0.3, 0.7; the park decision fires at 1.5.
     Just before it, the budget is exhausted but the channel is live. *)
  Transport.run ~until:1.4 tr;
  let s = Reliable.stats rel in
  check Alcotest.int "exactly max_retries retransmissions" 3 s.retransmits;
  check Alcotest.int "not yet suspended" 0 s.suspensions;
  Transport.run ~until:2.0 tr;
  let s = Reliable.stats rel in
  check Alcotest.int "no retransmission past the budget" 3 s.retransmits;
  check Alcotest.int "channel suspended" 1 s.suspensions;
  check Alcotest.int "message parked" 1 s.abandoned;
  check Alcotest.int "park counted" 1 s.parked;
  check Alcotest.int "one channel suspended" 1 (Reliable.suspended_channels rel);
  check Alcotest.int "nothing delivered through the cut" 0 !delivered;
  (* Heal. The next probe crosses, the pong comes back, the channel
     resurrects and re-offers its tail. *)
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  Transport.run tr;
  let s = Reliable.stats rel in
  check Alcotest.int "delivered exactly once after the heal" 1 !delivered;
  check Alcotest.int "resurrected" 1 s.resurrections;
  check Alcotest.int "nothing left parked" 0 s.abandoned;
  check Alcotest.int "no channel suspended" 0 (Reliable.suspended_channels rel);
  check Alcotest.bool "probes were sent" true (s.probes > 0)

let test_tree_invalid_args () =
  let rng = Dpc_util.Rng.create ~seed:1 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Tree_topo.generate: n must be positive")
    (fun () -> ignore (Tree_topo.generate ~rng ~n:0 ~backbone_depth:0 ~link));
  Alcotest.check_raises "backbone too deep"
    (Invalid_argument "Tree_topo.generate: backbone_depth out of range") (fun () ->
      ignore (Tree_topo.generate ~rng ~n:5 ~backbone_depth:5 ~link))

let test_transit_stub_invalid_args () =
  let rng = Dpc_util.Rng.create ~seed:1 in
  Alcotest.check_raises "zero transit"
    (Invalid_argument "Transit_stub.generate: counts must be positive") (fun () ->
      ignore (Transit_stub.generate ~rng { Transit_stub.paper_params with transit = 0 }))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* The receive window's bound on a direct transport: the channel's first
   transmission is lost, so the next [Reliable.For_testing.window] arrivals wait in
   the window and the one after them finds it full. That arrival is
   dropped unacked, and its retransmission delivers it after the gap has
   filled, exactly once and in order. *)
let test_reliable_window_bound () =
  let first = ref true in
  let decide ~src ~dst ~bytes:_ =
    if src = 0 && dst = 1 && !first then begin
      first := false;
      Transport.F_drop
    end
    else Transport.F_deliver
  in
  let lossy, _ = Transport.faulty_with ~decide (Transport.direct ~nodes:2 ()) in
  let rel = Reliable.wrap lossy in
  let tr = Reliable.transport rel in
  let got = ref [] in
  let count = Reliable.For_testing.window + 2 in
  for i = 0 to count - 1 do
    Transport.send tr ~src:0 ~dst:1 ~bytes:8 (fun () -> got := i :: !got)
  done;
  Transport.run ~until:(Reliable.default_config.timeout /. 2.0) tr;
  let s = Reliable.stats rel in
  check Alcotest.int "nothing delivered behind the gap" 0 (List.length !got);
  check Alcotest.int "the window holds its bound" Reliable.For_testing.window s.held;
  check Alcotest.int "the arrival past it is not held" Reliable.For_testing.window (Reliable.For_testing.window_peak rel);
  check Alcotest.int "and nothing is acked" 0 s.acks;
  Transport.run tr;
  check (Alcotest.list Alcotest.int) "every message once, in order" (List.init count Fun.id)
    (List.rev !got);
  check Alcotest.int "the watermark covers them all" count (Reliable.delivered rel ~src:0 ~dst:1)

let () =
  Alcotest.run "dpc_net"
    [
      ( "topology",
        [
          Alcotest.test_case "links" `Quick test_topology_links;
          Alcotest.test_case "rejects bad links" `Quick test_topology_rejects_bad_links;
          Alcotest.test_case "connectivity" `Quick test_topology_connectivity;
        ] );
      ( "transit_stub",
        [
          Alcotest.test_case "shape" `Quick test_transit_stub_shape;
          Alcotest.test_case "link classes" `Quick test_transit_stub_link_classes;
          Alcotest.test_case "path stats near paper" `Quick
            test_transit_stub_path_stats_close_to_paper;
          Alcotest.test_case "deterministic" `Quick test_transit_stub_deterministic;
          Alcotest.test_case "invalid args" `Quick test_transit_stub_invalid_args;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shape" `Quick test_tree_shape;
          Alcotest.test_case "children inverse" `Quick test_tree_children_inverse_of_parent;
          Alcotest.test_case "invalid args" `Quick test_tree_invalid_args;
        ] );
      ( "routing",
        [
          Alcotest.test_case "line" `Quick test_routing_line;
          Alcotest.test_case "prefers low latency" `Quick test_routing_prefers_low_latency;
          Alcotest.test_case "unreachable" `Quick test_routing_unreachable;
          Alcotest.test_case "paths follow links" `Quick test_routing_paths_follow_links;
          Alcotest.test_case "paper tables pinned" `Quick test_routing_paper_tables;
        ]
        @ qsuite [ prop_routing_reference ] );
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_sim_event_ordering;
          Alcotest.test_case "FIFO at equal time" `Quick test_sim_fifo_at_equal_time;
          Alcotest.test_case "per-hop byte accounting" `Quick test_sim_send_accounts_bytes_per_hop;
          Alcotest.test_case "self send" `Quick test_sim_self_send;
          Alcotest.test_case "until limit" `Quick test_sim_until_limit;
          Alcotest.test_case "until is half-open" `Quick test_sim_until_half_open;
          Alcotest.test_case "unreachable send" `Quick test_sim_unreachable_send_fails;
        ]
        @ qsuite [ prop_sim_heap_order ] );
      ("transport conformance (sim)", conformance sim_transport);
      ("transport conformance (direct)", conformance direct_transport);
      ( "transport backends",
        [
          Alcotest.test_case "of_sim shares accounting" `Quick test_of_sim_shares_sim_accounting;
          Alcotest.test_case "direct zero latency" `Quick test_direct_zero_latency;
          Alcotest.test_case "direct rejects bad args" `Quick test_direct_rejects_bad_args;
        ]
        @ qsuite [ prop_direct_random_schedule_order ] );
      ( "crash faults",
        [
          Alcotest.test_case "crashable cuts deliveries" `Quick test_crashable_cuts_deliveries;
          Alcotest.test_case "up-check at arrival" `Quick test_crashable_up_check_at_arrival;
          Alcotest.test_case "idempotent + range checks" `Quick
            test_crashable_idempotent_and_ranged;
          Alcotest.test_case "channel snapshot round-trips" `Quick
            test_reliable_snapshot_roundtrip;
          Alcotest.test_case "stale restore is a no-op" `Quick test_reliable_restore_is_monotonic;
          Alcotest.test_case "persist observes advances" `Quick
            test_reliable_persist_observes_advances;
          Alcotest.test_case "garbage snapshot rejected" `Quick
            test_reliable_restore_rejects_garbage;
          Alcotest.test_case "receive window bound" `Quick test_reliable_window_bound;
        ] );
      ( "partition faults",
        [
          Alcotest.test_case "directed links + counters" `Quick test_partitionable_directed_links;
          Alcotest.test_case "cut at arrival" `Quick test_partition_cut_at_arrival;
          Alcotest.test_case "plan constructors" `Quick test_partition_plans;
          Alcotest.test_case "schedule_plan applies" `Quick test_schedule_plan_applies;
          Alcotest.test_case "backoff arithmetic" `Quick test_backoff_arithmetic;
          Alcotest.test_case "suspension + resurrection (wedge regression)" `Quick
            test_suspension_and_resurrection;
        ] );
    ]
