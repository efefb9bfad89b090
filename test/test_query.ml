(* Query serving tier tests.

   Covers the memoization cache (unit semantics: hit/miss, generation
   staleness, down-dependency handling, LRU eviction, metrics ticks, the
   dependency snapshot's bound), the §5.5 slow-update invalidation
   regression (delete a route, the flush must evict the affected entries
   and the next query must rebuild rather than serve stale trees),
   proof-tree pagination properties over generated instances (pages
   concatenate to the full forest, top-k is a prefix, cursors survive
   checkpoint/restore, bad cursors surface), golden trees and cursors
   with a cursor fuzz, the analytic query-cost drift identity, and the
   seeded Zipfian storm sweep (quick by default; DPC_QUERIES_FULL=1 —
   `make queries` — runs every scheme at full size). *)

open Dpc_core
open Dpc_testkit
open Dpc_workload

let check = Alcotest.check

(* A cursor names a tree by the documented [dpc-cursor-v1] format: the
   hex SHA-1 of the tree's canonical rendering. *)
let cursor_of_tree tree =
  "dpc-cursor-v1:" ^ Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (Prov_tree.to_string tree))

let all_schemes =
  [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let sha = Dpc_util.Sha1.digest_string

(* ------------------------------------------------------------------ *)
(* Cache unit semantics. Entries can carry any tree list, including [];
   these tests never need real trees. *)

type tick = { node : int; name : string; by : int }

let make_cache ?capacity () =
  let ticks = ref [] in
  let cache =
    Query_cache.create ?capacity
      ~tick:(fun ~node name by -> ticks := { node; name; by } :: !ticks)
      ()
  in
  (cache, ticks)

let ticked ticks name =
  List.fold_left (fun acc t -> if t.name = name then acc + t.by else acc) 0 !ticks

let all_up _ = true

let test_cache_hit_miss () =
  let cache, ticks = make_cache () in
  let key = Query_cache.key ~loc:3 ~rid:(sha "r") ~ctx:"ctx" in
  let gen _ = 7 in
  (match Query_cache.find cache ~querier:0 ~up:all_up ~gen key with
  | Some _ -> Alcotest.fail "hit on an empty cache"
  | None -> ());
  Query_cache.add cache ~querier:0 ~gen ~touched:[ 1; 2 ] key [];
  (match Query_cache.find cache ~querier:0 ~up:all_up ~gen key with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "hit returned different trees"
  | None -> Alcotest.fail "miss right after add");
  let s = Query_cache.stats cache in
  check Alcotest.int "hits" 1 s.hits;
  check Alcotest.int "misses" 1 s.misses;
  check Alcotest.int "size" 1 s.size;
  check Alcotest.int "invalidations" 0 s.invalidations;
  check Alcotest.int "hit tick" 1 (ticked ticks "query.cache.hit");
  check Alcotest.int "miss tick" 1 (ticked ticks "query.cache.miss")

let test_cache_key_disambiguates () =
  (* Same root, different context (e.g. two events of one equivalence
     class) must not collide. *)
  let k1 = Query_cache.key ~loc:1 ~rid:(sha "r") ~ctx:Dpc_util.Sha1.(to_raw (sha "e1"))
  and k2 = Query_cache.key ~loc:1 ~rid:(sha "r") ~ctx:Dpc_util.Sha1.(to_raw (sha "e2"))
  and k3 = Query_cache.key ~loc:2 ~rid:(sha "r") ~ctx:Dpc_util.Sha1.(to_raw (sha "e1")) in
  if k1 = k2 || k1 = k3 || k2 = k3 then Alcotest.fail "cache keys collided"

let test_cache_generation_staleness () =
  let cache, ticks = make_cache () in
  let key = Query_cache.key ~loc:0 ~rid:(sha "r") ~ctx:"" in
  Query_cache.add cache ~querier:0 ~gen:(fun _ -> 7) ~touched:[ 1 ] key [];
  (* Node 1 accepted a write since the entry was recorded. *)
  (match Query_cache.find cache ~querier:0 ~up:all_up ~gen:(fun _ -> 8) key with
  | Some _ -> Alcotest.fail "served a stale entry"
  | None -> ());
  let s = Query_cache.stats cache in
  check Alcotest.int "entry dropped" 0 s.size;
  check Alcotest.int "counted as invalidation" 1 s.invalidations;
  check Alcotest.int "and as a miss" 1 s.misses;
  (* The lazily-detected staleness tick lands at the querier. *)
  check Alcotest.bool "invalidate ticked at the querier" true
    (List.exists (fun t -> t.name = "query.cache.invalidate" && t.node = 0) !ticks)

let test_cache_down_dep_is_miss_not_drop () =
  let cache, _ = make_cache () in
  let key = Query_cache.key ~loc:0 ~rid:(sha "r") ~ctx:"" in
  let gen _ = 7 in
  Query_cache.add cache ~querier:0 ~gen ~touched:[ 1; 2 ] key [];
  (* Node 2 is down: the lookup must miss (the real walk then degrades
     exactly like cache-off), but the entry survives the outage. *)
  (match Query_cache.find cache ~querier:0 ~up:(fun n -> n <> 2) ~gen key with
  | Some _ -> Alcotest.fail "served an entry with a down dependency"
  | None -> ());
  check Alcotest.int "entry kept" 1 (Query_cache.stats cache).size;
  (match Query_cache.find cache ~querier:0 ~up:all_up ~gen key with
  | Some _ -> ()
  | None -> Alcotest.fail "entry gone after the node came back")

let test_cache_invalidate_node () =
  let cache, _ = make_cache () in
  let k1 = Query_cache.key ~loc:0 ~rid:(sha "a") ~ctx:""
  and k2 = Query_cache.key ~loc:0 ~rid:(sha "b") ~ctx:"" in
  Query_cache.add cache ~querier:0 ~gen:(fun _ -> 7) ~touched:[ 1 ] k1 [];
  Query_cache.add cache ~querier:0 ~gen:(fun _ -> 7) ~touched:[ 2 ] k2 [];
  Query_cache.invalidate_node cache 1;
  let s = Query_cache.stats cache in
  check Alcotest.int "only the dependent entry dropped" 1 s.size;
  check Alcotest.int "one invalidation" 1 s.invalidations;
  (match Query_cache.find cache ~querier:0 ~up:all_up ~gen:(fun _ -> 7) k2 with
  | Some _ -> ()
  | None -> Alcotest.fail "independent entry was dropped")

let test_cache_eviction () =
  let cache, ticks = make_cache ~capacity:4 () in
  for i = 1 to 5 do
    Query_cache.add cache ~querier:0 ~gen:(fun _ -> 1) ~touched:[ 0 ]
      (Query_cache.key ~loc:i ~rid:(sha (string_of_int i)) ~ctx:"")
      []
  done;
  let s = Query_cache.stats cache in
  check Alcotest.bool "evictions happened" true (s.evictions > 0);
  check Alcotest.bool "size back under capacity" true (s.size <= 4);
  check Alcotest.bool "evict ticked" true (ticked ticks "query.cache.evict" > 0);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Query_cache.create: capacity must be positive") (fun () ->
      ignore (Query_cache.create ~capacity:0 ~tick:(fun ~node:_ _ _ -> ()) ()))

(* ------------------------------------------------------------------ *)
(* A small forwarding world shared by the integration tests: 3-node
   line, a handful of packets, queryable recv outputs at node 2. *)

let line_routes =
  [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
    Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]

let line_routing () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  Dpc_net.Routing.compute topo

let forwarding_world scheme payloads =
  let routing = line_routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create
      ~transport:(Dpc_net.Transport.direct ~nodes:3 ())
      ~delp ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime line_routes;
  List.iter
    (fun p ->
      Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:p))
    payloads;
  Dpc_engine.Runtime.run runtime;
  (backend, runtime, routing)

let recv p = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:p

let tree_sigs (r : Query_result.t) =
  List.map (fun t -> Prov_tree.to_string t) r.trees

let test_backend_cache_metrics () =
  let backend, _, routing = forwarding_world Backend.S_advanced [ "a"; "b" ] in
  check Alcotest.bool "no cache by default" true
    (Option.is_none (Backend.query_cache backend));
  let cache = Backend.attach_query_cache backend in
  check Alcotest.bool "attached" true
    (match Backend.query_cache backend with Some c -> c == cache | None -> false);
  let q p = ignore (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing (recv p)) in
  q "a";
  q "a";
  (* Queries run at the querier — node 2, the recv location — so the
     hit/miss ticks land in that node's registry. *)
  let m = Dpc_engine.Node.metrics (Backend.nodes backend).(2) in
  check Alcotest.bool "miss counted on querier" true
    (Dpc_util.Metrics.counter_value m "query.cache.miss" > 0);
  check Alcotest.bool "hit counted on querier" true
    (Dpc_util.Metrics.counter_value m "query.cache.hit" > 0);
  Backend.detach_query_cache backend;
  check Alcotest.bool "detached" true (Option.is_none (Backend.query_cache backend))

(* ------------------------------------------------------------------ *)
(* §5.5 invalidation regression: populate the cache, delete a route (a
   slow-update sig broadcast), and the affected entries must be evicted —
   the next query rebuilds from the store instead of serving the
   pre-flush trees, and agrees byte-for-byte with a cache-off query. *)

let test_sig_flush_invalidates name scheme =
  let payloads = [ "a"; "b"; "c" ] in
  let backend, runtime, routing = forwarding_world scheme payloads in
  let q p = Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing (recv p) in
  let baseline = List.map (fun p -> tree_sigs (q p)) payloads in
  List.iter
    (fun sigs -> check Alcotest.bool (name ^ ": baseline non-empty") true (sigs <> []))
    baseline;
  let cache = Backend.attach_query_cache backend in
  let populate = List.map (fun p -> tree_sigs (q p)) payloads in
  check Alcotest.bool (name ^ ": populating pass identical") true (populate = baseline);
  ignore (List.map (fun p -> tree_sigs (q p)) payloads);
  let before = Query_cache.stats cache in
  check Alcotest.bool (name ^ ": repeat pass hit") true (before.hits > 0);
  (* The §5.5 slow update: delete one route. The sig broadcast reaches
     every node and must flush the entries built over it. *)
  let refreshed = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 in
  check Alcotest.bool (name ^ ": route was present") true
    (Dpc_engine.Runtime.delete_slow_runtime runtime refreshed);
  Dpc_engine.Runtime.run runtime;
  let after = Query_cache.stats cache in
  check Alcotest.bool (name ^ ": flush evicted cached entries") true
    (after.invalidations > before.invalidations);
  (* Re-query with the cache on, then with it off: both views of the
     post-flush store must agree — stale trees would differ here. *)
  let rebuilt_on = List.map (fun p -> tree_sigs (q p)) payloads in
  let rebuilt_misses = (Query_cache.stats cache).misses in
  check Alcotest.bool (name ^ ": re-query rebuilt, not served") true
    (rebuilt_misses > after.misses || rebuilt_on = []);
  Backend.detach_query_cache backend;
  let rebuilt_off = List.map (fun p -> tree_sigs (q p)) payloads in
  check Alcotest.bool (name ^ ": cache-on equals cache-off after flush") true
    (rebuilt_on = rebuilt_off);
  (* Reinsert completes the fig11 refresh; the world must heal back to
     the original trees with the cache reattached. *)
  ignore (Backend.attach_query_cache backend);
  Dpc_engine.Runtime.insert_slow_runtime runtime refreshed;
  Dpc_engine.Runtime.run runtime;
  let healed = List.map (fun p -> tree_sigs (q p)) payloads in
  check Alcotest.bool (name ^ ": healed after reinsert") true (healed = baseline)

(* ------------------------------------------------------------------ *)
(* Pagination properties over generated instances. The pool under test
   is every tree of every output of a world — large enough for real
   multi-page traversals. *)

let world_tree_pool (w : Delp_gen.world) =
  List.map (fun (out, _) -> out) (Dpc_engine.Runtime.outputs w.runtime)
  |> List.sort_uniq Dpc_ndlog.Tuple.compare
  |> List.concat_map (fun out ->
       (Backend.query w.backend ~cost:Dpc_testkit.Query_kit.free ~routing:w.routing out).trees)
  |> Query_result.dedup_trees

let trees_equal a b =
  List.length a = List.length b && List.for_all2 Prov_tree.equal a b

let paginate_all ?(limit = 1) pool =
  let rec walk cursor acc rounds =
    if rounds > List.length pool + 2 then Alcotest.fail "pagination did not terminate";
    let p = Query_result.For_testing.paginate ?cursor ~limit pool in
    check Alcotest.int "page_total is the pool size" (List.length pool) p.page_total;
    check Alcotest.bool "page is bounded" true (List.length p.page_trees <= limit);
    let acc = acc @ p.page_trees in
    match p.next_cursor with
    | None -> acc
    | Some c -> walk (Some c) acc (rounds + 1)
  in
  walk None [] 0

let test_pagination_properties () =
  let pools = ref 0 in
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      List.iter
        (fun scheme ->
          let w = Delp_gen.build_world instance scheme in
          Delp_gen.run_events w instance.events;
          let pool = world_tree_pool w in
          if List.length pool >= 2 then incr pools;
          List.iter
            (fun limit ->
              if not (trees_equal pool (paginate_all ~limit pool)) then
                Alcotest.failf "seed %d, %s, limit %d: concatenated pages <> full forest" seed
                  (Backend.scheme_name scheme) limit)
            [ 1; 2; 3 ])
        [ Backend.S_exspan; Backend.S_advanced ])
    [ 1; 2; 3; 4; 5 ];
  (* The property is vacuous on single-tree pools. *)
  check Alcotest.bool "some pools were multi-page" true (!pools > 0)

let test_pagination_errors () =
  let backend, _, routing = forwarding_world Backend.S_basic [ "a"; "b" ] in
  let trees p = (Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing (recv p)).trees in
  let pool = trees "a" in
  check Alcotest.bool "have a tree" true (pool <> []);
  Alcotest.check_raises "limit 0"
    (Invalid_argument "Query_result.paginate: limit must be positive") (fun () ->
      ignore (Query_result.For_testing.paginate ~limit:0 pool));
  Alcotest.check_raises "malformed cursor"
    (Invalid_argument "Query_result.paginate: malformed cursor") (fun () ->
      ignore (Query_result.For_testing.paginate ~cursor:"bogus" ~limit:1 pool));
  (* A cursor from a different result set names no tree here. *)
  let foreign = cursor_of_tree (List.hd (trees "b")) in
  Alcotest.check_raises "stale cursor"
    (Invalid_argument "Query_result.paginate: unknown or stale cursor") (fun () ->
      ignore (Query_result.For_testing.paginate ~cursor:foreign ~limit:1 pool));
  (* The same errors surface on a paginated backend query. *)
  Alcotest.check_raises "query then paginate"
    (Invalid_argument "Query_result.paginate: malformed cursor") (fun () ->
      let r = Backend.query backend ~cost:Dpc_testkit.Query_kit.free ~routing (recv "a") in
      ignore (Query_result.For_testing.paginate ~cursor:"bogus" ~limit:1 r.trees))

(* Cursors survive a restart: re-issuing a pre-checkpoint cursor against
   the restored store resumes at exactly the same position. *)
let test_cursor_survives_restart name scheme =
  let multi = ref false in
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      let w = Delp_gen.build_world instance scheme in
      Delp_gen.run_events w instance.events;
      let pool = world_tree_pool w in
      if List.length pool >= 2 then begin
        multi := true;
        let first = Query_result.For_testing.paginate ~limit:1 pool in
        let cursor = Option.get first.next_cursor in
        let rest_before = Query_result.For_testing.paginate ~cursor ~limit:(List.length pool) pool in
        (* Restart: serialize, rebuild, recompute the pool from the
           restored backend, re-issue the same cursor string. *)
        let blob = Backend.checkpoint w.backend in
        let restored =
          Backend.For_testing.restore scheme ~delp:instance.Delp_gen.delp ~env:Dpc_engine.Env.empty blob
        in
        let pool' =
          List.map (fun (out, _) -> out) (Dpc_engine.Runtime.outputs w.runtime)
          |> List.sort_uniq Dpc_ndlog.Tuple.compare
          |> List.concat_map (fun out ->
               (Backend.query restored ~cost:Dpc_testkit.Query_kit.free ~routing:w.routing out).trees)
          |> Query_result.dedup_trees
        in
        let rest_after = Query_result.For_testing.paginate ~cursor ~limit:(List.length pool') pool' in
        if not (trees_equal rest_before.page_trees rest_after.page_trees) then
          Alcotest.failf "%s seed %d: cursor resumed at a different position after restart" name
            seed
      end)
    [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool (name ^ ": a multi-tree pool occurred") true !multi

(* ------------------------------------------------------------------ *)
(* Boundaries of the cache's eviction and of the chain walk. *)

(* An overflow by one entry drops the least recently used half: with a
   capacity of 4, the two most recently used of the five entries stay.
   Using an entry makes it recent. *)
let test_cache_eviction_keeps_recent_half () =
  let key i = Query_cache.key ~loc:i ~rid:(sha (string_of_int i)) ~ctx:"" in
  let gen _ = 1 in
  let survivors ~hit =
    let cache, _ = make_cache ~capacity:4 () in
    for i = 1 to 4 do
      Query_cache.add cache ~querier:0 ~gen ~touched:[ 0 ] (key i) []
    done;
    Option.iter
      (fun i -> ignore (Query_cache.find cache ~querier:0 ~up:all_up ~gen (key i)))
      hit;
    Query_cache.add cache ~querier:0 ~gen ~touched:[ 0 ] (key 5) [];
    check Alcotest.int "three evicted" 3 (Query_cache.stats cache).evictions;
    List.filter
      (fun i -> Query_cache.find cache ~querier:0 ~up:all_up ~gen (key i) <> None)
      [ 1; 2; 3; 4; 5 ]
  in
  check Alcotest.(list int) "the two newest stay" [ 4; 5 ] (survivors ~hit:None);
  check Alcotest.(list int) "a used entry stays with the newest" [ 1; 5 ] (survivors ~hit:(Some 1))

(* The chain walk collects at most 64 chains. A synthetic step: the root
   row branches into 100 children, and each child is a leaf, so each
   branch is one chain; the leaf, called once per chain collected,
   abandons every one. *)
let test_chain_walk_cap () =
  let root = sha "root" in
  let row rid = { Rows.rloc = 0; rid; rule = "r"; vids = [||]; next = No_back } in
  let leaves = ref 0 in
  let chain =
    {
      Query_acct.step =
        (fun _ _ rid emit ->
          if Dpc_util.Sha1.equal rid root then
            for i = 1 to 100 do
              emit (row rid) (Back { node = 0; rid = sha (string_of_int i) })
            done
          else emit (row rid) No_back);
      leaf =
        (fun _ _ _ ->
          incr leaves;
          raise (Query_acct.Broken "synthetic"));
      slow = (fun _ -> Side_store.create ());
      plans = [];
    }
  in
  let acct =
    Query_acct.create ~cost:Dpc_testkit.Query_kit.free ~routing:(line_routing ()) ~up:all_up ~querier:0
      ~degraded:ignore
  in
  let prov = { Rows.loc = 0; vid = sha "out"; rid = Back { node = 0; rid = root }; evid = None } in
  let trees = Query_acct.chain_walk chain acct ~querier:0 ~output:(recv "a") prov in
  check Alcotest.int "no tree re-derives" 0 (List.length trees);
  check Alcotest.int "64 chains collected" 64 !leaves

(* ------------------------------------------------------------------ *)
(* The snapshot's bound. One memoized walk from querier 0 that reads
   [node], under a stub [gen]: a node or generation that fits its field
   is cached, and dropped once its generation moves; one past the field
   is not cached, and the walk's trees are returned all the same. *)

let memo_walk cache ~gen node trees =
  let acct =
    Query_acct.create ~cost:Dpc_testkit.Query_kit.free ~routing:(line_routing ()) ~up:all_up ~querier:0
      ~degraded:ignore
  in
  Query_acct.memo (Some cache) acct ~gen ~rloc:0 ~rid:(sha "r") ~ctx:"" (fun () ->
      Query_acct.require_up acct node;
      trees)

let test_cache_snapshot_bound () =
  let trees =
    [ Prov_tree.Event { rule = "r1"; output = recv "a"; slow = []; event = recv "a" } ]
  in
  let walk what cache ~gen node =
    if not (trees_equal trees (memo_walk cache ~gen node trees)) then
      Alcotest.failf "%s: the walk's trees changed" what
  in
  let expect what cache ~size ~hits ~invalidations =
    let s = Query_cache.stats cache in
    check Alcotest.(triple int int int) what (size, hits, invalidations)
      (s.size, s.hits, s.invalidations)
  in
  let g = Query_cache.For_testing.max_gen and n = Query_cache.For_testing.max_node in
  (* The largest generation is cached and served; one more write at the
     node drops the entry, and the walk at the new generation, past the
     field, is not cached. *)
  let cache, _ = make_cache () in
  walk "largest generation" cache ~gen:(fun _ -> g) 1;
  walk "largest generation, again" cache ~gen:(fun _ -> g) 1;
  expect "largest generation: cached and hit" cache ~size:1 ~hits:1 ~invalidations:0;
  walk "generation moved past the field" cache ~gen:(fun _ -> g + 1) 1;
  expect "generation moved: dropped, not re-cached" cache ~size:0 ~hits:1 ~invalidations:1;
  let cache, _ = make_cache () in
  walk "generation past the field" cache ~gen:(fun _ -> g + 1) 1;
  expect "generation past the field: not cached" cache ~size:0 ~hits:0 ~invalidations:0;
  (* The largest node is cached and served, is dropped when its generation
     moves, and only an invalidation of that very node drops it. *)
  let cache, _ = make_cache () in
  walk "largest node" cache ~gen:(fun _ -> 7) n;
  walk "largest node, again" cache ~gen:(fun _ -> 7) n;
  expect "largest node: cached and hit" cache ~size:1 ~hits:1 ~invalidations:0;
  walk "largest node, generation moved" cache ~gen:(fun _ -> 8) n;
  expect "largest node, generation moved: dropped and re-cached" cache ~size:1 ~hits:1
    ~invalidations:1;
  Query_cache.invalidate_node cache (n - 1);
  expect "another node's invalidation keeps it" cache ~size:1 ~hits:1 ~invalidations:1;
  Query_cache.invalidate_node cache n;
  expect "its own invalidation drops it" cache ~size:0 ~hits:1 ~invalidations:2;
  let cache, _ = make_cache () in
  walk "node past the field" cache ~gen:(fun _ -> 7) (n + 1);
  expect "node past the field: not cached" cache ~size:0 ~hits:0 ~invalidations:0

(* ------------------------------------------------------------------ *)
(* Tree and cursor fixtures. Under every scheme, for the tree pool of one
   generated instance and the trees of one DNS reply: each tree's
   [dpc-cursor-v1] cursor, its [Prov_tree.to_string] and its
   [Delp_gen.tree_shape], the cursors of a limit-1 walk through the pool,
   and the pool's [Prov_dot] rendering. The files under fixtures/ were
   written before the tree representation last changed, and must be
   reproduced byte for byte. A mismatch leaves [<fixture>.actual] beside
   the test binary; review it and copy it over the fixture. *)

let tree_fixture_seed = 2

let render_pool b scheme pool =
  Printf.bprintf b "scheme %s: %d trees\n" (Backend.scheme_name scheme) (List.length pool);
  List.iteri
    (fun i tree ->
      Printf.bprintf b "tree %d %s\nshape %s\n%s\n" i (cursor_of_tree tree)
        (Delp_gen.tree_shape tree) (Prov_tree.to_string tree))
    pool;
  let rec walk cursor =
    match (Query_result.For_testing.paginate ?cursor ~limit:1 pool).next_cursor with
    | None -> ()
    | Some c ->
        Printf.bprintf b "next %s\n" c;
        walk (Some c)
  in
  walk None;
  Buffer.add_string b (Prov_dot.forest_to_dot pool);
  Buffer.add_char b '\n'

let delp_gen_pool scheme =
  let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed:tree_fixture_seed) in
  let w = Delp_gen.build_world instance scheme in
  Delp_gen.run_events w instance.events;
  world_tree_pool w

(* The trees of the first reply of 20 Zipf requests on the seed-1 paper
   hierarchy. *)
let dns_pool scheme =
  let rng = Dpc_util.Rng.create ~seed:1 in
  let t = Dns_workload.setup ~scheme (Dns_workload.paper_spec ~rng ()) () in
  ignore (Dns_workload.inject_n_requests t ~rng ~total:20 ~duration:1.0);
  Dns_workload.run t;
  let reply = List.hd (Dns_workload.replies t) in
  Query_result.dedup_trees
    (Backend.query t.backend ~cost:Dpc_testkit.Query_kit.free ~routing:t.routing reply).trees

let tree_fixtures = [ ("trees-delp-gen.txt", delp_gen_pool, 2); ("trees-dns.txt", dns_pool, 1) ]

(* Through dune the suite runs in the test directory's build copy;
   [make queries] runs it from the repository root. *)
let read_text_fixture name =
  match List.find_opt Sys.file_exists [ "fixtures/" ^ name; "test/fixtures/" ^ name ] with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> ""

let test_tree_fixtures () =
  let differ =
    List.filter
      (fun (name, pool_of, min_trees) ->
        let b = Buffer.create 65536 in
        List.iter
          (fun scheme ->
            let pool = pool_of scheme in
            if List.length pool < min_trees then
              Alcotest.failf "%s, %s: %d trees, want at least %d" name
                (Backend.scheme_name scheme) (List.length pool) min_trees;
            render_pool b scheme pool)
          all_schemes;
        let actual = Buffer.contents b in
        let same = String.equal actual (read_text_fixture name) in
        if not same then
          Out_channel.with_open_bin (name ^ ".actual") (fun oc -> output_string oc actual);
        not same)
      tree_fixtures
  in
  match differ with
  | [] -> ()
  | (name, _, _) :: _ ->
      Alcotest.failf "%s: trees or cursors differ from the fixture (see %s.actual)" name name

(* [paginate ~cursor] rejects what it cannot resolve with Invalid_argument
   and nothing else: random strings, and one-byte mutants of real
   cursors. *)
let prop_cursor_fuzz =
  let pool = delp_gen_pool Backend.S_basic in
  let cursors = Array.of_list (List.map cursor_of_tree pool) in
  QCheck.Test.make ~name:"paginate ~cursor raises only Invalid_argument" ~count:2000
    QCheck.(
      pair (string_gen_of_size Gen.(int_bound 60) Gen.char)
        (triple (int_bound (Array.length cursors - 1)) (int_bound 100) (int_bound 255)))
    (fun (random, (i, pos, byte)) ->
      let real = cursors.(i) in
      let mutant = Bytes.of_string real in
      Bytes.set mutant (pos mod String.length real) (Char.chr byte);
      List.for_all
        (fun cursor ->
          match Query_result.For_testing.paginate ~cursor ~limit:1 pool with
          | _ -> true
          | exception Invalid_argument _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "cursor %S: %s" cursor (Printexc.to_string e))
        [ random; Bytes.to_string mutant ])

(* ------------------------------------------------------------------ *)
(* Cost-model drift: the modeled latency must equal the analytic
   identity over the counted work, exactly — with and without the cache,
   with and without a down node. *)

let drift_identity (cost : Query_cost.t) (r : Query_result.t) =
  r.hop_s
  +. (float_of_int r.entries *. cost.per_entry)
  +. (float_of_int r.bytes *. cost.per_byte)
  +. (float_of_int r.rederives *. cost.per_rederive)
  +. (float_of_int r.downs *. float_of_int (cost.down_retries + 1) *. cost.down_timeout)

let test_cost_drift () =
  let downs_total = ref 0 and queries = ref 0 in
  List.iter
    (fun seed ->
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      List.iter
        (fun scheme ->
          let w = Delp_gen.build_world instance scheme in
          Delp_gen.run_events w instance.events;
          let outs =
            List.map (fun (out, _) -> out) (Dpc_engine.Runtime.outputs w.runtime)
            |> List.sort_uniq Dpc_ndlog.Tuple.compare
          in
          let check_drift label cost ?up out =
            let r = Backend.query w.backend ~cost ~routing:w.routing ?up out in
            incr queries;
            downs_total := !downs_total + r.Query_result.downs;
            let expected = drift_identity cost r in
            if Float.abs (r.latency -. expected) > 1e-9 then
              Alcotest.failf
                "seed %d, %s, %s: latency %.12f drifted from identity %.12f \
                 (hop %.12f, %d entries, %d bytes, %d rederives, %d downs)"
                seed (Backend.scheme_name scheme) label r.latency expected r.hop_s r.entries
                r.bytes r.rederives r.downs
          in
          let sweep label =
            List.iter
              (fun out ->
                List.iter
                  (fun (cname, cost) ->
                    check_drift (label ^ " " ^ cname) cost out;
                    check_drift (label ^ " " ^ cname ^ " degraded") cost
                      ~up:(fun n -> n <> 0) out)
                  [
                    ("emulation", Query_cost.emulation);
                    ("simulation", Query_cost.simulation);
                    ("free", Dpc_testkit.Query_kit.free);
                  ])
              outs
          in
          sweep "no-cache";
          ignore (Backend.attach_query_cache w.backend);
          sweep "cache-populate";
          sweep "cache-hit")
        all_schemes)
    [ 1; 2; 3 ];
  check Alcotest.bool "identity checked on real queries" true (!queries > 0);
  check Alcotest.bool "down term exercised" true (!downs_total > 0)

(* ------------------------------------------------------------------ *)
(* Zipfian storm sweep: one forwarding world per scheme; the same seeded
   storm cache-off, cold, and warm. Transparent results, >= 50% hit rate
   cold, and a faster warm p99. Quick runs the Advanced scheme; the full
   sweep (DPC_QUERIES_FULL=1, `make queries`) runs all four. *)

let run_storm_sweep ~schemes ~count =
  let ts, routing, rng =
    let rng = Dpc_util.Rng.create ~seed:17 in
    let ts = Dpc_net.Transit_stub.generate ~rng Dpc_net.Transit_stub.paper_params in
    (ts, Dpc_net.Routing.compute ts.topology, rng)
  in
  let pairs = Pairs.select ~rng ~eligible:ts.stub_nodes ~count:5 in
  List.iter
    (fun scheme ->
      let name = Backend.scheme_name scheme in
      let d =
        Forwarding_driver.setup ~scheme ~topology:ts.topology ~routing ~pairs ()
      in
      ignore (Forwarding_driver.inject_stream d ~rate_per_pair:10.0 ~duration:2.0 ~payload_size:100);
      Forwarding_driver.run d;
      let seen = Hashtbl.create 256 in
      let targets =
        List.filter
          (fun t -> if Hashtbl.mem seen t then false else (Hashtbl.add seen t (); true))
          (Forwarding_driver.received d)
        |> Array.of_list
      in
      let targets = Array.sub targets 0 (min (Array.length targets) (max 8 (count / 4))) in
      let storm () =
        Query_driver.storm
          (Query_driver.create ~backend:d.Forwarding_driver.backend
             ~routing:d.Forwarding_driver.routing ~targets ~seed:23 ())
          ~count ()
      in
      let off = storm () in
      let cache = Backend.attach_query_cache d.Forwarding_driver.backend in
      let cold = storm () in
      let st = Query_cache.stats cache in
      let warm = storm () in
      check Alcotest.int (name ^ ": all issued") count off.Query_driver.issued;
      check Alcotest.int (name ^ ": transparent complete count") off.Query_driver.complete
        warm.Query_driver.complete;
      check Alcotest.int (name ^ ": transparent empty count") off.Query_driver.empty
        warm.Query_driver.empty;
      check Alcotest.int (name ^ ": cold matches off too") off.Query_driver.empty
        cold.Query_driver.empty;
      let hit_rate = float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)) in
      if hit_rate < 0.5 then
        Alcotest.failf "%s: cold hit rate %.0f%% below 50%%" name (100.0 *. hit_rate);
      let p_off = Query_driver.percentiles_ms off
      and p_warm = Query_driver.percentiles_ms warm in
      if p_warm.Query_driver.p99 >= p_off.Query_driver.p99 then
        Alcotest.failf "%s: warm p99 %.3fms not faster than cache-off %.3fms" name
          p_warm.Query_driver.p99 p_off.Query_driver.p99;
      (* Same seed, same storm: the warm pass is reproducible. *)
      let warm2 = storm () in
      check
        (Alcotest.list (Alcotest.float 1e-12))
        (name ^ ": warm storm deterministic")
        warm.Query_driver.latencies warm2.Query_driver.latencies)
    schemes

let test_storm_quick () = run_storm_sweep ~schemes:[ Backend.S_advanced ] ~count:200

let test_storm_full () =
  match Sys.getenv_opt "DPC_QUERIES_FULL" with
  | None -> print_endline "skipped (set DPC_QUERIES_FULL=1; `make queries` does)"
  | Some _ -> run_storm_sweep ~schemes:all_schemes ~count:400

let scheme_cases f =
  List.map
    (fun s ->
      Alcotest.test_case (Backend.scheme_name s) `Quick (fun () ->
        f (Backend.scheme_name s) s))
    all_schemes

let () =
  Alcotest.run "dpc_query"
    [
      ( "cache unit",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "key disambiguation" `Quick test_cache_key_disambiguates;
          Alcotest.test_case "generation staleness" `Quick test_cache_generation_staleness;
          Alcotest.test_case "down dep is a miss, not a drop" `Quick
            test_cache_down_dep_is_miss_not_drop;
          Alcotest.test_case "invalidate node" `Quick test_cache_invalidate_node;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "eviction keeps the recent half" `Quick
            test_cache_eviction_keeps_recent_half;
          Alcotest.test_case "chain walk caps its chains" `Quick test_chain_walk_cap;
          Alcotest.test_case "snapshot bound" `Quick test_cache_snapshot_bound;
        ] );
      ( "backend integration",
        [ Alcotest.test_case "attach, metrics, detach" `Quick test_backend_cache_metrics ] );
      ("sig flush invalidation (§5.5)", scheme_cases test_sig_flush_invalidates);
      ( "pagination",
        [
          Alcotest.test_case "pages concatenate to the forest" `Quick
            test_pagination_properties;
          Alcotest.test_case "bad cursors surface" `Quick test_pagination_errors;
        ] );
      ("cursor survives restart", scheme_cases test_cursor_survives_restart);
      ( "tree and cursor fixtures",
        [
          Alcotest.test_case "trees and cursors match the fixtures" `Quick test_tree_fixtures;
          QCheck_alcotest.to_alcotest prop_cursor_fuzz;
        ] );
      ( "cost drift",
        [ Alcotest.test_case "latency equals the analytic identity" `Quick test_cost_drift ] );
      ( "zipfian storm",
        [
          Alcotest.test_case "storm (quick, Advanced)" `Quick test_storm_quick;
          Alcotest.test_case "storm (full, all schemes)" `Slow test_storm_full;
        ] );
    ]
