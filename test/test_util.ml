(* Tests for dpc_util: SHA-1 vectors, heap ordering, RNG determinism,
   Zipf distribution, serializer round-trips, statistics. *)

open Dpc_util

let check = Alcotest.check
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* SHA-1 *)

let sha1_hex s = Sha1.to_hex (Sha1.digest_string s)

(* Reference vectors from RFC 3174 and FIPS 180-1. *)
let test_sha1_vectors () =
  checks "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (sha1_hex "");
  checks "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (sha1_hex "abc");
  checks "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (sha1_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "million-a"
    "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (sha1_hex (String.make 1_000_000 'a'))

let test_sha1_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries. *)
  checks "55 bytes" "c1c8bbdc22796e28c0e15163d20899b65621d65a"
    (sha1_hex (String.make 55 'a'));
  checks "56 bytes" "c2db330f6083854c99d4b5bfb6e8f29f201be699"
    (sha1_hex (String.make 56 'a'));
  checks "64 bytes" "0098ba824b5c16427bd7a1122a5a442a25ec644d"
    (sha1_hex (String.make 64 'a'))

let test_sha1_concat () =
  check Alcotest.bool "separator disambiguates" false
    (Sha1.equal (Sha1.digest_concat [ "ab"; "c" ]) (Sha1.digest_concat [ "a"; "bc" ]));
  checks "concat = joined" (Sha1.to_hex (Sha1.digest_string "r1+n1+v2"))
    (Sha1.to_hex (Sha1.digest_concat [ "r1"; "n1"; "v2" ]))

let test_sha1_raw_roundtrip () =
  let d = Sha1.digest_string "roundtrip" in
  check Alcotest.bool "of_raw . to_raw = id" true (Sha1.equal d (Sha1.of_raw (Sha1.to_raw d)));
  Alcotest.check_raises "of_raw rejects short input"
    (Invalid_argument "Sha1.of_raw: expected 20 bytes") (fun () ->
      ignore (Sha1.of_raw "short"))

let stream pieces =
  let s = Sha1.start () in
  List.iter (Sha1.add s) pieces;
  Sha1.finish s

(* The stream must agree with the one-shot digest no matter how the
   message is cut, including cuts straddling the 64-byte block boundary
   and messages landing on every padding edge. *)
let test_sha1_stream () =
  let lengths = [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 128; 200; 513 ] in
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (32 + ((i * 7) mod 95))) in
      let whole = Sha1.digest_string s in
      check Alcotest.bool
        (Printf.sprintf "one piece, len %d" len)
        true
        (Sha1.equal whole (stream [ s ]));
      List.iter
        (fun cut ->
          if cut <= len then
            let streamed = stream [ String.sub s 0 cut; String.sub s cut (len - cut) ] in
            check Alcotest.bool
              (Printf.sprintf "len %d cut at %d" len cut)
              true (Sha1.equal whole streamed))
        [ 0; 1; 63; 64; 65 ];
      (* byte-at-a-time *)
      let streamed = stream (List.init len (fun i -> String.make 1 s.[i])) in
      check Alcotest.bool (Printf.sprintf "byte stream, len %d" len) true
        (Sha1.equal whole streamed))
    lengths

(* One-shot digests taken mid-stream use their own context and leave the
   stream intact. *)
let test_sha1_stream_oneshot_midstream () =
  let s = Sha1.start () in
  Sha1.add s (String.make 70 'a');
  let inner = Sha1.digest_string "inner" in
  let concat = Sha1.digest_concat [ "x"; "y" ] in
  Sha1.add s (Sha1.to_raw inner);
  Sha1.add_int s 42;
  let streamed = Sha1.finish s in
  checks "inner digest unaffected" (sha1_hex "inner") (Sha1.to_hex inner);
  checks "concat unaffected" (sha1_hex "x+y") (Sha1.to_hex concat);
  checks "stream unaffected"
    (sha1_hex (String.make 70 'a' ^ Sha1.to_raw inner ^ "42"))
    (Sha1.to_hex streamed)

let prop_sha1_stream_matches =
  QCheck.Test.make ~name:"stream of random pieces = one-shot"
    ~count:200
    QCheck.(list (string_of_size Gen.(0 -- 150)))
    (fun pieces ->
      Sha1.equal (Sha1.digest_string (String.concat "" pieces)) (stream pieces))

(* [add_int] feeds exactly the bytes of [string_of_int], wherever in a
   block it lands. *)
let prop_sha1_add_int_matches =
  let ints =
    QCheck.(
      make ~print:Print.int
        Gen.(
          oneof
            [
              oneofl [ min_int; max_int; 0; -1; 1; 9; 10; -9; -10; min_int + 1; max_int - 1 ];
              int;
              small_signed_int;
            ]))
  in
  QCheck.Test.make ~name:"add_int n = add (string_of_int n)" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 70)) ints)
    (fun (prefix, n) ->
      let s = Sha1.start () in
      Sha1.add s prefix;
      Sha1.add_int s n;
      Sha1.add s "|";
      Sha1.equal (Sha1.finish s) (Sha1.digest_string (prefix ^ string_of_int n ^ "|")))

let prop_sha1_deterministic =
  QCheck.Test.make ~name:"sha1 deterministic and 40 hex chars" ~count:200
    QCheck.string (fun s ->
      let d1 = sha1_hex s and d2 = sha1_hex s in
      String.equal d1 d2 && String.length d1 = 40)

let prop_sha1_injective_on_samples =
  QCheck.Test.make ~name:"sha1 distinguishes distinct strings" ~count:200
    (QCheck.pair QCheck.string QCheck.string) (fun (a, b) ->
      String.equal a b || not (String.equal (sha1_hex a) (sha1_hex b)))

(* ------------------------------------------------------------------ *)
(* Event queue *)

(* Any interleaving of pushes and pops: every pop returns the event a
   stable sort of the queued ones by time puts first (equal times in push
   order), the clock never runs backwards, and [due] agrees with the head
   on both sides of the half-open horizon. Times are quarters, so ties are
   common. *)
let prop_event_queue_order =
  let op = QCheck.(option (int_bound 12)) in
  QCheck.Test.make ~name:"event queue pops in (time, seq) order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 120) op)
    (fun ops ->
      let q = Event_queue.create () and clock = { Event_queue.now = 0.0 } in
      let queued = ref [] and pushed = ref 0 and fired = ref (-1) in
      let pop () =
        match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !queued) with
        | [] -> Event_queue.For_testing.is_empty q && not (Event_queue.due q ~until:infinity)
        | (at, seq) :: _ ->
            let horizon = Event_queue.due q ~until:(at +. 0.25) && not (Event_queue.due q ~until:at) in
            let before = clock.now in
            (Event_queue.pop q clock) ();
            queued := List.filter (fun (_, s) -> s <> seq) !queued;
            horizon && !fired = seq && clock.now = Float.max before at
            && Event_queue.For_testing.length q = List.length !queued
      in
      let step ok = function
        | Some quarters ->
            let at = float_of_int quarters /. 4.0 and seq = !pushed in
            incr pushed;
            Event_queue.push q at (fun () -> fired := seq);
            queued := (at, seq) :: !queued;
            ok
        | None -> pop () && ok
      in
      let ok = List.fold_left step true ops in
      let rec drain ok = if !queued = [] then pop () && ok else drain (pop () && ok) in
      drain ok)

(* The same under keyed pushes: keys are distinct and pushed in any
   order, and the events pop in (time, key) order; [next_time] reads the
   head's time, or infinity when the queue is empty. *)
let prop_event_queue_keyed_order =
  let op = QCheck.(option (pair (int_bound 12) (int_bound 1_000_000))) in
  QCheck.Test.make ~name:"event queue pops in (time, key) order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 120) op)
    (fun ops ->
      let q = Event_queue.create () and clock = { Event_queue.now = 0.0 } in
      let queued = ref [] and used = Hashtbl.create 16 and fired = ref (-1) in
      let pop () =
        match List.sort compare !queued with
        | [] ->
            Event_queue.For_testing.is_empty q
            && (not (Event_queue.due q ~until:infinity))
            && Event_queue.next_time q = infinity
        | (at, key) :: _ ->
            let horizon = Event_queue.due q ~until:(at +. 0.25) && not (Event_queue.due q ~until:at) in
            let head = Event_queue.next_time q = at and before = clock.now in
            (Event_queue.pop q clock) ();
            queued := List.filter (fun (_, k) -> k <> key) !queued;
            horizon && head && !fired = key && clock.now = Float.max before at
            && Event_queue.For_testing.length q = List.length !queued
      in
      let step ok = function
        | Some (_, key) when Hashtbl.mem used key -> ok
        | Some (quarters, key) ->
            let at = float_of_int quarters /. 4.0 in
            Hashtbl.add used key ();
            Event_queue.push_keyed q at key (fun () -> fired := key);
            queued := (at, key) :: !queued;
            ok
        | None -> pop () && ok
      in
      let ok = List.fold_left step true ops in
      let rec drain ok = if !queued = [] then pop () && ok else drain (pop () && ok) in
      drain ok)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  check Alcotest.int "unknown counter is 0" 0 (Metrics.counter_value m "x");
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.incr m "y";
  check Alcotest.int "accumulates" 5 (Metrics.counter_value m "x");
  let s = Metrics.snapshot m in
  check Alcotest.int "snapshot reads" 5 (Metrics.For_testing.counter s "x");
  check Alcotest.int "absent in snapshot" 0 (Metrics.For_testing.counter s "z");
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted by name" [ ("x", 5); ("y", 1) ] s.counters;
  Metrics.clear m;
  check Alcotest.int "clear resets" 0 (Metrics.counter_value m "x")

let test_metrics_snapshot_immutable () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  let s = Metrics.snapshot m in
  Metrics.add m "x" 10;
  check Alcotest.int "snapshot is a copy" 1 (Metrics.For_testing.counter s "x");
  check Alcotest.int "registry moved on" 11 (Metrics.counter_value m "x")

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "shared" 2;
  Metrics.incr a "only_a";
  Metrics.add b "shared" 3;
  Metrics.add b "only_b" 7;
  let s = Metrics.merge (Metrics.snapshot a) (Metrics.snapshot b) in
  check Alcotest.int "counters add" 5 (Metrics.For_testing.counter s "shared");
  check Alcotest.int "left-only survives" 1 (Metrics.For_testing.counter s "only_a");
  check Alcotest.int "right-only survives" 7 (Metrics.For_testing.counter s "only_b");
  check Alcotest.bool "empty is identity" true
    (Metrics.merge Metrics.empty (Metrics.snapshot a) = Metrics.snapshot a);
  (* Merge result stays sorted, so further merges agree. *)
  let names = List.map fst s.counters in
  check Alcotest.bool "merged counters sorted" true (List.sort compare names = names)

let test_metrics_to_rows () =
  let m = Metrics.create () in
  Metrics.add m "c" 3;
  Metrics.incr m "d";
  let rows = Metrics.to_rows (Metrics.snapshot m) in
  check Alcotest.int "one row per metric" 2 (List.length rows);
  List.iter (fun row -> check Alcotest.int "three columns" 3 (List.length row)) rows

let prop_metrics_merge_commutes =
  let snap_gen =
    QCheck.Gen.map
      (fun pairs ->
        let m = Metrics.create () in
        List.iter (fun (k, v) -> Metrics.add m (String.make 1 (Char.chr (97 + k))) v) pairs;
        Metrics.snapshot m)
      QCheck.Gen.(list_size (int_bound 10) (tup2 (int_bound 5) (int_bound 100)))
  in
  QCheck.Test.make ~name:"merge commutes on counters" ~count:100
    (QCheck.make (QCheck.Gen.tup2 snap_gen snap_gen)) (fun (a, b) ->
      Metrics.merge a b = Metrics.merge b a)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:17 and b = Rng.create ~seed:17 in
  let xs g = List.init 20 (fun _ -> Rng.int g 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" (xs a) (xs b)

let test_rng_bounds () =
  let g = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float g 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_split_independent () =
  let g = Rng.create ~seed:9 in
  let child = Rng.For_testing.split g in
  let xs = List.init 10 (fun _ -> Rng.int g 100) in
  let ys = List.init 10 (fun _ -> Rng.int child 100) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let g = Rng.create ~seed:5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create 38 in
  let total = ref 0.0 in
  for k = 0 to 37 do
    total := !total +. Zipf.pmf z k
  done;
  check (Alcotest.float 1e-9) "pmf sums to 1" 1.0 !total

let test_zipf_rank_ordering () =
  let z = Zipf.create 10 in
  for k = 0 to 8 do
    if Zipf.pmf z k < Zipf.pmf z (k + 1) then Alcotest.fail "pmf not decreasing"
  done

let test_zipf_samples_in_range () =
  let z = Zipf.create 5 and g = Rng.create ~seed:1 in
  for _ = 1 to 2000 do
    let k = Zipf.sample z g in
    if k < 0 || k >= 5 then Alcotest.fail "sample out of range"
  done

let test_zipf_empirical_matches_pmf () =
  let n = 6 in
  let z = Zipf.create n and g = Rng.create ~seed:11 in
  let counts = Array.make n 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let k = Zipf.sample z g in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to n - 1 do
    let emp = float_of_int counts.(k) /. float_of_int trials in
    let expected = Zipf.pmf z k in
    if abs_float (emp -. expected) > 0.02 then
      Alcotest.failf "rank %d: empirical %.4f vs pmf %.4f" k emp expected
  done

let test_zipf_invalid_args () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create 0));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zipf.create: exponent must be non-negative") (fun () ->
      ignore (Zipf.create ~exponent:(-1.0) 5))

(* ------------------------------------------------------------------ *)
(* Serialize *)

let test_serialize_scalars () =
  let w = Serialize.writer () in
  Serialize.write_int w 42;
  Serialize.write_int w (-1);
  Serialize.write_int w max_int;
  Serialize.write_varint w 0;
  Serialize.write_varint w 300;
  Serialize.write_bool w true;
  Serialize.write_bool w false;
  Serialize.write_string w "hello";
  let r = Serialize.reader (Serialize.contents w) in
  check Alcotest.int "int" 42 (Serialize.read_int r);
  check Alcotest.int "negative int" (-1) (Serialize.read_int r);
  check Alcotest.int "max_int" max_int (Serialize.read_int r);
  check Alcotest.int "varint 0" 0 (Serialize.read_varint r);
  check Alcotest.int "varint 300" 300 (Serialize.read_varint r);
  check Alcotest.bool "true" true (Serialize.read_bool r);
  check Alcotest.bool "false" false (Serialize.read_bool r);
  checks "string" "hello" (Serialize.read_string r);
  check Alcotest.bool "at_end" true (Serialize.at_end r)

let test_serialize_list () =
  let w = Serialize.writer () in
  Serialize.write_list w (Serialize.write_string w) [ "a"; "bb"; "ccc" ];
  let r = Serialize.reader (Serialize.contents w) in
  let xs = Serialize.read_list r (fun () -> Serialize.read_string r) in
  check (Alcotest.list Alcotest.string) "list round-trip" [ "a"; "bb"; "ccc" ] xs

let test_serialize_corrupt () =
  let r = Serialize.reader "\x05ab" in
  Alcotest.check_raises "string overrun" (Serialize.Corrupt "string overruns input")
    (fun () -> ignore (Serialize.read_string r));
  (* Ten bytes would read as -1, and a sign bit set in the ninth as a
     negative int: neither is anything write_varint writes. *)
  Alcotest.check_raises "over-long varint" (Serialize.Corrupt "varint longer than nine bytes")
    (fun () ->
      ignore (Serialize.read_varint (Serialize.reader "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")));
  Alcotest.check_raises "negative varint" (Serialize.Corrupt "varint overflows an int")
    (fun () ->
      ignore (Serialize.read_varint (Serialize.reader "\xff\xff\xff\xff\xff\xff\xff\xff\x7f")));
  Alcotest.(check int) "max_int round-trips" max_int
    (let w = Serialize.writer () in
     Serialize.write_varint w max_int;
     Serialize.read_varint (Serialize.reader (Serialize.contents w)));
  Alcotest.check_raises "count past the input" (Serialize.Corrupt "count overruns input")
    (fun () -> ignore (Serialize.read_list (Serialize.reader "\x03ab") (fun () -> ())))

let prop_serialize_roundtrip_ints =
  QCheck.Test.make ~name:"int round-trip" ~count:500 QCheck.int (fun v ->
    let w = Serialize.writer () in
    Serialize.write_int w v;
    Serialize.read_int (Serialize.reader (Serialize.contents w)) = v)

let prop_serialize_roundtrip_strings =
  QCheck.Test.make ~name:"string round-trip" ~count:500 QCheck.string (fun s ->
    let w = Serialize.writer () in
    Serialize.write_string w s;
    String.equal (Serialize.read_string (Serialize.reader (Serialize.contents w))) s)

let prop_serialize_roundtrip_varint =
  QCheck.Test.make ~name:"varint round-trip" ~count:500 QCheck.(0 -- max_int)
    (fun v ->
      let w = Serialize.writer () in
      Serialize.write_varint w v;
      Serialize.read_varint (Serialize.reader (Serialize.contents w)) = v)

(* [write_sorted] writes what [write_list] writes of [List.stable_sort]'s
   order. Items compare on their key only, so ties show stability, and
   each carries a table sorted inside the outer write; outer tables of up
   to 3,000 items grow the domain's sort array while it is nested. *)
let prop_write_sorted =
  QCheck.Test.make ~name:"write_sorted is a stable sort, nested" ~count:200
    QCheck.(list_of_size Gen.(0 -- 3000) (pair (int_bound 50) (small_list small_nat)))
    (fun items ->
      let by_key (a, _) (b, _) = Int.compare a b in
      let w = Serialize.writer () in
      Serialize.write_sorted w Int.compare
        (fun f -> List.iter (fun (k, inner) -> f k inner) items)
        (fun k inner ->
          Serialize.write_varint w k;
          Serialize.write_sorted w Int.compare
            (fun f -> List.iter (fun x -> f x ()) inner)
            (fun x () -> Serialize.write_varint w x));
      let r = Serialize.writer () in
      Serialize.write_list r
        (fun (k, inner) ->
          Serialize.write_varint r k;
          Serialize.write_list r (Serialize.write_varint r) (List.sort Int.compare inner))
        (List.stable_sort by_key items);
      String.equal (Serialize.contents w) (Serialize.contents r))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basics () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "mean" 2.5 (Stats.mean xs);
  checkf "median" 2.5 (Stats.median xs);
  checkf "max" 4.0 (Stats.maximum xs);
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p100" 4.0 (Stats.percentile xs 100.0)

let test_stats_singleton () =
  checkf "mean" 7.0 (Stats.mean [ 7.0 ]);
  checkf "median" 7.0 (Stats.median [ 7.0 ])

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean []))

(* ------------------------------------------------------------------ *)
(* Table_fmt *)

let test_table_fmt_alignment () =
  let s = Table_fmt.For_testing.render ~header:[ "a"; "bbb" ] ~rows:[ [ "xx"; "y" ]; [ "z" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "4 lines" 4 (List.length lines);
  (* All lines padded to the same width. *)
  match lines with
  | h :: _ ->
      List.iter
        (fun l -> check Alcotest.int "width" (String.length h) (String.length l))
        lines
  | [] -> Alcotest.fail "no output"

let test_table_human_units () =
  checks "bytes" "512 B" (Table_fmt.human_bytes 512);
  checks "kb" "2.05 KB" (Table_fmt.human_bytes 2048);
  checks "mb" "1.50 MB" (Table_fmt.human_bytes 1_500_000);
  checks "gb" "2.00 GB" (Table_fmt.human_bytes 2_000_000_000);
  checks "rate" "10.30 MB/s" (Table_fmt.human_rate 10.3e6)

(* Clock-discipline regression (the PR 2 -> PR 6 timing lie): [Sys.time]
   is CPU time summed across every domain of the process, so it both
   misses time a domain spends blocked and multiply-counts concurrent
   work. [Clock.now] must behave like a wall clock: two domains sleeping
   concurrently advance it by the sleep duration, while the CPU clock
   barely moves (sleeping burns no CPU anywhere). This works on any core
   count — sleeps are concurrent even on one core. *)
let test_clock_is_wall_clock () =
  let wall0 = Clock.now () in
  let cpu0 = Sys.time () in
  let sleeper () = Unix.sleepf 0.05 in
  let d1 = Domain.spawn sleeper and d2 = Domain.spawn sleeper in
  Domain.join d1;
  Domain.join d2;
  let wall = Clock.now () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  check Alcotest.bool
    (Printf.sprintf "wall clock advanced by the sleep (%.4fs)" wall)
    true (wall >= 0.04);
  check Alcotest.bool
    (Printf.sprintf "CPU time did not (%.4fs) - Clock.now must not be Sys.time" cpu)
    true (cpu < 0.04)

let test_clock_monotone_enough () =
  (* gettimeofday can step backwards under NTP, but within a test run
     successive reads must be non-decreasing for timing code to make
     sense; catch a Clock.now that returns garbage (e.g. uninitialized
     or CPU-seconds mixing). *)
  let a = Clock.now () in
  let b = Clock.now () in
  check Alcotest.bool "non-decreasing" true (b >= a);
  check Alcotest.bool "plausible epoch (after 2020)" true (a > 1_577_836_800.)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_util"
    [
      ( "sha1",
        [
          Alcotest.test_case "reference vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "padding boundaries" `Quick test_sha1_block_boundaries;
          Alcotest.test_case "digest_concat" `Quick test_sha1_concat;
          Alcotest.test_case "raw round-trip" `Quick test_sha1_raw_roundtrip;
          Alcotest.test_case "stream vs one-shot, every cut" `Quick test_sha1_stream;
        ]
        @ qsuite
            [
              prop_sha1_deterministic;
              prop_sha1_injective_on_samples;
              prop_sha1_stream_matches;
              prop_sha1_add_int_matches;
            ]
        @ [
            Alcotest.test_case "one-shot digests mid-stream" `Quick
              test_sha1_stream_oneshot_midstream;
          ] );
      ("queue", qsuite [ prop_event_queue_order; prop_event_queue_keyed_order ]);
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "snapshot immutable" `Quick test_metrics_snapshot_immutable;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "to_rows" `Quick test_metrics_to_rows;
        ]
        @ qsuite [ prop_metrics_merge_commutes ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "pmf decreasing in rank" `Quick test_zipf_rank_ordering;
          Alcotest.test_case "samples in range" `Quick test_zipf_samples_in_range;
          Alcotest.test_case "empirical matches pmf" `Quick test_zipf_empirical_matches_pmf;
          Alcotest.test_case "invalid arguments" `Quick test_zipf_invalid_args;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "scalars" `Quick test_serialize_scalars;
          Alcotest.test_case "lists" `Quick test_serialize_list;
          Alcotest.test_case "corrupt input" `Quick test_serialize_corrupt;
        ]
        @ qsuite
            [
              prop_serialize_roundtrip_ints;
              prop_serialize_roundtrip_strings;
              prop_serialize_roundtrip_varint;
              prop_write_sorted;
            ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        ] );
      ( "table_fmt",
        [
          Alcotest.test_case "alignment" `Quick test_table_fmt_alignment;
          Alcotest.test_case "human units" `Quick test_table_human_units;
        ] );
      ( "clock",
        [
          Alcotest.test_case "wall clock, not CPU time" `Quick test_clock_is_wall_clock;
          Alcotest.test_case "sane readings" `Quick test_clock_monotone_enough;
        ] );
    ]
