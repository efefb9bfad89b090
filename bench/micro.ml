(* Bechamel micro-benchmarks for the hot operations of the maintenance
   pipeline: hashing, equivalence-key extraction, rule firing, and
   per-scheme provenance recording. *)

open Bechamel
open Toolkit

let packet = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(String.make 500 'x')

let sha1_64 =
  let input = String.make 64 'a' in
  Test.make ~name:"sha1/64B" (Staged.stage (fun () -> Dpc_util.Sha1.digest_string input))

let sha1_1k =
  let input = String.make 1024 'a' in
  Test.make ~name:"sha1/1KB" (Staged.stage (fun () -> Dpc_util.Sha1.digest_string input))

(* The digest the ingest path takes: [Tuple.digest] of a packet built
   inside the run, as every hop builds its head, so the per-tuple memo
   never answers. The 500-byte payload's own digest comes from the
   interning cache, as it does along a forwarding chain. *)
let tuple_digest =
  let payload = String.make 500 'x' in
  Test.make ~name:"tuple/digest"
    (Staged.stage (fun () ->
         Dpc_ndlog.Tuple.digest (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload)))

(* The rid of one firing of DNS r2: a name server row, then the request. *)
let rid =
  let vids =
    [
      Dpc_ndlog.Tuple.digest (Dpc_apps.Dns.name_server ~at:3 ~domain:"example.com" ~server:4);
      Dpc_ndlog.Tuple.digest
        (Dpc_ndlog.Tuple.make "request"
           Dpc_ndlog.Value.[ Addr 3; Str "www.example.com"; Addr 7; Int 42 ]);
    ]
  in
  Test.make ~name:"rows/rid"
    (Staged.stage (fun () -> Dpc_core.Rows.rid ~rule:"r2" ~node:3 vids Dpc_core.Rows.No_tail))

let equi_key_hash =
  let keys = Dpc_analysis.Equi_keys.compute (Dpc_apps.Forwarding.delp ()) in
  Test.make ~name:"equi_keys/key_hash"
    (Staged.stage (fun () -> Dpc_analysis.Equi_keys.key_hash keys packet))

let static_analysis =
  let delp = Dpc_apps.Dns.delp () in
  Test.make ~name:"analysis/GetEquiKeys(dns)"
    (Staged.stage (fun () -> Dpc_analysis.Equi_keys.compute delp))

(* The runtime's path: forwarding r1's compiled plan probing an index over
   8 routes, into a reused scratch as at a node. *)
let rule_fire =
  let delp = Dpc_apps.Forwarding.delp () in
  let plan = Dpc_engine.Eval.plan ~env:Dpc_apps.Forwarding.env (List.hd delp.program.rules) in
  let scratch = Dpc_engine.Eval.scratch [ plan ] in
  let db = Dpc_engine.Db.create () in
  List.iter
    (fun d -> ignore (Dpc_engine.Db.insert db (Dpc_apps.Forwarding.route ~at:0 ~dst:d ~next:1)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Test.make ~name:"eval/fire_into(join of 8 routes)"
    (Staged.stage (fun () -> Dpc_engine.Eval.fire_into scratch ~db ~plan ~event:packet))

(* End-to-end recording cost: one packet through the 3-node example under
   each scheme, amortized. *)
let record_scheme scheme =
  Test.make ~name:(Printf.sprintf "record/%s" (Dpc_core.Backend.scheme_name scheme))
    (Staged.stage
       (let topo = Dpc_net.Topology.create ~n:3 in
        let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e9 } in
        Dpc_net.Topology.add_link topo 0 1 l;
        Dpc_net.Topology.add_link topo 1 2 l;
        let routing = Dpc_net.Routing.compute topo in
        let delp = Dpc_apps.Forwarding.delp () in
        let backend =
          Dpc_core.Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3
        in
        let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
        let runtime =
          Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
            ~env:Dpc_apps.Forwarding.env ~hook:(Dpc_core.Backend.hook backend)
            ~nodes:(Dpc_core.Backend.nodes backend) ()
        in
        Dpc_engine.Runtime.load_slow runtime
          [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
            Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
        let counter = ref 0 in
        fun () ->
          incr counter;
          Dpc_engine.Runtime.inject runtime
            (Dpc_apps.Forwarding.packet ~src:0 ~dst:2
               ~payload:(Printf.sprintf "p%d" !counter));
          Dpc_engine.Runtime.run runtime))

(* Minor-heap words per run. Bechamel's own [Instance.minor_allocated]
   reads [Gc.quick_stat], whose minor_words on OCaml 5 only advance at a
   minor collection, so a run that allocates a few words reads 0;
   [Gc.minor_words] counts them exactly. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "w"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let tests =
  Test.make_grouped ~name:"dpc"
    [
      sha1_64;
      sha1_1k;
      tuple_digest;
      rid;
      equi_key_hash;
      static_analysis;
      rule_fire;
      record_scheme Dpc_core.Backend.S_exspan;
      record_scheme Dpc_core.Backend.S_basic;
      record_scheme Dpc_core.Backend.S_advanced;
    ]

let run () =
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  (* One OLS estimate per run, per instance: wall time and minor-heap
     words. *)
  let per_run instance =
    let results = Analyze.all ols instance raw in
    fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ e ] -> Printf.sprintf "%.1f" e
      | Some _ | None -> "n/a"
  in
  let ns = per_run Instance.monotonic_clock and words = per_run minor_words in
  print_endline "\n=== Micro-benchmarks (monotonic clock and minor-heap words, per run) ===";
  let rows =
    Hashtbl.fold (fun name _ acc -> [ name; ns name; words name ] :: acc) raw []
    |> List.sort compare
  in
  Dpc_util.Table_fmt.print ~header:[ "benchmark"; "ns/run"; "minor words/run" ] ~rows
