(* Benchmark harness entry point: regenerates every figure of the paper's
   evaluation (Figures 8-16) plus the §5.4 ablation, and optionally the
   Bechamel micro-benchmarks.

     dune exec bench/main.exe                 # all figures, scaled down
     dune exec bench/main.exe -- --fig 9      # one figure
     dune exec bench/main.exe -- --paper-scale
     dune exec bench/main.exe -- --tiny       # smoke-test scale
     dune exec bench/main.exe -- --json out.json
     dune exec bench/main.exe -- --micro      # micro-benchmarks only *)

let usage () =
  print_endline
    "usage: main.exe [--fig <id>] [--paper-scale] [--tiny] [--seed <n>] [--domains <n>] [--json <path>] [--micro] [--list]";
  print_endline "  ids:";
  List.iter (fun (name, _) -> Printf.printf "    %s\n" name) Figures.all

let () =
  (* The figure runs retain every provenance row they create, so the live
     heap only grows; the default space_overhead (120) makes the major GC
     chase that growth and costs ~15% of fig9's wall clock. Trading memory
     for time is the right call in a benchmark harness. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 400 };
  let args = Array.to_list Sys.argv in
  let rec parse cfg figs micro = function
    | [] -> (cfg, figs, micro)
    | "--paper-scale" :: rest -> parse { cfg with Figures.paper_scale = true } figs micro rest
    | "--tiny" :: rest -> parse { cfg with Figures.tiny = true } figs micro rest
    | "--seed" :: n :: rest ->
        parse { cfg with Figures.seed = int_of_string n } figs micro rest
    | "--domains" :: n :: rest ->
        let d = int_of_string n in
        if d < 1 then begin
          Printf.eprintf "--domains must be >= 1\n";
          exit 2
        end;
        parse { cfg with Figures.domains = d } figs micro rest
    | "--json" :: path :: rest ->
        Report.enable path;
        parse cfg figs micro rest
    | "--fig" :: id :: rest ->
        let id = if String.length id <= 2 then "fig" ^ id else id in
        parse cfg (id :: figs) micro rest
    | "--micro" :: rest -> parse cfg figs true rest
    | "--list" :: _ ->
        usage ();
        exit 0
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        usage ();
        exit 2
  in
  let cfg, figs, micro = parse Figures.default_config [] false (List.tl args) in
  let figs = List.rev figs in
  print_endline "Distributed Provenance Compression - evaluation harness";
  Printf.printf "scale: %s, seed: %d\n" (Figures.scale_name cfg) cfg.Figures.seed;
  (* No selection: run everything (all figures plus the micro suite). *)
  let run_all = figs = [] && not micro in
  let micro = micro || run_all in
  let selected =
    if run_all then Figures.all
    else if figs = [] then []
    else
      List.map
        (fun id ->
          match List.assoc_opt id Figures.all with
          | Some f -> (id, f)
          | None ->
              Printf.eprintf "unknown figure id %s\n" id;
              usage ();
              exit 2)
        figs
  in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      f cfg;
      Report.set_wall name (Unix.gettimeofday () -. t0))
    selected;
  if micro then Micro.run ();
  Report.write ~scale:(Figures.scale_name cfg) ~seed:cfg.Figures.seed;
  if !Figures.mismatches > 0 then begin
    Printf.eprintf "%d shape check(s) failed\n" !Figures.mismatches;
    exit 1
  end
