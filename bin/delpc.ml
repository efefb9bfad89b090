(* delpc: the DELP "compiler" front end.

   Parses an NDlog program, validates the DELP restrictions (Definition 1),
   and reports the static analysis of §5.2: relation classification, the
   attribute-level dependency graph, and the equivalence keys.

     dune exec bin/delpc.exe -- check program.delp
     dune exec bin/delpc.exe -- analyze program.delp
     dune exec bin/delpc.exe -- analyze --builtin dns *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let builtins =
  [
    ("forwarding", Dpc_apps.Forwarding.source);
    ("dns", Dpc_apps.Dns.source);
  ]

let load ~builtin ~file =
  match builtin, file with
  | Some name, _ -> begin
      match List.assoc_opt name builtins with
      | Some src -> Ok (name, src)
      | None ->
          Error
            (Printf.sprintf "unknown builtin %S (available: %s)" name
               (String.concat ", " (List.map fst builtins)))
    end
  | None, Some path -> begin
      match read_file path with
      | src -> Ok (Filename.remove_extension (Filename.basename path), src)
      | exception Sys_error e -> Error e
    end
  | None, None -> Error "provide a program file or --builtin <name>"

let or_die = function
  | Ok v -> v
  | Error message ->
      prerr_endline ("delpc: " ^ message);
      exit 1

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"NDlog program file.")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:"Use a built-in program (forwarding or dns) instead of a file.")

let check builtin file =
  let name, src = or_die (load ~builtin ~file) in
  let delp = or_die (Dpc_ndlog.Delp.parse ~name src) in
  Printf.printf "%s: valid DELP with %d rules\n" name (List.length delp.program.rules);
  Printf.printf "  input event   : %s/%d\n" delp.input_event
    (Dpc_ndlog.Delp.event_arity delp);
  Printf.printf "  output        : %s\n" delp.output_rel;
  Printf.printf "  event relations: %s\n" (String.concat ", " delp.event_rels);
  Printf.printf "  slow-changing : %s\n" (String.concat ", " delp.slow_rels)

let analyze builtin file dot =
  let name, src = or_die (load ~builtin ~file) in
  let delp = or_die (Dpc_ndlog.Delp.parse ~name src) in
  let g = Dpc_analysis.Depgraph.build delp in
  let keys = Dpc_analysis.Equi_keys.compute delp in
  Printf.printf "program %s:\n%s\n\n" name (Dpc_ndlog.Pretty.program_to_string delp.program);
  if dot then begin
    (* Graphviz rendering of the dependency graph. *)
    print_endline "graph depgraph {";
    List.iter
      (fun v ->
        Printf.printf "  \"%s\"%s;\n"
          (Dpc_analysis.Depgraph.attr_to_string v)
          (if Dpc_analysis.Depgraph.is_anchor g v then " [style=filled, fillcolor=lightgray]"
           else ""))
      (Dpc_analysis.Depgraph.vertices g);
    List.iter
      (fun (a, b) ->
        Printf.printf "  \"%s\" -- \"%s\";\n"
          (Dpc_analysis.Depgraph.attr_to_string a)
          (Dpc_analysis.Depgraph.attr_to_string b))
      (Dpc_analysis.Depgraph.edges g);
    print_endline "}"
  end
  else begin
    Format.printf "attribute-level dependency graph:@.%a@.@." Dpc_analysis.Depgraph.pp g;
    Format.printf "%a@." Dpc_analysis.Equi_keys.pp keys
  end

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a DELP (Definition 1).")
    Term.(const check $ builtin_arg $ file_arg)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the dependency graph as Graphviz DOT.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the dependency graph and equivalence keys (paper \u{00a7}5.2).")
    Term.(const analyze $ builtin_arg $ file_arg $ dot_arg)

let () =
  let info =
    Cmd.info "delpc" ~version:"1.0.0"
      ~doc:"Static analysis for distributed event-driven linear programs."
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd; analyze_cmd ]))
