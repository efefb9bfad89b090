type t = {
  program : Ast.program;
  input_event : string;
  output_rel : string;
  event_rels : string list;
  slow_rels : string list;
  arities : (string * int) list;
}

type error =
  | Empty_program
  | Not_chained of { rule : string; head_of_previous : string; event : string }
  | Event_rel_in_conditions of { rule : string; rel : string }
  | Arity_mismatch of { rule : string; rel : string; expected : int; actual : int }
  | Unbound_head_var of { rule : string; var : string }
  | Duplicate_rule_name of string
  | Unbound_assign_var of { rule : string; var : string }

let error_to_string = function
  | Empty_program -> "program has no rules"
  | Not_chained { rule; head_of_previous; event } ->
      Printf.sprintf
        "rule %s: event relation %S does not match the head relation %S of the previous rule"
        rule event head_of_previous
  | Event_rel_in_conditions { rule; rel } ->
      Printf.sprintf
        "rule %s: relation %S is an event relation but appears as a slow-changing condition"
        rule rel
  | Arity_mismatch { rule; rel; expected; actual } ->
      Printf.sprintf "rule %s: relation %S used with arity %d but previously with %d" rule
        rel actual expected
  | Unbound_head_var { rule; var } ->
      Printf.sprintf "rule %s: head variable %S is not bound by the body" rule var
  | Duplicate_rule_name name -> Printf.sprintf "duplicate rule name %S" name
  | Unbound_assign_var { rule; var } ->
      Printf.sprintf "rule %s: assignment uses unbound variable %S" rule var

exception Invalid of error

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let collect_arities (p : Ast.program) =
  let arities : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let note rule (a : Ast.atom) =
    let actual = List.length a.args in
    match Hashtbl.find_opt arities a.rel with
    | None -> Hashtbl.add arities a.rel actual
    | Some expected ->
        if expected <> actual then
          raise (Invalid (Arity_mismatch { rule; rel = a.rel; expected; actual }))
  in
  List.iter
    (fun (r : Ast.rule) ->
      note r.name r.head;
      note r.name r.event;
      List.iter
        (function
          | Ast.C_atom a -> note r.name a
          | Ast.C_cmp _ | Ast.C_assign _ -> ())
        r.conds)
    p.rules;
  Hashtbl.fold (fun rel n acc -> (rel, n) :: acc) arities []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check_safety (r : Ast.rule) =
  (* Variables bound so far: event args, slow atom args, then assignment
     left-hand sides in order; comparisons and assignment right-hand sides
     must only use bound variables, and so must the head. *)
  let bound = Hashtbl.create 16 in
  let bind v = Hashtbl.replace bound v () in
  List.iter bind (Ast.atom_vars r.event);
  List.iter
    (function
      | Ast.C_atom a -> List.iter bind (Ast.atom_vars a)
      | Ast.C_cmp _ | Ast.C_assign _ -> ())
    r.conds;
  List.iter
    (function
      | Ast.C_atom _ -> ()
      | Ast.C_cmp (_, a, b) ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem bound v) then
                raise (Invalid (Unbound_assign_var { rule = r.name; var = v })))
            (Ast.expr_vars a @ Ast.expr_vars b)
      | Ast.C_assign (x, e) ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem bound v) then
                raise (Invalid (Unbound_assign_var { rule = r.name; var = v })))
            (Ast.expr_vars e);
          bind x)
    r.conds;
  List.iter
    (fun v ->
      if not (Hashtbl.mem bound v) then
        raise (Invalid (Unbound_head_var { rule = r.name; var = v })))
    (Ast.atom_vars r.head)

let validate (p : Ast.program) =
  try
    match p.rules with
    | [] -> Error Empty_program
    | first :: _ ->
        (* Unique rule names. *)
        let names = Hashtbl.create 8 in
        List.iter
          (fun (r : Ast.rule) ->
            if Hashtbl.mem names r.name then raise (Invalid (Duplicate_rule_name r.name));
            Hashtbl.add names r.name ())
          p.rules;
        let arities = collect_arities p in
        (* Chaining of consecutive rules. *)
        let rec check_chain = function
          | (a : Ast.rule) :: (b : Ast.rule) :: rest ->
              if not (String.equal a.head.rel b.event.rel) then
                raise
                  (Invalid
                     (Not_chained
                        {
                          rule = b.name;
                          head_of_previous = a.head.rel;
                          event = b.event.rel;
                        }));
              check_chain (b :: rest)
          | [ _ ] | [] -> ()
        in
        check_chain p.rules;
        let input_event = first.event.rel in
        let heads = List.map (fun (r : Ast.rule) -> r.head.rel) p.rules in
        let event_rels = dedup (input_event :: heads) in
        (* Event relations must not appear as slow-changing conditions. *)
        List.iter
          (fun (r : Ast.rule) ->
            List.iter
              (function
                | Ast.C_atom a ->
                    if List.mem a.rel event_rels then
                      raise (Invalid (Event_rel_in_conditions { rule = r.name; rel = a.rel }))
                | Ast.C_cmp _ | Ast.C_assign _ -> ())
              r.conds)
          p.rules;
        let slow_rels =
          dedup
            (List.concat_map
               (fun (r : Ast.rule) ->
                 List.filter_map
                   (function
                     | Ast.C_atom a -> Some a.rel
                     | Ast.C_cmp _ | Ast.C_assign _ -> None)
                   r.conds)
               p.rules)
        in
        List.iter check_safety p.rules;
        let output_rel = (List.nth p.rules (List.length p.rules - 1)).head.rel in
        Ok { program = p; input_event; output_rel; event_rels; slow_rels; arities }
  with Invalid e -> Error e

let parse ~name source =
  match Parser.parse_program ~name source with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" name e)
  | Ok p ->
      Result.map_error (fun e -> name ^ ": not a valid DELP: " ^ error_to_string e) (validate p)

let arity t rel = List.assoc rel t.arities
let is_slow t rel = List.mem rel t.slow_rels
let is_event t rel = List.mem rel t.event_rels

let rules_for_event t rel =
  List.filter (fun (r : Ast.rule) -> String.equal r.event.rel rel) t.program.rules

let event_arity t = arity t t.input_event

module For_testing = struct
  let validate = validate
  let error_to_string = error_to_string
  let arity = arity
  let is_slow = is_slow
  let is_event = is_event
  let rules_for_event = rules_for_event
end
