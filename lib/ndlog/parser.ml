open Lexer

type state = { toks : located array; mutable pos : int }

exception Parse_error of string

let fail_at (t : located) message =
  raise (Parse_error (Printf.sprintf "%d:%d: %s" t.line t.col message))

let cur st = st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let expect st tok =
  let t = cur st in
  if t.tok = tok then advance st
  else fail_at t (Printf.sprintf "expected %s, found %s" (describe tok) (describe t.tok))

let expect_ident st =
  let t = cur st in
  match t.tok with
  | T_ident s ->
      advance st;
      s
  | _ -> fail_at t (Printf.sprintf "expected an identifier, found %s" (describe t.tok))

let cmp_of_token = function
  | T_eq -> Some Ast.Eq
  | T_neq -> Some Ast.Neq
  | T_lt -> Some Ast.Lt
  | T_leq -> Some Ast.Leq
  | T_gt -> Some Ast.Gt
  | T_geq -> Some Ast.Geq
  | _ -> None

(* --------------------------------------------------------------- *)
(* Expressions: precedence climbing with two levels. *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = parse_multiplicative st in
  let rec go lhs =
    match (cur st).tok with
    | T_plus ->
        advance st;
        go (Ast.E_binop (Ast.Add, lhs, parse_multiplicative st))
    | T_minus ->
        advance st;
        go (Ast.E_binop (Ast.Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  go lhs

and parse_multiplicative st =
  let lhs = parse_primary st in
  let rec go lhs =
    match (cur st).tok with
    | T_star ->
        advance st;
        go (Ast.E_binop (Ast.Mul, lhs, parse_primary st))
    | T_slash ->
        advance st;
        go (Ast.E_binop (Ast.Div, lhs, parse_primary st))
    | T_percent ->
        advance st;
        go (Ast.E_binop (Ast.Mod, lhs, parse_primary st))
    | _ -> lhs
  in
  go lhs

and parse_primary st =
  let t = cur st in
  match t.tok with
  | T_int i ->
      advance st;
      Ast.E_const (Value.Int i)
  | T_minus ->
      advance st;
      let e = parse_primary st in
      begin
        match e with
        | Ast.E_const (Value.Int i) -> Ast.E_const (Value.Int (-i))
        | _ -> Ast.E_binop (Ast.Sub, Ast.E_const (Value.Int 0), e)
      end
  | T_str s ->
      advance st;
      Ast.E_const (Value.Str s)
  | T_bool b ->
      advance st;
      Ast.E_const (Value.Bool b)
  | T_var v ->
      advance st;
      Ast.E_var v
  | T_ident f ->
      advance st;
      expect st T_lparen;
      let args = parse_expr_list st in
      expect st T_rparen;
      Ast.E_call (f, args)
  | T_lparen ->
      advance st;
      let e = parse_expr st in
      expect st T_rparen;
      e
  | _ -> fail_at t (Printf.sprintf "expected an expression, found %s" (describe t.tok))

and parse_expr_list st =
  let first = parse_expr st in
  let rec go acc =
    match (cur st).tok with
    | T_comma ->
        advance st;
        go (parse_expr st :: acc)
    | _ -> List.rev acc
  in
  go [ first ]

(* --------------------------------------------------------------- *)
(* Atoms: rel(@First, T2, ...). The leading '@' is required. *)

let term_of_expr t = function
  | Ast.E_var v -> Ast.Var v
  | Ast.E_const c -> Ast.Const c
  | Ast.E_binop _ | Ast.E_call _ ->
      fail_at t "relation arguments must be variables or constants"

let parse_atom_args st =
  (* Returns the '@'-marked flag and argument expressions. *)
  expect st T_lparen;
  let at_marked =
    match (cur st).tok with
    | T_at ->
        advance st;
        true
    | _ -> false
  in
  let args = parse_expr_list st in
  expect st T_rparen;
  (at_marked, args)

let parse_head_atom st =
  let t = cur st in
  let rel = expect_ident st in
  let at_marked, args = parse_atom_args st in
  if not at_marked then
    fail_at t (Printf.sprintf "head relation %S is missing its location specifier '@'" rel);
  { Ast.rel; args = List.map (term_of_expr t) args }

(* A body element beginning with ident '(' is an atom when followed by
   ',' or '.', and a function-call comparison when followed by a
   comparison operator. *)
let parse_body_elem st =
  let t = cur st in
  match t.tok, (st.toks.(min (st.pos + 1) (Array.length st.toks - 1))).tok with
  | T_var v, T_assign ->
      advance st;
      advance st;
      Ast.C_assign (v, parse_expr st)
  | T_ident rel, T_lparen -> begin
      advance st;
      let at_marked, args = parse_atom_args st in
      match cmp_of_token (cur st).tok with
      | Some op ->
          if at_marked then
            fail_at t (Printf.sprintf "function %S cannot take a location specifier" rel);
          advance st;
          let rhs = parse_expr st in
          Ast.C_cmp (op, Ast.E_call (rel, args), rhs)
      | None ->
          if not at_marked then
            fail_at t
              (Printf.sprintf "relation %S is missing its location specifier '@'" rel);
          Ast.C_atom { Ast.rel; args = List.map (term_of_expr t) args }
    end
  | _ -> begin
      let lhs = parse_expr st in
      match cmp_of_token (cur st).tok with
      | Some op ->
          advance st;
          Ast.C_cmp (op, lhs, parse_expr st)
      | None ->
          fail_at (cur st)
            (Printf.sprintf "expected a comparison operator, found %s"
               (describe (cur st).tok))
    end

let parse_rule_inner st =
  let name_tok = cur st in
  let name =
    match name_tok.tok with
    | T_ident s ->
        advance st;
        s
    | _ -> fail_at name_tok "expected a rule name (e.g. \"r1\")"
  in
  let head = parse_head_atom st in
  expect st T_derives;
  let first = parse_body_elem st in
  let rec go acc =
    match (cur st).tok with
    | T_comma ->
        advance st;
        go (parse_body_elem st :: acc)
    | _ -> List.rev acc
  in
  let body = go [ first ] in
  expect st T_dot;
  match body with
  | Ast.C_atom event :: conds -> { Ast.name; head; event; conds }
  | (Ast.C_cmp _ | Ast.C_assign _) :: _ | [] ->
      fail_at name_tok
        (Printf.sprintf "rule %S: the first body element must be the event relation" name)

let with_tokens src f =
  match Lexer.tokenize src with
  | Error e -> Error (Printf.sprintf "%d:%d: %s" e.line e.col e.message)
  | Ok toks -> begin
      let st = { toks = Array.of_list toks; pos = 0 } in
      match f st with v -> Ok v | exception Parse_error m -> Error m
    end

let parse_program ~name src =
  with_tokens src (fun st ->
    let rec go acc =
      match (cur st).tok with
      | T_eof -> List.rev acc
      | _ -> go (parse_rule_inner st :: acc)
    in
    { Ast.prog_name = name; rules = go [] })

let parse_rule src =
  with_tokens src (fun st ->
    let r = parse_rule_inner st in
    expect st T_eof;
    r)

module For_testing = struct
  let parse_rule = parse_rule
end
