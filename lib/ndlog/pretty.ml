let term fmt = function
  | Ast.Var v -> Format.pp_print_string fmt v
  | Ast.Const c -> Value.pp fmt c

let atom fmt (a : Ast.atom) =
  Format.fprintf fmt "%s(" a.rel;
  List.iteri
    (fun i t ->
      if i = 0 then Format.fprintf fmt "@@%a" term t
      else Format.fprintf fmt ", %a" term t)
    a.args;
  Format.pp_print_char fmt ')'

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"

let cmp_str = function
  | Ast.Eq -> "=="
  | Ast.Neq -> "!="
  | Ast.Lt -> "<"
  | Ast.Leq -> "<="
  | Ast.Gt -> ">"
  | Ast.Geq -> ">="

let rec expr fmt = function
  | Ast.E_var v -> Format.pp_print_string fmt v
  | Ast.E_const c -> Value.pp fmt c
  | Ast.E_binop (op, a, b) ->
      (* Parenthesize operands conservatively: re-parsing must preserve the
         tree, and precedence inside the operands may be lower. *)
      Format.fprintf fmt "%a %s %a" paren_operand a (binop_str op) paren_operand b
  | Ast.E_call (f, args) ->
      Format.fprintf fmt "%s(" f;
      List.iteri
        (fun i e ->
          if i > 0 then Format.pp_print_string fmt ", ";
          expr fmt e)
        args;
      Format.pp_print_char fmt ')'

and paren_operand fmt e =
  match e with
  | Ast.E_binop _ -> Format.fprintf fmt "(%a)" expr e
  | Ast.E_var _ | Ast.E_const _ | Ast.E_call _ -> expr fmt e

let cond fmt = function
  | Ast.C_atom a -> atom fmt a
  | Ast.C_cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" expr a (cmp_str op) expr b
  | Ast.C_assign (v, e) -> Format.fprintf fmt "%s := %a" v expr e

let rule fmt (r : Ast.rule) =
  Format.fprintf fmt "%s %a :- %a" r.name atom r.head atom r.event;
  List.iter (fun c -> Format.fprintf fmt ", %a" cond c) r.conds;
  Format.pp_print_char fmt '.'

let program fmt (p : Ast.program) =
  List.iteri
    (fun i r ->
      if i > 0 then Format.pp_print_newline fmt ();
      rule fmt r)
    p.rules

let rule_to_string r = Format.asprintf "%a" rule r
let program_to_string p = Format.asprintf "%a" program p

module For_testing = struct
  let rule_to_string = rule_to_string
end
