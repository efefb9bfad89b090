type term = Var of string | Const of Value.t
type atom = { rel : string; args : term list }
type binop = Add | Sub | Mul | Div | Mod

type expr =
  | E_var of string
  | E_const of Value.t
  | E_binop of binop * expr * expr
  | E_call of string * expr list

type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type cond =
  | C_atom of atom
  | C_cmp of cmp * expr * expr
  | C_assign of string * expr

type rule = { name : string; head : atom; event : atom; conds : cond list }
type program = { prog_name : string; rules : rule list }

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

let atom_vars a =
  dedup (List.filter_map (function Var v -> Some v | Const _ -> None) a.args)

let rec expr_vars_acc acc = function
  | E_var v -> v :: acc
  | E_const _ -> acc
  | E_binop (_, a, b) -> expr_vars_acc (expr_vars_acc acc a) b
  | E_call (_, args) -> List.fold_left expr_vars_acc acc args

let expr_vars e = dedup (List.rev (expr_vars_acc [] e))
