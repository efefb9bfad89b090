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

let map_term f = function Var v -> Var (f v) | Const c -> Const c
let map_atom f a = { a with args = List.map (map_term f) a.args }

let rec map_expr f = function
  | E_var v -> E_var (f v)
  | E_const c -> E_const c
  | E_binop (op, a, b) -> E_binop (op, map_expr f a, map_expr f b)
  | E_call (name, args) -> E_call (name, List.map (map_expr f) args)

let map_cond f = function
  | C_atom a -> C_atom (map_atom f a)
  | C_cmp (op, a, b) -> C_cmp (op, map_expr f a, map_expr f b)
  | C_assign (x, e) -> C_assign (f x, map_expr f e)

let map_rule_vars f r =
  {
    r with
    head = map_atom f r.head;
    event = map_atom f r.event;
    conds = List.map (map_cond f) r.conds;
  }

let rule_vars_in_order r =
  let ordered = ref [] in
  let note v = ordered := v :: !ordered in
  let term = function Var v -> note v | Const _ -> () in
  let atom (a : atom) = List.iter term a.args in
  let rec expr = function
    | E_var v -> note v
    | E_const _ -> ()
    | E_binop (_, a, b) ->
        expr a;
        expr b
    | E_call (_, args) -> List.iter expr args
  in
  atom r.head;
  atom r.event;
  List.iter
    (function
      | C_atom a -> atom a
      | C_cmp (_, a, b) ->
          expr a;
          expr b
      | C_assign (x, e) ->
          note x;
          expr e)
    r.conds;
  dedup (List.rev !ordered)
