(** Abstract syntax of NDlog rules.

    A rule has the shape [head :- event, condition, ...] where the first
    body atom is the event relation designated by the programmer (the
    convention used by every program in the paper) and the remaining
    conditions are slow-changing relational atoms, comparison atoms, or
    assignments. *)

type term = Var of string | Const of Value.t

type atom = { rel : string; args : term list }
(** First argument carries the location specifier ("@" in concrete syntax). *)

type binop = Add | Sub | Mul | Div | Mod

type expr =
  | E_var of string
  | E_const of Value.t
  | E_binop of binop * expr * expr
  | E_call of string * expr list
      (** User-defined function, e.g. [f_isSubDomain(DM, URL)]. *)

type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type cond =
  | C_atom of atom  (** join with a slow-changing relation *)
  | C_cmp of cmp * expr * expr  (** arithmetic atom, e.g. [D == L] *)
  | C_assign of string * expr  (** [N := L + 2] *)

type rule = { name : string; head : atom; event : atom; conds : cond list }

type program = { prog_name : string; rules : rule list }

val atom_vars : atom -> string list
(** Variables in order of first occurrence, without duplicates. *)

val expr_vars : expr -> string list

