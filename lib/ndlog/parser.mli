(** Recursive-descent parser for NDlog programs.

    Concrete syntax, one rule per sentence:

    {v
    r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
    r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
    v}

    The first body atom of each rule is its event relation (the convention
    used by all programs in the paper). "//" starts a line comment. *)

val parse_program : name:string -> string -> (Ast.program, string) result
(** Parse a full program source. Errors carry "line:col: message". *)

module For_testing : sig
  val parse_rule : string -> (Ast.rule, string) result
  (** Parse a single rule, for tests and tooling. *)
end
