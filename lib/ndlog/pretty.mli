(** Pretty-printer producing parseable NDlog concrete syntax (tested by
    round-tripping through {!Parser}). *)

val program_to_string : Ast.program -> string

module For_testing : sig
  val rule_to_string : Ast.rule -> string
end
