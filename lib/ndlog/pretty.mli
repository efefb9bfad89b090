(** Pretty-printer producing parseable NDlog concrete syntax (tested by
    round-tripping through {!Parser}). *)

val rule_to_string : Ast.rule -> string
val program_to_string : Ast.program -> string
