(** Validation of distributed event-driven linear programs (Definition 1).

    A valid DELP satisfies:
    - every rule is event-driven (its first body element is a relational
      atom, enforced by the parser; here we additionally check that the
      event relation of each rule is an event relation of the program);
    - consecutive rules are dependent: the head relation of [r_i] equals the
      event relation of [r_{i+1}];
    - head relations appear in rule bodies only as events (never as
      slow-changing condition atoms) — and neither does the input event
      relation.

    Validation also checks arity consistency of every relation and safety
    (head variables bound by the body), which the paper assumes
    implicitly. *)

type t = private {
  program : Ast.program;
  input_event : string;  (** event relation of the first rule *)
  output_rel : string;  (** head relation of the last rule *)
  event_rels : string list;  (** input event plus all head relations *)
  slow_rels : string list;  (** relations of the slow-changing condition atoms *)
  arities : (string * int) list;  (** arity of every relation *)
}

type error =
  | Empty_program
  | Not_chained of { rule : string; head_of_previous : string; event : string }
  | Event_rel_in_conditions of { rule : string; rel : string }
  | Arity_mismatch of { rule : string; rel : string; expected : int; actual : int }
  | Unbound_head_var of { rule : string; var : string }
  | Duplicate_rule_name of string
  | Unbound_assign_var of { rule : string; var : string }

val parse : name:string -> string -> (t, string) result
(** Parse an NDlog program ({!Parser.parse_program}) and {!For_testing.validate} it.
    The error reads ["<name>: parse error: ..."] or ["<name>: not a valid
    DELP: ..."]. *)

val event_arity : t -> int
(** Arity of the input event relation. *)

module For_testing : sig
  val validate : Ast.program -> (t, error) result

  val error_to_string : error -> string

  val arity : t -> string -> int
  (** @raise Not_found for an unknown relation. *)

  val is_slow : t -> string -> bool

  val is_event : t -> string -> bool

  val rules_for_event : t -> string -> Ast.rule list
  (** Rules whose event relation is the given relation, in program order;
      this is what an arriving event tuple of that relation triggers. *)
end
