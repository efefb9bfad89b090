(** Attribute-level dependency graph (paper §5.2).

    Vertices are relation attributes [(rel, index)]. For each rule with
    event atom [ev], an edge connects an event attribute to another
    attribute of the same rule when (1) they share a variable and the other
    attribute belongs to a slow-changing relation, (2) they share a variable
    and the other attribute is a head attribute, (3) their variables appear
    in the same arithmetic (comparison) atom, or (4) the event attribute's
    variable is on the right-hand side of an assignment whose left-hand
    variable is the other (head) attribute.

    Vertices shared between rules (the head relation of [r_i] is the event
    of [r_{i+1}]) connect the per-rule edges into program-wide paths, which
    is what {!Equi_keys} walks.

    Anchors are the targets that make an event attribute an equivalence
    key: attributes of slow-changing relations, plus attributes whose
    variables participate in comparison atoms (the appendix's
    JOIN-ARITH-LEFT/RIGHT rules, which treat comparison participation like a
    slow-changing join because comparisons steer the execution path). *)

type attr = { rel : string; idx : int }

val attr_to_string : attr -> string
(** e.g. ["packet:2"]. *)

type t

val build : Dpc_ndlog.Delp.t -> t

val vertices : t -> attr list
(** Sorted, deduplicated. *)

val edges : t -> (attr * attr) list
(** Each undirected edge once, with endpoints ordered. *)

val is_anchor : t -> attr -> bool

val reaches_anchor : t -> attr -> bool

val pp : Format.formatter -> t -> unit

module For_testing : sig
  val neighbors : t -> attr -> attr list
  (** Sorted; empty for unknown vertices. *)

  val reachable : t -> attr -> attr -> bool
  (** Undirected reachability (a vertex reaches itself). *)
end
