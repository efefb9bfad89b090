(** Equivalence-key identification (paper Fig 5, [GetEquiKeys]).

    The equivalence keys of a DELP are the input-event attributes whose
    values determine the shape of the provenance tree: attribute 0 (the
    input location, always included) plus every event attribute that reaches
    an anchor in the attribute-level dependency graph. Two input events
    equal on the keys generate equivalent provenance trees (Theorem 1). *)

type t

val compute : Dpc_ndlog.Delp.t -> t
(** Runs the static analysis once; reuse the result at runtime. *)

val key_hash : t -> Dpc_ndlog.Tuple.t -> Dpc_util.Sha1.t
(** SHA-1 of the canonical key projection; the runtime's [htequi]/[hmap]
    key. *)

val pp : Format.formatter -> t -> unit

module For_testing : sig
  val keys : t -> int list
  (** Sorted attribute indices of the input event relation; always contains
      [0]. *)

  val key_values : t -> Dpc_ndlog.Tuple.t -> Dpc_ndlog.Value.t list
  (** Projection of an input event tuple onto the keys.
      @raise Invalid_argument if the tuple is not of the input event
      relation. *)

  val equivalent : t -> Dpc_ndlog.Tuple.t -> Dpc_ndlog.Tuple.t -> bool
  (** Event equivalence [ev1 ~K ev2] (Definition 2). *)
end
