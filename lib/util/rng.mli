(** Seeded pseudo-random source.

    Every stochastic component of the reproduction (topology generation, pair
    selection, payloads, Zipf sampling) draws from an explicit [Rng.t] so
    that experiments and tests are deterministic. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

module For_testing : sig
  val split : t -> t
  (** A new independent generator derived from [t]'s stream. *)
end
