(** Zipfian sampling.

    The paper's DNS workload draws requested URLs from a Zipfian
    distribution (Jung et al., "DNS performance and the effectiveness of
    caching"); this module provides a seeded sampler over ranks [0, n). *)

type t

val create : ?exponent:float -> int -> t
(** [create n] prepares a sampler over ranks [0, n) with
    P(rank = k) proportional to 1 / (k+1)^exponent. [exponent] defaults to
    1.0. @raise Invalid_argument if [n <= 0] or [exponent < 0]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [0, n). *)

val pmf : t -> int -> float
(** Probability of rank [k]. @raise Invalid_argument if out of range. *)
