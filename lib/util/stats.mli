(** Summary statistics for the evaluation harness. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list. *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [0, 100], linear interpolation between
    order statistics. @raise Invalid_argument on an empty list or [p]
    outside [0, 100]. *)

val maximum : float list -> float
(** @raise Invalid_argument on an empty list. *)
