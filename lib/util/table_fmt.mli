(** Plain-text table rendering for benchmark output and example programs. *)

val print : header:string list -> rows:string list list -> unit

val human_bytes : int -> string
(** "1.2 KB", "3.4 MB", ... *)

val human_rate : float -> string
(** Bytes per second, e.g. "10.3 MB/s". *)

module For_testing : sig
  val render : header:string list -> rows:string list list -> string
  (** Render an ASCII table with aligned columns. Rows shorter than the header
      are padded with empty cells; longer rows are truncated. *)
end
