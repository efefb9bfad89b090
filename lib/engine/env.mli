(** User-defined function environment for rule evaluation (e.g. the DNS
    program's [f_isSubDomain]). *)

exception Eval_error of string
(** The evaluator's error, re-exported as {!Eval.Eval_error}: defined here
    so that the list form of a {!register2} function can raise it. *)

type t

val empty : t

val register : t -> string -> (Dpc_ndlog.Value.t list -> Dpc_ndlog.Value.t) -> t
(** Functional update; later registrations shadow earlier ones. *)

val register2 :
  t -> string -> (Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t) -> t
(** Register a two-argument function. A compiled two-argument call of it
    ({!Eval.plan}) calls this form directly, with no argument list;
    {!lookup} returns its list form, which raises {!Eval_error} on any
    other number of arguments. *)

val lookup : t -> string -> (Dpc_ndlog.Value.t list -> Dpc_ndlog.Value.t) option

val lookup2 : t -> string -> (Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t) option
(** The two-argument form of the latest registration of the name, if that
    registration was a {!register2}. *)

val names : t -> string list
