(** Recursive DNS resolution as a DELP (paper Fig 19 and §6.2): the second
    evaluation workload. Name servers form a delegation hierarchy; a host's
    [url] event travels to the root, descends through matching delegations,
    resolves at the authoritative server, and the [reply] returns to the
    host. *)

val source : string

val delp : unit -> Dpc_ndlog.Delp.t

val env : Dpc_engine.Env.t
(** Registers [f_isSubDomain : (domain, url) -> bool] in its two-argument
    form ({!Dpc_engine.Env.register2}), so a compiled rule calls it without
    an argument list. Its type error names the two values it got. *)

val is_sub_domain : string -> string -> bool
(** [is_sub_domain dm url]: whether [url] falls under domain [dm] at a
    label boundary ("hello.com" covers "www.hello.com" and "hello.com" but
    not "shello.com"); every URL falls under the root domain [""] . *)

val url : host:int -> url:string -> rqid:int -> Dpc_ndlog.Tuple.t
(** The input event [url(@host, url, rqid)]. *)

val root_server : host:int -> root:int -> Dpc_ndlog.Tuple.t
val name_server : at:int -> domain:string -> server:int -> Dpc_ndlog.Tuple.t
val address_record : at:int -> url:string -> ip:string -> Dpc_ndlog.Tuple.t

val reply : host:int -> url:string -> ip:string -> rqid:int -> Dpc_ndlog.Tuple.t
(** The output tuple. *)
