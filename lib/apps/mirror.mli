(** A traffic-mirroring protocol that shares Fig 1's forwarding rule.

    Its first rule is textually identical to the forwarding program's
    [r1] (same relations, same variables, same route table); only the final
    rule differs (it logs instead of delivering). Running it concurrently
    with {!Forwarding} is the cross-program compression workload of the
    paper's future work (§8): the shared forwarding executions can be
    stored once in {!Dpc_core.Store_multi}. *)

val delp : unit -> Dpc_ndlog.Delp.t

val mirror_log : at:int -> src:int -> dst:int -> payload:string -> Dpc_ndlog.Tuple.t
(** The output tuple [mirrorLog(@at, src, dst, payload)]. *)
