(** Measurement helpers for the evaluation harness. *)

val storage_snapshots :
  sim:Dpc_net.Sim.t -> every:float -> until:float -> (unit -> int) ->
  (float * int) list ref
(** Schedule [probe] at [every]-second marks from 0 to [until] (inclusive)
    and collect [(time, probe ())] as the simulation runs. *)

val per_node_rates :
  backend:Dpc_core.Backend.t -> nodes:int -> duration:float -> float list
(** Average provenance storage growth rate (bytes/second of prov+ruleExec)
    per node over a run of [duration] seconds, for CDF figures (8, 13). *)

val total_provenance_bytes : Dpc_core.Backend.t -> int

val metrics_rows : Dpc_engine.Runtime.t -> string list list
(** The cluster-wide merge of the runtime's per-node metric registries
    ([runtime.*] plus whatever [store.*] counters the backend recorded,
    when the runtime and the store share a cluster), formatted as
    [[name; kind; value]] rows for {!Dpc_util.Table_fmt}. *)
