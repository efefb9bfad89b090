(** Link-outage plans for the partition oracles, built on
    {!Dpc_net.Transport}'s public plan type: an asymmetric one-way
    outage, one link cut both ways, a flapping link with a min-heal
    dwell, and a seeded-random schedule. Arm one with
    {!Dpc_net.Transport.schedule_plan}. *)

open Dpc_net

val oneway_plan : src:int -> dst:int -> at:float -> duration:float -> Transport.partition_plan
(** One asymmetric outage: [src -> dst] goes dark, the reverse link keeps
    delivering. *)

val link_plan : a:int -> b:int -> at:float -> duration:float -> Transport.partition_plan
(** Both directions of one link, cut and healed together. *)

val flap_plan :
  a:int -> b:int -> at:float -> cycles:int -> down:float -> dwell:float -> Transport.partition_plan
(** [cycles] symmetric down-windows of [down] seconds, separated by
    [dwell] seconds of healed link.
    @raise Invalid_argument if [cycles], [down] or [dwell] is not
    positive. *)

val random_plan :
  seed:int ->
  nodes:int ->
  count:int ->
  horizon:float ->
  min_down:float ->
  max_down:float ->
  ?dwell:float ->
  unit ->
  Transport.partition_plan
(** Up to [count] directed outages with down times in
    [min_down, max_down) and start times in [0, horizon), pure in its
    arguments ({!Dpc_net.Transport.channel_unit_hash} underneath).
    Overlapping outages of one link are pruned, keeping the earlier
    window and [dwell] seconds of heal between consecutive ones.
    @raise Invalid_argument on fewer than 2 nodes, a negative count, or a
    bad down-time range. *)

val plan_horizon : Transport.partition_plan -> float
(** The latest heal time of the plan, 0 for an empty one. *)
