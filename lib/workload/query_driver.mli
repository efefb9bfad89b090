(** Open-loop Zipfian query-storm driver for the serving tier.

    Real provenance query traffic is heavily skewed — a few popular
    outputs (hot routes, incident tuples) draw most of the load — so the
    driver ranks a target population by the existing {!Dpc_util.Zipf}
    sampler and fires seeded storms against a live backend:

    - {!storm} issues a closed burst, e.g. against a quiesced run;
    - {!schedule_storm} arms an open-loop arrival process on the run's
      transport (fixed rate, issue times independent of completions), so
      queries interleave with ingest or with a crash window, riding the
      [?up] degraded path from the crash-fault PR.

    Everything is deterministic given the seed: the same storm against
    the same world issues the same queries in the same order, which is
    what lets the chaos-style suites compare cache-on vs cache-off runs
    digest-for-digest and the bench gate pin p99. *)

type t

val create :
  backend:Dpc_core.Backend.t ->
  routing:Dpc_net.Routing.t ->
  targets:Dpc_ndlog.Tuple.t array ->
  ?exponent:float ->
  ?seed:int ->
  ?cost:Dpc_core.Query_cost.t ->
  unit ->
  t
(** [targets] in rank order: index 0 is the hottest tuple. [exponent]
    (default 1.0) is the Zipf skew, [seed] (default 0) the driver's RNG,
    [cost] (default {!Dpc_core.Query_cost.emulation}) the latency model.
    @raise Invalid_argument if [targets] is empty. *)

type outcome = {
  issued : int;
  complete : int;  (** results with [complete = true] *)
  partial : int;  (** degraded results (a down node was hit) *)
  empty : int;  (** results with no trees *)
  latencies : float list;  (** modeled seconds, in issue order *)
}

val storm : t -> ?up:(int -> bool) -> count:int -> unit -> outcome
(** [count] queries back to back (a closed burst). *)

val schedule_storm :
  t ->
  transport:Dpc_net.Transport.t ->
  ?up:(int -> bool) ->
  start:float ->
  rate:float ->
  count:int ->
  unit ->
  unit -> outcome
(** Arm [count] queries at fixed [rate] per second of simulated time
    beginning [start] seconds from now — an open-loop arrival process.
    Returns a collector to call after the transport run completes; it
    reports whatever has fired so far. [up] is evaluated at each query's
    fire time, so a query landing in a crash window degrades and one
    landing after recovery doesn't.
    @raise Invalid_argument if [rate <= 0] or [count < 0]. *)

type percentiles = { p50 : float; p90 : float; p99 : float; mean : float }

val percentiles_ms : outcome -> percentiles
(** Latency percentiles in milliseconds.
    @raise Invalid_argument on an outcome with no latencies. *)
