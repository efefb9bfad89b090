(** Packet-forwarding experiment driver (§6.1): wires a topology, a
    provenance backend, and a runtime together; installs shortest-path
    routes for the communicating pairs; and injects packet streams. *)

type t = {
  sim : Dpc_net.Sim.t option;
      (** the simulator, when built with {!setup}; [None] under
          {!setup_on} (e.g. a {!Dpc_net.Shard_sim} backend) *)
  transport : Dpc_net.Transport.t;
      (** the transport the runtime sends through (fault wrapper
          included, when [faults] was given) *)
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
  pairs : (int * int) list;
  fault_stats : Dpc_net.Transport.fault_stats option;
      (** live counters of the fault injector, when [faults] was given *)
}

val sim_exn : t -> Dpc_net.Sim.t
(** The simulator behind a {!setup}-built driver, for its clock and its
    byte counters. @raise Invalid_argument on a driver built with
    {!setup_on}. *)

val setup :
  scheme:Dpc_core.Backend.scheme ->
  topology:Dpc_net.Topology.t ->
  routing:Dpc_net.Routing.t ->
  pairs:(int * int) list ->
  ?record_outputs:bool ->
  ?faults:Dpc_net.Transport.fault_config ->
  ?fault_seed:int ->
  ?reliable:Dpc_net.Reliable.config ->
  unit ->
  t
(** [record_outputs] (default [true]) is passed to the runtime; turn it
    off in long measurement runs that never call {!received} or
    {!query_random_outputs}.

    [faults] interposes {!Dpc_net.Transport.faulty} (seeded by
    [fault_seed], default 0) between the simulator and the runtime, and
    [reliable] layers {!Dpc_net.Reliable} on top so the run still
    delivers everything; the retransmit/ack overhead is then readable
    from [Dpc_engine.Runtime.reliability runtime]. Injecting faults
    without [reliable] will lose messages. *)

val setup_on :
  transport:Dpc_net.Transport.t ->
  scheme:Dpc_core.Backend.scheme ->
  routing:Dpc_net.Routing.t ->
  pairs:(int * int) list ->
  ?record_outputs:bool ->
  ?reliable:Dpc_net.Reliable.config ->
  unit ->
  t
(** The same world over an arbitrary transport — the domain-scaling
    bench runs the forwarding workload over {!Dpc_net.Shard_sim} this
    way. [routing] still provides the pair routes (and query-time
    costs); wire latency is whatever the transport models. Drivers built
    here have no simulator: {!sim_exn} raises. *)

val inject_stream :
  t -> rate_per_pair:float -> duration:float -> payload_size:int -> int
(** Inject packets for every pair at [rate_per_pair] packets/second for
    [duration] seconds of simulated time; payloads are unique per packet
    and padded to [payload_size] bytes. Returns the number injected
    (schedules only; call {!run}). *)

val inject_total :
  t -> total:int -> duration:float -> payload_size:int -> int
(** Inject [total] packets distributed evenly (round-robin) across the
    pairs over [duration] seconds (the Fig 10 workload). *)

val run : ?until:float -> t -> unit

val received : t -> Dpc_ndlog.Tuple.t list
(** The [recv] output tuples, in arrival order. *)

val query_random_outputs :
  t -> rng:Dpc_util.Rng.t -> cost:Dpc_core.Query_cost.t -> count:int ->
  Dpc_core.Query_result.t list
(** Execute [count] provenance queries on outputs drawn uniformly from the
    received tuples (the Fig 12 workload).
    @raise Invalid_argument if nothing was received. *)
