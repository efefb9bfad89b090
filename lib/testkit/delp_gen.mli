(** Random DELP instance generation for property-based testing.

    Generates syntactically valid, well-typed linear programs together with
    a complete-graph topology, slow-changing databases whose values come
    from a small domain (so joins succeed often), and random input events —
    everything needed to run all four maintenance schemes on programs no
    human wrote, and to check the paper's theorems on them. *)

type instance = {
  delp : Dpc_ndlog.Delp.t;
  nodes : int;
  slow_tuples : Dpc_ndlog.Tuple.t list;
  events : Dpc_ndlog.Tuple.t list;  (** may contain duplicates on purpose *)
  description : string;  (** pretty-printed program, for failure reports *)
}

val generate : rng:Dpc_util.Rng.t -> instance
(** A fresh instance: 1–4 chained rules, relation arities 2–5, 0–2
    slow-changing condition atoms per rule (possibly relocating the head),
    optional comparison and assignment conditions, a 4-node complete-graph
    topology, 1–3 matching slow tuples per (rule, node), and 6–10 events.
    The generated program always passes {!Dpc_ndlog.Delp.validate}. *)

type world = {
  runtime : Dpc_engine.Runtime.t;
  backend : Dpc_core.Backend.t;
  routing : Dpc_net.Routing.t;
}

val build_world :
  ?transport:Dpc_net.Transport.t ->
  ?reliable:Dpc_net.Reliable.config ->
  instance ->
  Dpc_core.Backend.scheme ->
  world
(** Instantiate the instance under one maintenance scheme (loads the slow
    tuples; events are not injected). [transport] (default: the
    simulator over the instance's complete-graph topology) must address
    exactly [instance.nodes] nodes — pass a {!Dpc_net.Transport.faulty}
    wrapper here to run the instance under injected faults, and
    [reliable] to layer at-least-once delivery on top (the chaos
    harness does both).
    @raise Invalid_argument on a transport of the wrong size. *)

val run_events : ?spacing:float -> world -> Dpc_ndlog.Tuple.t list -> unit
(** Inject the events in order and run the simulation to quiescence.
    [spacing] (default 0: everything at the epoch) injects event [i] at
    simulated time [i *. spacing] — the chaos harness uses it to spread
    the run across a window that crash schedules can land inside. *)

val queryable : Dpc_engine.Runtime.t -> (Dpc_ndlog.Tuple.t * Dpc_util.Sha1.t) list
(** The distinct (output tuple, evid) pairs the run produced, sorted.
    Tuples are compared by value ({!Dpc_ndlog.Tuple.compare}): polymorphic
    comparison would also see their memoized renderings, which depend on
    what has been computed on each copy so far. *)

val mutate_non_keys :
  rng:Dpc_util.Rng.t -> keys:Dpc_analysis.Equi_keys.t -> Dpc_ndlog.Tuple.t ->
  Dpc_ndlog.Tuple.t
(** A copy of the event whose non-key integer attributes are replaced with
    fresh values (equal to the original on every equivalence key) — the
    Theorem 1 counterpart event. Returns the original unchanged if every
    attribute is a key. *)

val tree_shape : Dpc_core.Prov_tree.t -> string
(** A canonical signature of the tree's equivalence class under the
    paper's [~] relation: the rule chain plus the slow tuples per level.
    Two trees are [~]-equivalent iff their shapes are equal. *)
