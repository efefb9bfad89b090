(** Evaluation of a single DELP rule against an event tuple.

    [fire] is the reference join: unify the event atom with the arriving
    event tuple, join the slow-changing condition atoms against the local
    database (scanning and sorting each relation), evaluate comparison
    atoms and assignments, and instantiate the head. One result per
    satisfying combination of slow-changing tuples. The runtime does not
    call it; the property tests compare the compiled path below with it.

    The runtime fires {!plan}s: each rule compiled once into steps over
    numbered variable slots, whose condition atoms probe {!Db} indexes,
    into a per-node {!scratch} ({!fire_into}).
    [fire_with_slow] runs the same plan for the symbolic re-derivation used
    at query time (§4 step 2): instead of joining the database — whose
    slow-changing tables may have changed since — it binds the condition
    atoms to the recorded slow tuples and recomputes the head. *)

exception Eval_error of string
(** Type errors, unknown functions, division by zero: the same exception
    as {!Env.Eval_error}. Evaluation is only partial on ill-typed
    programs; DELP validation does not type-check. *)

type binding = (string * Dpc_ndlog.Value.t) list

val match_atom :
  Dpc_ndlog.Ast.atom -> Dpc_ndlog.Tuple.t -> binding -> binding option
(** Unify an atom against a ground tuple, extending the binding; [None] on
    relation/arity/value mismatch. *)

val eval_expr : Env.t -> binding -> Dpc_ndlog.Ast.expr -> Dpc_ndlog.Value.t
(** @raise Eval_error on unbound variables, unknown functions, type
    mismatches, division by zero. *)

val instantiate : Dpc_ndlog.Ast.atom -> binding -> Dpc_ndlog.Tuple.t
(** @raise Eval_error on unbound variables. *)

val fire :
  env:Env.t ->
  db:Db.t ->
  rule:Dpc_ndlog.Ast.rule ->
  event:Dpc_ndlog.Tuple.t ->
  (Dpc_ndlog.Tuple.t * Dpc_ndlog.Tuple.t list) list
(** All (head, slow tuples used) derivations of [rule] triggered by
    [event]; empty if the event does not match or no join succeeds. Slow
    tuples are listed in condition-atom order. *)

type plan
(** A rule compiled over a register file, one slot per variable: the event
    atom becomes per-position checks and binds; each condition atom a
    {!Db.probe} whose key is read from the constants and slots bound before
    it; each comparison or assignment an expression over slots; the head an
    array of slot and constant reads. *)

val plan : env:Env.t -> Dpc_ndlog.Ast.rule -> plan
(** Compile a rule, resolving its functions in [env] (an unknown function
    fails when a firing first evaluates it, as in {!fire}).
    @raise Eval_error on a head variable the body never binds, which
    {!Dpc_ndlog.Delp.validate} rules out. *)

val plan_rule : plan -> Dpc_ndlog.Ast.rule

type scratch
(** The working memory of a firing: a register file and a growable buffer
    of derivations. A runtime keeps one per node and every firing at the
    node reuses it, so a firing allocates only what it keeps. A scratch is
    not shared between concurrent firings: a node's rules run on one
    thread, and never re-enter each other (a transport delivers nothing
    synchronously from [send]). *)

val scratch : plan list -> scratch
(** A scratch that fits every plan of the list: a register file as large as
    the largest plan's and a buffer of a few derivations, which grows on
    demand. *)

val fire_into : scratch -> db:Db.t -> plan:plan -> event:Dpc_ndlog.Tuple.t -> int
(** Fire [plan] on [event] and write its derivations into the scratch,
    replacing the previous firing's; returns their number. They are the
    same derivations as {!fire} on the planned rule, as a multiset, in
    this order: depth-first over the condition atoms, left to right, with
    each atom's candidates in {!Db.probe} bucket order, newest insert
    first. The runtime ships derivations in this order, so simulator
    sequence numbers, Advanced's hmap reference lists and every digest
    depend on it.

    Matching, probing, binding and a two-argument call of a
    {!Env.register2} function allocate nothing, so a rejected candidate
    costs no allocation. A firing allocates each derivation's head and
    slow list, what its expressions compute (an arithmetic result, the
    argument list of any other call) and, the first time a firing at the
    node outgrows it, a larger buffer. [plan] must be one of the plans the
    scratch was made for. *)

val derived_head : scratch -> int -> Dpc_ndlog.Tuple.t
(** [derived_head s i] is the head of the [i]th derivation of the last
    {!fire_into} ([0 <= i <] its result). *)

val derived_slow : scratch -> int -> Dpc_ndlog.Tuple.t list
(** The slow tuples of the [i]th derivation, one per condition atom, in
    condition order. *)

val fire_planned :
  db:Db.t -> plan:plan -> event:Dpc_ndlog.Tuple.t -> (Dpc_ndlog.Tuple.t * Dpc_ndlog.Tuple.t list) list
(** {!fire_into} on a fresh scratch, as a list of (head, slow tuples) in
    derivation order. *)

val fire_with_slow :
  plan:plan -> event:Dpc_ndlog.Tuple.t -> slow:Dpc_ndlog.Tuple.t list -> Dpc_ndlog.Tuple.t option
(** Re-derive the head from the event and the recorded slow tuples (one per
    condition atom, in order); [None] if they no longer unify or a
    comparison fails. @raise Eval_error when the event matches but the
    number of slow tuples differs from the number of condition atoms. *)
