open Dpc_ndlog
open Dpc_util

exception Broken of string

type t = {
  cost : Query_cost.t;
  routing : Dpc_net.Routing.t;
  up : int -> bool;
  querier : int;
  degraded : unit -> unit;
  mutable latency : float;
  mutable entries : int;
  mutable bytes : int;
  mutable rederives : int;
  mutable hop_s : float;
  mutable downs : int;
  mutable complete : bool;
  (* Nodes whose state the walk read (or tried to), for the query cache's
     dependency snapshot. Reset around each memoizable unit of work. *)
  mutable touched : int list;
}

let create ~cost ~routing ~up ~querier ~degraded =
  { cost; routing; up; querier; degraded; latency = 0.0; entries = 0; bytes = 0;
    rederives = 0; hop_s = 0.0; downs = 0; complete = true; touched = [] }

(* Modeled latency is a float sum: every store charges in the same order
   it always has, so each call below adds exactly one term. *)
let charge_entries acct n =
  acct.entries <- acct.entries + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_entry)

let charge_bytes acct n =
  acct.bytes <- acct.bytes + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_byte)

let charge_rederive acct n =
  acct.rederives <- acct.rederives + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_rederive)

let charge_hop acct ~src ~dst =
  let h = Query_cost.hop acct.cost acct.routing ~src ~dst in
  acct.hop_s <- acct.hop_s +. h;
  acct.latency <- acct.latency +. h

let touch acct node =
  if not (List.mem node acct.touched) then acct.touched <- node :: acct.touched

(* Call before reading any state at [node]: a down node costs the bounded
   retry budget ((down_retries + 1) tries of down_timeout each), marks the
   result partial, and abandons the branch — the query never hangs on a
   dead node, it degrades. *)
let require_up acct node =
  touch acct node;
  if not (acct.up node) then begin
    acct.downs <- acct.downs + 1;
    acct.latency <-
      acct.latency
      +. (float_of_int (acct.cost.Query_cost.down_retries + 1)
          *. acct.cost.Query_cost.down_timeout);
    if acct.complete then begin
      acct.complete <- false;
      acct.degraded ()
    end;
    raise (Broken (Printf.sprintf "node %d is down" node))
  end

(* Memoize one unit of reconstruction (everything reachable from [rref]
   for the context [ctx]) in the attached cache, if any. Only walks that
   never hit a down node are recorded; a hit charges one lookup entry and
   skips the hops/rederives entirely — that's the serving-tier win. *)
let memo cache acct ~gen ~rloc ~rid ~ctx compute =
  match cache with
  | None -> compute ()
  | Some cache -> (
      let key = Query_cache.key ~loc:rloc ~rid ~ctx in
      match Query_cache.find cache ~querier:acct.querier ~up:acct.up ~gen key with
      | Some trees ->
          charge_entries acct 1;
          trees
      | None ->
          let outer = acct.touched and downs0 = acct.downs in
          acct.touched <- [];
          let trees = compute () in
          if acct.downs = downs0 then
            Query_cache.add cache ~querier:acct.querier ~gen ~touched:acct.touched key trees;
          acct.touched <- List.rev_append outer acct.touched;
          trees)

let result acct trees =
  { Query_result.trees = Query_result.dedup_trees trees; latency = acct.latency;
    entries = acct.entries; bytes = acct.bytes; rederives = acct.rederives;
    hop_s = acct.hop_s; downs = acct.downs; complete = acct.complete }

let fetch acct store key =
  match Side_store.get store ~key with
  | Some tuple ->
      charge_bytes acct (Tuple.wire_size tuple);
      tuple
  | None -> raise (Broken (Printf.sprintf "tuple %s not materialized" (Rows.hex key)))

let find_plan plans name =
  match
    List.find_opt (fun p -> String.equal (Dpc_engine.Eval.plan_rule p).name name) plans
  with
  | Some p -> p
  | None -> raise (Broken (Printf.sprintf "unknown rule %s" name))

(* ------------------------------------------------------------------ *)
(* The chain walk (§4, §5.6 Fig 18) *)

type chain = {
  step : t -> int -> Sha1.t -> (Rows.rule_exec_row -> Dpc_engine.Prov_hook.back -> unit) -> unit;
  leaf : t -> Rows.prov_row -> Rows.rule_exec_row -> Tuple.t * int;
  slow : int -> Side_store.t;
  plans : Dpc_engine.Eval.plan list;
}

let max_chains = 64

(* Step 1: fetch the chain(s) root-to-leaf, charging hops. One step can
   yield several rows: under Basic one rid carries a row per upstream
   derivation of its event, and under §5.4 one node row has a link per
   tree through it. The walk branches over them — each branch is one
   derivation, and §5.6's QUERY likewise returns a set — and skips rows
   already on its own path (a cycle through shared §5.4 rows). *)
let chains acct ~start ~step ~rloc rid =
  let results = ref [] in
  let rec go at rloc rid acc seen =
    if List.length !results < max_chains then begin
      charge_hop acct ~src:at ~dst:rloc;
      require_up acct rloc;
      let key = (rloc, Rows.key rid) in
      if not (List.mem key seen) then begin
        let seen = key :: seen in
        step acct rloc rid (fun row (next : Dpc_engine.Prov_hook.back) ->
            match next with
            | No_back -> results := List.rev (row :: acc) :: !results
            | Back next -> go rloc next.node next.rid (row :: acc) seen)
      end
    end
  in
  go start rloc rid [] [];
  !results

(* The tuples of [vids.(i)] to [vids.(n - 1)], fetched in order. *)
let rec fetch_vids acct store vids i n =
  if i = n then []
  else begin
    let tuple = fetch acct store vids.(i) in
    tuple :: fetch_vids acct store vids (i + 1) n
  end

(* Step 2: re-derive the intermediate events from the leaf upward,
   assembling the provenance tree. [chain] is root-to-leaf; the leaf's
   event and its number of slow vids come from [c.leaf], every other
   row's event is the head re-derived below it. A row's slow vids lead
   its vids. *)
let rederive acct c prov chain =
  let fire (row : Rows.rule_exec_row) event n_slow =
    let slow = fetch_vids acct (c.slow row.rloc) row.vids 0 n_slow in
    let plan = find_plan c.plans row.rule in
    charge_rederive acct 1;
    match Dpc_engine.Eval.fire_with_slow ~plan ~event ~slow with
    | Some head -> ((Dpc_engine.Eval.plan_rule plan).name, head, slow)
    | None -> raise (Broken "re-derivation failed")
  in
  let rec build = function
    | [] -> raise (Broken "empty chain")
    | [ leaf ] ->
        let event, n_slow = c.leaf acct prov leaf in
        let rule, output, slow = fire leaf event n_slow in
        Prov_tree.Event { rule; output; slow; event }
    | (row : Rows.rule_exec_row) :: rest ->
        let sub = build rest in
        let sub_head = Prov_tree.output sub in
        if Tuple.loc sub_head <> row.rloc then raise (Broken "chain/location mismatch");
        let rule, output, slow = fire row sub_head (Array.length row.vids) in
        Prov_tree.Derived { rule; output; slow; sub }
  in
  build chain

(* The walk a chain scheme plugs into [Store_kit.query]. The [let] keeps
   the returned closure at its full arity, so a query's calls through it
   allocate no partial applications. *)
let chain_walk c =
  let step = c.step in
  fun acct ~querier ~output (prov : Rows.prov_row) ->
  match prov.rid with
  | No_back -> []
  | Back { node = rloc; rid } ->
      List.filter_map
        (fun chain ->
          match rederive acct c prov chain with
          | tree when Tuple.equal (Prov_tree.output tree) output -> Some tree
          | _ -> None
          | exception Broken _ -> None)
        (chains acct ~start:querier ~step ~rloc rid)
