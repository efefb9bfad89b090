open Dpc_ndlog
module K = Store_kit
module Q = Query_acct

type st = {
  prov : Rows.prov_row K.table;  (* keyed by vid *)
  exec : Rows.rule_exec_row K.table;  (* keyed by rid *)
  tuples : K.side;  (* vid -> materialized tuple *)
}

let name = "ExSPAN"
and tag = "exspan"

let layout =
  {
    K.name;
    tag;
    fresh =
      (fun () ->
        { prov = K.prov_table ~with_evid:false; exec = K.exec_table ~with_next:false;
          tuples = K.side () });
    prov = (fun st -> st.prov);
    execs = [| (fun st -> K.exec st.exec) |];
    sides = [| (fun st -> st.tuples) |];
    extra = None;
  }

(* The prov row of a derived tuple is written by the RECEIVER, from the
   (RLoc, RID) reference the tuple ships with — not by the sender reaching
   across into the receiver's tables. Same rows as the sender-writes
   formulation (§4 stores them at the derived tuple's location either
   way), but every write now happens at the node processing the arrival,
   which is what makes a node's store a function of its own journal. The
   one observable difference: an event no rule fires on (a dead end) no
   longer gets a row — it contributes to no output's provenance. *)
let record_arrival k ~node event (meta : Dpc_engine.Prov_hook.meta) =
  match meta.prev with
  | None -> ()
  | Some _ as rid ->
      let nd = K.state k node in
      let vid = Rows.vid_of event in
      K.add k nd ~node nd.x.prov { Rows.loc = node; vid; rid; evid = None };
      K.put k nd nd.x.tuples ~key:vid event

(* Every prov row at a node is keyed by its vid and located there, and
   ExSPAN rows carry no evid, so a row without a rule reference under the
   key is exactly the base row. *)
let is_base (r : Rows.prov_row) = match r.rid with None -> true | Some _ -> false

(* A base row for a tuple at its executing node, built only when it is
   not stored yet. *)
let add_base k (nd : st K.node) ~node tuple vid =
  if not (List.exists is_base (K.find nd.x.prov vid)) then
    K.add k nd ~node nd.x.prov { Rows.loc = node; vid; rid = None; evid = None };
  K.put k nd nd.x.tuples ~key:vid tuple

(* The body vids in rule-execution order: the slow tuples', then the
   event's. *)
let rec body_vids event_vid = function
  | [] -> [ event_vid ]
  | tuple :: rest -> Rows.vid_of tuple :: body_vids event_vid rest

let rec add_slow_bases k nd ~node = function
  | [] -> ()
  | tuple :: rest ->
      add_base k nd ~node tuple (Rows.vid_of tuple);
      add_slow_bases k nd ~node rest

let on_fire k ~node ~(rule : Ast.rule) ~event ~slow (meta : Dpc_engine.Prov_hook.meta) =
  record_arrival k ~node event meta;
  let nd = K.state k node in
  let event_vid = Rows.vid_of event in
  let vids = body_vids event_vid slow in
  let rid = Rows.rid ~rule:rule.name ~node vids Rows.No_tail in
  K.add k nd ~node nd.x.exec { Rows.rloc = node; rid; rule = rule.name; vids; next = None };
  (* Base rows for the slow tuples (their location is the executing node). *)
  add_slow_bases k nd ~node slow;
  (* The input event is a base tuple; intermediate events get their prov
     row from [record_arrival]. *)
  if meta.prev = None then add_base k nd ~node event event_vid;
  { meta with prev = Some (node, rid) }

let hook k =
  {
    Dpc_engine.Prov_hook.name = "exspan";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        let nd = K.state k node in
        K.put k nd nd.x.tuples ~key:(Rows.vid_of event) event;
        meta);
    on_fire =
      (fun ~node ~rule ~event ~slow ~head:_ meta -> on_fire k ~node ~rule ~event ~slow meta);
    on_output = (fun ~node event meta -> record_arrival k ~node event meta);
    (* §5.5 sig delivery: the slow world changed; drop this node's
       memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> K.invalidate_cache k node);
    (* ExSPAN ships the (RID, RLoc) reference so the receiver can store the
       prov row of the derived tuple. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

let max_derivations = 64

(* Reconstruct every derivation rooted at rule execution (rloc, rid), which
   derived [output]. An intermediate event tuple can itself have several
   derivations (several prov rows with distinct rule references — e.g. two
   equal-cost routes producing the identical tuple), so the result is a
   list, capped at [max_derivations]. [at] is the node the query currently
   sits on. *)
let rec fetch_trees (delp : Delp.t) k acct ~at ~output (rloc, rid) =
  Q.charge_hop acct ~src:at ~dst:rloc;
  Q.require_up acct rloc;
  let st = (K.state k rloc).x in
  let exec =
    match K.find st.exec rid with
    | [ row ] -> row
    | [] -> raise (Q.Broken (Printf.sprintf "missing ruleExec %s at node %d" (Rows.hex rid) rloc))
    | _ :: _ :: _ -> raise (Q.Broken "duplicate ruleExec rid")
  in
  Q.charge_entries acct 1;
  Q.charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false exec);
  if not (List.exists (fun (r : Ast.rule) -> String.equal r.name exec.rule) delp.program.rules)
  then raise (Q.Broken (Printf.sprintf "unknown rule %s" exec.rule));
  (* vids = slow tuples followed by the event. *)
  let slow_vids, event_vid =
    match List.rev exec.vids with
    | ev :: rest -> (List.rev rest, ev)
    | [] -> raise (Q.Broken "ruleExec with no body vids")
  in
  let resolve_body vid =
    (* Each body tuple's prov row lives at the executing node. *)
    let rows = K.find st.prov vid in
    Q.charge_entries acct (max 1 (List.length rows));
    (rows, Q.fetch acct (K.entries st.tuples) vid)
  in
  let slow = List.map (fun vid -> snd (resolve_body vid)) slow_vids in
  let event_rows, event_tuple = resolve_body event_vid in
  let derived_refs = List.filter_map (fun (r : Rows.prov_row) -> r.rid) event_rows in
  let triggers =
    if derived_refs = [] then [ Prov_tree.Event event_tuple ]
    else
      List.concat_map
        (fun rref ->
          List.map
            (fun sub -> Prov_tree.Derived sub)
            (fetch_trees delp k acct ~at:rloc ~output:event_tuple rref))
        derived_refs
  in
  List.filteri (fun i _ -> i < max_derivations) triggers
  |> List.map (fun trigger -> { Prov_tree.rule = exec.rule; output; trigger; slow })

let create ~delp ~env:_ ~nodes =
  let k = K.create (Dpc_engine.Node.cluster nodes) layout in
  K.Store
    {
      kit = k;
      name;
      hook = hook k;
      walk = (fun acct ~querier ~output _ rref -> fetch_trees delp k acct ~at:querier ~output rref);
      dump = (fun () -> K.dump_tables k ~with_evid:false ~with_next:false (fun st -> st.exec));
    }

let restore ~delp ~env blob = K.restore ~tag ~name blob (fun _ ~nodes -> create ~delp ~env ~nodes)
