open Dpc_ndlog
module K = Store_kit
module Q = Query_acct

type st = {
  prov : Rows.prov_row K.table;  (* keyed by vid; outputs only *)
  exec : Rows.rule_exec_row K.table;  (* keyed by rid *)
  slow : K.side;  (* vid -> slow tuple, at the executing node *)
  events : K.side;  (* evid -> input event, at the ingress node *)
}

let name = "Basic"
and tag = "basic"

(* Every Basic write is node-local (the back-pointer travels in the meta;
   nobody writes across nodes), so one node's tables are exactly what it
   owns. *)
let layout =
  {
    K.name;
    tag;
    fresh =
      (fun () ->
        { prov = K.prov_table ~with_evid:false; exec = K.exec_table ~with_next:true;
          slow = K.side (); events = K.side () });
    prov = (fun st -> st.prov);
    execs = [| (fun st -> K.exec st.exec) |];
    sides = [| (fun st -> st.slow); (fun st -> st.events) |];
    extra = None;
  }

let on_fire k ~node ~(rule : Ast.rule) ~event ~slow (meta : Dpc_engine.Prov_hook.meta) =
  let nd = K.state k node in
  let event_vid = Rows.vid_of event in
  let slow_vids = List.map Rows.vid_of slow in
  (* Same rid as ExSPAN (Table 2 reuses Table 1's rids). *)
  let rid = Rows.rid ~rule:rule.name ~node slow_vids (Rows.Vid event_vid) in
  (* The input event's vid is kept in the leaf row (Table 2's rid1 row);
     intermediate event vids are dropped — that is the optimization. *)
  let vids = if meta.prev = None then slow_vids @ [ event_vid ] else slow_vids in
  K.add k nd ~node nd.x.exec { Rows.rloc = node; rid; rule = rule.name; vids; next = meta.prev };
  K.put_tuples k nd nd.x.slow slow;
  { meta with prev = Some (node, rid) }

let on_output k ~node output (meta : Dpc_engine.Prov_hook.meta) =
  let nd = K.state k node in
  let vid = Rows.vid_of output in
  K.add k nd ~node nd.x.prov { Rows.loc = node; vid; rid = meta.prev; evid = None }

let hook k =
  {
    Dpc_engine.Prov_hook.name = "basic";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        let nd = K.state k node in
        K.put k nd nd.x.events ~key:meta.evid event;
        meta);
    on_fire =
      (fun ~node ~rule ~event ~slow ~head:_ meta -> on_fire k ~node ~rule ~event ~slow meta);
    on_output = (fun ~node output meta -> on_output k ~node output meta);
    (* Basic keeps no equivalence state to wipe, but a §5.5 sig still
       means the slow world changed under previously served trees: drop
       this node's memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> K.invalidate_cache k node);
    (* Ships the (NLoc, NRID) back-pointer. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

(* The rid hashes the rule, node, and body vids, so when an event tuple
   has several upstream derivations one rid carries several rows,
   differing only in their back-pointer: the walk branches over them. The
   leaf row's vids are its slow tuples', then the input event's. *)
let chain k plans =
  {
    Q.step =
      (fun acct rloc rid emit ->
        match K.find (K.state k rloc).x.exec rid with
        | [] ->
            raise (Q.Broken (Printf.sprintf "missing ruleExec %s at node %d" (Rows.hex rid) rloc))
        | rows ->
            List.iter
              (fun (row : Rows.rule_exec_row) ->
                Q.charge_entries acct 1;
                Q.charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:true row);
                emit row row.next)
              rows);
    leaf =
      (fun acct _ (leaf : Rows.rule_exec_row) ->
        match List.rev leaf.vids with
        | event_vid :: rest ->
            (Q.fetch acct (K.entries (K.state k leaf.rloc).x.events) event_vid, List.rev rest)
        | [] -> raise (Q.Broken "leaf ruleExec with no vids"));
    slow = (fun node -> K.entries (K.state k node).x.slow);
    plan = (fun name -> Q.find_plan plans name);
  }

let create ~delp ~env ~nodes =
  let plans = List.map (Dpc_engine.Eval.plan ~env) delp.Delp.program.rules in
  let k = K.create (Dpc_engine.Node.cluster nodes) layout in
  K.Store
    {
      kit = k;
      name;
      hook = hook k;
      walk = Q.chain_walk (chain k plans);
      dump = (fun () -> K.dump_tables k ~with_evid:false ~with_next:true (fun st -> st.exec));
    }

let restore ~delp ~env blob = K.restore ~tag ~name blob (fun _ ~nodes -> create ~delp ~env ~nodes)
