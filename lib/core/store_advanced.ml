open Dpc_ndlog
open Dpc_util
module Prov_hook = Dpc_engine.Prov_hook
module K = Store_kit
module Q = Query_acct
module S = Serialize

type st = {
  prov : Rows.prov_row K.table;  (* keyed by vid *)
  exec : Rows.rule_exec_row K.table;  (* plain layout, keyed by rid *)
  exec_nodes : Rows.rule_exec_row K.table;  (* §5.4 ruleExecNode *)
  links : Rows.link_row K.table;  (* §5.4 ruleExecLink, keyed by rid *)
  slow : K.side;
  events : K.side;  (* evid -> input event at ingress *)
  htequi : (string, unit) Hashtbl.t;  (* equivalence keys seen at this ingress *)
  hmap : (string, Prov_hook.back list ref) Hashtbl.t;  (* class -> chain roots, all [Back] *)
  mutable hmap_refs : int;  (* total chain roots across hmap, for O(1) equi_bytes *)
  (* The equivalence state's changes since the last cut. Unlike the
     tables it mutates: [htequi] can be wiped wholesale by a slow update
     ([cleared] records that; [d_htequi] then holds only post-wipe
     insertions), and an [hmap] entry's ref list can grow ([d_hmap] keys
     the touched classes; the delta ships their CURRENT full ref lists,
     which replay replace-wise like [restore_node]). *)
  mutable d_htequi : string list;
  mutable cleared : bool;
  d_hmap : (string, unit) Hashtbl.t;
}

type t = {
  kit : st K.t;
  keys : Dpc_analysis.Equi_keys.t;
  interclass : bool;
  plans : Dpc_engine.Eval.plan list;
  orphans : int Atomic.t;
}

let name = "Advanced"
and tag = "advanced"

let fresh () =
  {
    prov = K.prov_table ~with_evid:true;
    exec = K.exec_table ~with_next:true;
    exec_nodes = K.exec_table ~with_next:false;
    links = K.link_table ();
    slow = K.side ();
    events = K.side ();
    htequi = Hashtbl.create 32;
    hmap = Hashtbl.create 32;
    hmap_refs = 0;
    d_htequi = [];
    cleared = false;
    d_hmap = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* The equivalence-state section of every format, after the tables: the
   [htequi] keys and the [hmap] classes with their ref lists. A delta
   writes whether [htequi] was wiped, the keys added since (the wipe, or
   the last cut) and the classes that grew. Per node, because §5.5 makes
   both strictly ingress-local. *)

let write_equi w st ~delta =
  let write_ref : Prov_hook.back -> unit = function
    | Back { node; rid } ->
        S.write_varint w node;
        S.write_digest w rid
    | No_back -> invalid_arg "Store_advanced: an hmap chain root without a rule execution"
  in
  let write_keys iter = S.write_sorted w String.compare iter (fun k () -> S.write_string w k) in
  let write_classes iter =
    S.write_sorted w String.compare iter (fun k refs ->
      S.write_string w k;
      S.write_list w write_ref !refs)
  in
  if delta then begin
    S.write_bool w st.cleared;
    write_keys (fun f -> List.iter (fun k -> f k ()) st.d_htequi);
    write_classes (fun f ->
      Hashtbl.iter
        (fun k () -> match Hashtbl.find st.hmap k with refs -> f k refs | exception Not_found -> ())
        st.d_hmap)
  end
  else begin
    write_keys (fun f -> Hashtbl.iter f st.htequi);
    write_classes (fun f -> Hashtbl.iter f st.hmap)
  end

(* Replace-wise hmap load shared by restores and delta replay: the blob
   carries each class's FULL ref list, so installing it means subtracting
   whatever list was there before. *)
let read_equi r st ~delta =
  if delta && S.read_bool r then Hashtbl.reset st.htequi;
  ignore (S.read_list r (fun () -> Hashtbl.replace st.htequi (S.read_string r) ()));
  ignore
    (S.read_list r (fun () ->
       let k = S.read_string r in
       let refs =
         S.read_list r (fun () : Prov_hook.back ->
           let node = S.read_varint r in
           Back { node; rid = S.read_digest r })
       in
       (match Hashtbl.find_opt st.hmap k with
       | Some existing -> st.hmap_refs <- st.hmap_refs - List.length !existing
       | None -> ());
       st.hmap_refs <- st.hmap_refs + List.length refs;
       Hashtbl.replace st.hmap k (ref refs)))

let layout ~interclass ~orphans =
  {
    K.name;
    tag;
    fresh;
    prov = (fun st -> st.prov);
    execs =
      [|
        (fun st -> K.exec st.exec);
        (fun st -> K.exec st.exec_nodes);
        (fun st -> K.exec st.links);
      |];
    sides = [| (fun st -> st.slow); (fun st -> st.events) |];
    extra =
      Some
        {
          K.flag = interclass;
          write_extra = write_equi;
          read_extra = read_equi;
          clear_extra =
            (fun st ->
              st.d_htequi <- [];
              st.cleared <- false;
              Hashtbl.reset st.d_hmap);
          (* O(1): hash-table lengths plus the maintained chain-root count;
             no fold over hmap on the snapshot path. *)
          extra_bytes =
            (fun st ->
              (Hashtbl.length st.htequi * 20)
              + (Hashtbl.length st.hmap * 20)
              + (st.hmap_refs * Rows.ref_bytes));
          (* The orphan counter is store-global bookkeeping, not node
             state: only the whole-store checkpoint carries it. *)
          tally = orphans;
        };
  }

(* ------------------------------------------------------------------ *)
(* Recording *)

let on_input t ~node event =
  let evid = Tuple.digest event in
  let k = Dpc_analysis.Equi_keys.key_hash t.keys event in
  let k_key = Rows.key k in
  let nd = K.state t.kit node in
  let st = nd.x in
  let exist_flag = Hashtbl.mem st.htequi k_key in
  K.tick t.kit node (if exist_flag then "store.equi_hits" else "store.equi_misses");
  if not exist_flag then begin
    Hashtbl.add st.htequi k_key ();
    (* No dupes possible: once present, [mem] short-circuits until the
       next wipe, and the wipe empties this list too. *)
    if K.tracking t.kit then st.d_htequi <- k_key :: st.d_htequi
  end;
  K.put t.kit nd st.events event;
  { Prov_hook.evid; exist_flag; eqkey = Some k; prev = No_back }

let on_fire t ~node ~(rule : Ast.rule) ~slow (meta : Prov_hook.meta) =
  if meta.exist_flag then meta
  else begin
    let slow_vids = Rows.vids slow in
    let nd = K.state t.kit node in
    K.put_tuples t.kit nd nd.x.slow slow;
    if t.interclass then begin
      (* §5.4 layout: the node row [rid] is shared across classes, and
         this tree's link row points it at the previous step. *)
      let rid = Rows.rid ~rule:rule.name ~node slow_vids in
      K.add t.kit nd ~node nd.x.exec_nodes
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = No_back };
      K.add t.kit nd ~node nd.x.links { Rows.link_rloc = node; link_rid = rid; link_next = meta.prev };
      { meta with prev = Back { node; rid } }
    end
    else begin
      (* Plain layout: the rid must identify the whole chain suffix, so it
         hashes the back-pointer too (Table 3's sha1(rule, vids) is
         ambiguous as soon as two classes share a final rule execution
         node). *)
      let rid = Rows.rid_chain ~rule:rule.name ~node slow_vids meta.prev in
      K.add t.kit nd ~node nd.x.exec
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = meta.prev };
      { meta with prev = Back { node; rid } }
    end
  end

let rec add_output_rows t nd ~node vid evid = function
  | [] -> ()
  | rref :: rest ->
      K.add t.kit nd ~node nd.K.x.prov { Rows.loc = node; vid; rid = rref; evid };
      add_output_rows t nd ~node vid evid rest

let on_output t ~node output (meta : Prov_hook.meta) =
  let nd = K.state t.kit node in
  let st = nd.x in
  let k_key =
    match meta.eqkey with
    | Some k -> Rows.key k
    | None -> invalid_arg "Store_advanced.on_output: meta has no equivalence key"
  in
  (* hmap associations are keyed by class and output relation: the store
     format and its fixtures carry the "class:relation" key. *)
  let k_key = k_key ^ ":" ^ Tuple.rel output in
  let vid = Rows.vid_of output in
  let evid = Some meta.evid in
  if not meta.exist_flag then begin
    match meta.prev with
    | No_back -> invalid_arg "Store_advanced.on_output: materializing execution has no chain"
    | Back _ as rref ->
        let refs =
          match Hashtbl.find st.hmap k_key with
          | r -> r
          | exception Not_found ->
              let r = ref [] in
              Hashtbl.add st.hmap k_key r;
              r
        in
        if not (List.mem rref !refs) then begin
          refs := !refs @ [ rref ];
          st.hmap_refs <- st.hmap_refs + 1;
          if K.tracking t.kit then Hashtbl.replace st.d_hmap k_key ()
        end;
        K.add t.kit nd ~node st.prov { Rows.loc = node; vid; rid = rref; evid }
  end
  else begin
    match Hashtbl.find st.hmap k_key with
    | { contents = _ :: _ as refs } -> add_output_rows t nd ~node vid evid refs
    | { contents = [] } | (exception Not_found) -> Atomic.incr t.orphans
  end

(* §5.5: any slow-table update — insert or delete — invalidates the
   equivalence classes observed so far; incoming events re-materialize.
   The delta records the wipe so replay reproduces it, and post-wipe
   insertions start a fresh dirty list. *)
let on_slow_update t ~node =
  let st = (K.state t.kit node).x in
  Hashtbl.reset st.htequi;
  if K.tracking t.kit then begin
    st.cleared <- true;
    st.d_htequi <- []
  end;
  (* The flush means re-materialization is coming: trees served from this
     node's pre-flush state must not be replayed from the memo cache. *)
  K.invalidate_cache t.kit node

let hook t =
  {
    Prov_hook.name = (if t.interclass then "advanced+interclass" else "advanced");
    on_input = (fun ~node event -> on_input t ~node event);
    on_fire = (fun ~node ~rule ~event:_ ~slow ~head:_ meta -> on_fire t ~node ~rule ~slow meta);
    on_output = (fun ~node output meta -> on_output t ~node output meta);
    on_slow_update = (fun ~node ~op:_ _ -> on_slow_update t ~node);
    (* existFlag + equivalence-key hash + event hash + back-pointer. *)
    meta_bytes = (fun _ -> 1 + 20 + 20 + Rows.ref_bytes);
  }

(* ------------------------------------------------------------------ *)
(* Query: QR (Fig 18) collects the shared chain root-to-leaf. The plain
   layout has a unique row per step; the §5.4 layout may branch on link
   rows. TRANSFORM_TO_D then re-derives the tree from the chain and the
   event retrieved by evid at the leaf's node. *)

let step t acct rloc rid emit =
  if t.interclass then begin
    let nd = K.state t.kit rloc in
    let row = K.only ~what:"ruleExecNode" nd.x.exec_nodes rid in
    Q.charge_entries acct 1;
    Q.charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false row);
    let links = nd.x.links in
    let n = K.count links rid in
    Q.charge_entries acct n;
    K.iter_rows links rid (fun l -> Q.charge_bytes acct (Rows.link_row_bytes l));
    if n = 0 then raise (Q.Broken "ruleExecNode with no link row");
    K.iter_rows links rid (fun (l : Rows.link_row) -> emit row l.link_next)
  end
  else begin
    let row = K.only ~what:"ruleExec" (K.state t.kit rloc).x.exec rid in
    Q.charge_entries acct 1;
    Q.charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:true row);
    emit row row.next
  end

let leaf t acct (prov : Rows.prov_row) (leaf : Rows.rule_exec_row) =
  let evid = match prov.evid with Some e -> e | None -> raise (Q.Broken "prov row without evid") in
  let event = Q.fetch acct (K.entries (K.state t.kit leaf.rloc).x.events) evid in
  if Tuple.loc event <> leaf.rloc then raise (Q.Broken "event at wrong ingress");
  (event, Array.length leaf.vids)

let store t =
  K.Store
    {
      kit = t.kit;
      hook = hook t;
      walk =
        Q.chain_walk
          {
            step = (fun acct rloc rid emit -> step t acct rloc rid emit);
            leaf = (fun acct prov row -> leaf t acct prov row);
            slow = (fun node -> K.entries (K.state t.kit node).x.slow);
            plans = t.plans;
          };
      dump =
        (fun () ->
          if not t.interclass then
            K.dump_tables t.kit ~with_evid:true ~with_next:true (fun st -> st.exec)
          else begin
            let n = Array.length (K.nodes t.kit) in
            let ph, pr = Rows.dump_prov ~with_evid:true (K.rows_at t.kit (fun st -> st.prov)) n in
            let nh, nr =
              Rows.dump_rule_exec ~with_next:false (K.rows_at t.kit (fun st -> st.exec_nodes)) n
            in
            let link_rows =
              List.concat_map
                (fun node ->
                  List.map
                    (fun (l : Rows.link_row) ->
                      [ Printf.sprintf "n%d" l.link_rloc; Rows.show_digest l.link_rid;
                        Rows.show_ref l.link_next ])
                    (K.rows_at t.kit (fun st -> st.links) node))
                (List.init n (fun i -> i))
              |> List.sort compare
            in
            [ ("prov", ph, pr); ("ruleExecNode", nh, nr);
              ("ruleExecLink", [ "RLoc"; "RID"; "(NLoc,NRID)" ], link_rows) ]
          end);
    }

let create ~delp ~env ~keys ?(interclass = false) ~nodes () =
  let orphans = Atomic.make 0 in
  let kit = K.create (Dpc_engine.Node.cluster nodes) (layout ~interclass ~orphans) in
  let plans = List.map (Dpc_engine.Eval.plan ~env) delp.Delp.program.rules in
  { kit; keys; interclass; plans; orphans }

let orphan_outputs t = Atomic.get t.orphans

let restore ~delp ~env ~keys blob =
  K.restore ~tag ~name blob (fun r ->
    let interclass = S.read_bool r in
    fun ~nodes -> store (create ~delp ~env ~keys ~interclass ~nodes ()))

module For_testing = struct
  let orphan_outputs = orphan_outputs
end
