open Dpc_ndlog
open Dpc_util

(* The sharing key is alpha-insensitive: variables are renamed to their
   order of first occurrence, so two programs whose rules differ only in
   variable names (and the rule name) still share rows. *)
let rule_signature (r : Ast.rule) =
  let ordered = Ast.rule_vars_in_order r in
  let renaming = List.mapi (fun i v -> (v, Printf.sprintf "X%d" i)) ordered in
  let rename v = match List.assoc_opt v renaming with Some v' -> v' | None -> v in
  Pretty.rule_to_string (Ast.map_rule_vars rename { r with name = "sig" })

(* Each program is an inter-class Advanced store of its own (prov deltas,
   link rows, equivalence tables, events), whose ruleExecNode rows and
   slow tuples go to one table all programs share (content-addressed). *)
type t = {
  shared : Store_advanced.shared;
  mutable program_ids : string list;
  mutable programs : Store_kit.store list;
  (* Signatures are interned to short ids so shared rows cost the same as
     single-program rows (which store rule names, not rule text). *)
  sig_ids : (string, string) Hashtbl.t;  (* signature -> "g<n>" *)
  sig_of_id : (string, string) Hashtbl.t;
}

type handle = { store : t; id : string; program : Store_advanced.t; packed : Store_kit.store }

let create ~nodes =
  { shared = Store_advanced.shared (Dpc_engine.Node.cluster nodes); program_ids = [];
    programs = []; sig_ids = Hashtbl.create 16; sig_of_id = Hashtbl.create 16 }

let nodes t = Store_advanced.shared_nodes t.shared

let intern_signature t signature =
  match Hashtbl.find_opt t.sig_ids signature with
  | Some id -> id
  | None ->
      let id = Printf.sprintf "g%d" (Hashtbl.length t.sig_ids) in
      Hashtbl.add t.sig_ids signature id;
      Hashtbl.add t.sig_of_id id signature;
      id

let add_program t ~id ~delp ~env =
  if List.mem id t.program_ids then
    invalid_arg (Printf.sprintf "Store_multi.add_program: duplicate program id %S" id);
  t.program_ids <- id :: t.program_ids;
  let signatures = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.rule) ->
      Hashtbl.replace signatures (rule_signature r) (Dpc_engine.Eval.plan ~env r))
    delp.Delp.program.rules;
  (* Shared rows name their rule by signature id; re-derivation maps the
     id back to this program's own rule. *)
  let plan sig_id =
    match Hashtbl.find_opt t.sig_of_id sig_id with
    | None -> raise (Query_acct.Broken "unknown rule signature id")
    | Some signature -> (
        match Hashtbl.find_opt signatures signature with
        | Some p -> p
        | None -> raise (Query_acct.Broken "rule signature not in this program"))
  in
  let program =
    Store_advanced.program ~shared:t.shared ~keys:(Dpc_analysis.Equi_keys.compute delp) ~plan
  in
  let packed = Store_advanced.store program in
  t.programs <- packed :: t.programs;
  { store = t; id; program; packed }

(* The shared rid: rule content (not name, not program), executing node,
   slow-changing tuples. *)
let node_rid ~signature ~node ~slow_vids =
  Sha1.digest_concat
    (signature :: string_of_int node :: Array.to_list (Array.map Rows.hex slow_vids))

let hook h =
  let on_fire ~node ~rule ~event:_ ~slow ~head:_ (meta : Dpc_engine.Prov_hook.meta) =
    if meta.exist_flag then meta
    else begin
      let slow_vids = Rows.vids slow in
      let signature = rule_signature rule in
      let rid = node_rid ~signature ~node ~slow_vids in
      Store_advanced.link_step h.program ~node ~rid ~label:(intern_signature h.store signature)
        ~slow ~slow_vids meta
    end
  in
  let (Store_kit.Store s) = h.packed in
  { s.hook with name = "multi:" ^ h.id; on_fire }

(* Multi-program queries have no liveness predicate: the store is a
   storage-sharing experiment, not wired into the crash-fault runtime. *)
let query h ~cost ~routing ?evid output =
  let (Store_kit.Store s) = h.packed in
  Store_kit.query s.kit ~walk:s.walk ~cost ~routing ?evid output

let storage (Store_kit.Store s) = Store_kit.total_storage s.kit
let shared_storage t = Store_advanced.shared_storage t.shared
let program_storage h = storage h.packed

let total_storage t =
  List.fold_left (fun acc p -> Rows.add_storage acc (storage p)) (shared_storage t) t.programs
