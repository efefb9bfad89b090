open Dpc_ndlog

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Tuple nodes are content-addressed so shared tuples merge across trees;
   rule-execution nodes are addressed by their full body so two executions
   deriving the same tuple from different bodies stay distinct. *)
let tuple_id t = "t_" ^ Dpc_util.Sha1.abbrev (Rows.vid_of t)

let rule_id (tree : Prov_tree.t) =
  let trigger =
    match tree with
    | Event { event; _ } -> Tuple.canonical event
    | Derived { sub; _ } -> Tuple.canonical (Prov_tree.output sub)
  in
  "r_"
  ^ Dpc_util.Sha1.abbrev
      (Dpc_util.Sha1.digest_concat
         ((Prov_tree.rule tree :: Tuple.canonical (Prov_tree.output tree) :: trigger
           :: List.map Tuple.canonical (Prov_tree.slow tree))))

let emit_tuple buf ~slow t =
  let style = if slow then ", style=filled, fillcolor=lightgray" else "" in
  Buffer.add_string buf
    (Printf.sprintf "  %s [shape=box, label=\"%s\"%s];\n" (tuple_id t)
       (escape (Tuple.to_string t)) style)

let rec emit buf (tree : Prov_tree.t) =
  let rid = rule_id tree and output = Prov_tree.output tree in
  Buffer.add_string buf
    (Printf.sprintf "  %s [shape=ellipse, label=\"%s\"];\n" rid (Prov_tree.rule tree));
  emit_tuple buf ~slow:false output;
  Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" rid (tuple_id output));
  List.iter
    (fun b ->
      emit_tuple buf ~slow:true b;
      Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (tuple_id b) rid))
    (Prov_tree.slow tree);
  match tree with
  | Event { event; _ } ->
      emit_tuple buf ~slow:false event;
      Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (tuple_id event) rid)
  | Derived { sub; _ } ->
      emit buf sub;
      Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (tuple_id (Prov_tree.output sub)) rid)

let forest_to_dot ?(name = "provenance") trees =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  rankdir=BT;\n";
  List.iter (emit buf) trees;
  Buffer.add_string buf "}\n";
  (* Deduplicate repeated node/edge lines introduced by shared tuples. *)
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let seen = Hashtbl.create 64 in
  let keep line =
    if String.length line > 2 && line.[0] = ' ' then
      if Hashtbl.mem seen line then false
      else begin
        Hashtbl.add seen line ();
        true
      end
    else true
  in
  String.concat "\n" (List.filter keep lines)
