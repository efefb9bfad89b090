open Dpc_ndlog

type t = { delp : Delp.t; keys : int list }

let compute (delp : Delp.t) =
  let g = Depgraph.build delp in
  let event = delp.input_event in
  let arity = Delp.event_arity delp in
  let keys =
    List.init arity (fun i -> i)
    |> List.filter (fun i ->
         i = 0 || Depgraph.reaches_anchor g { Depgraph.rel = event; idx = i })
  in
  { delp; keys }

let delp t = t.delp
let keys t = t.keys

let check_event t ev =
  if not (String.equal (Tuple.rel ev) t.delp.input_event) then
    invalid_arg
      (Printf.sprintf "Equi_keys.key_values: expected a %S event tuple"
         t.delp.input_event)

let key_values t ev =
  check_event t ev;
  List.map (Tuple.arg ev) t.keys

let rec add_keys s ev ~sep = function
  | [] -> ()
  | i :: rest ->
      if sep then Dpc_util.Sha1.add s "+";
      Value.add_canonical s (Tuple.arg ev i);
      add_keys s ev ~sep:true rest

(* The "+"-joined canonical key values, streamed: the bytes of
   [Sha1.digest_concat (List.map Value.canonical (key_values t ev))]
   without the list or the strings. *)
let key_hash t ev =
  check_event t ev;
  let s = Dpc_util.Sha1.start () in
  add_keys s ev ~sep:false t.keys;
  Dpc_util.Sha1.finish s

let equivalent t ev1 ev2 =
  List.for_all2 Value.equal (key_values t ev1) (key_values t ev2)

let pp fmt t =
  Format.fprintf fmt "equivalence keys of %s: {%s}" t.delp.input_event
    (String.concat ", "
       (List.map (fun i -> Printf.sprintf "%s:%d" t.delp.input_event i) t.keys))
