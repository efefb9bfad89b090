open Dpc_ndlog

type t =
  | Event of { rule : string; output : Tuple.t; slow : Tuple.t list; event : Tuple.t }
  | Derived of { rule : string; output : Tuple.t; slow : Tuple.t list; sub : t }

let rule = function Event { rule; _ } | Derived { rule; _ } -> rule
let output = function Event { output; _ } | Derived { output; _ } -> output
let slow = function Event { slow; _ } | Derived { slow; _ } -> slow

let rec event_of = function Event { event; _ } -> event | Derived { sub; _ } -> event_of sub

let rec tuples t =
  (output t :: slow t)
  @ (match t with Event { event; _ } -> [ event ] | Derived { sub; _ } -> tuples sub)

let same_slow a b =
  let a = slow a and b = slow b in
  List.length a = List.length b && List.for_all2 Tuple.equal a b

let rec equal a b =
  String.equal (rule a) (rule b)
  && Tuple.equal (output a) (output b)
  && same_slow a b
  &&
  match a, b with
  | Event x, Event y -> Tuple.equal x.event y.event
  | Derived x, Derived y -> equal x.sub y.sub
  | (Event _ | Derived _), _ -> false

(* The slow lists ordered as the lists of their canonical renderings:
   equal tuples render alike, so only the first unequal pair is
   rendered. *)
let rec compare_slow a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
      if Tuple.equal x y then compare_slow a b
      else String.compare (Tuple.canonical x) (Tuple.canonical y)

let rec compare_tree a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  String.compare (rule a) (rule b) <?> fun () ->
  Tuple.compare (output a) (output b) <?> fun () ->
  compare_slow (slow a) (slow b) <?> fun () ->
  match a, b with
  | Event x, Event y -> Tuple.compare x.event y.event
  | Derived x, Derived y -> compare_tree x.sub y.sub
  | Event _, Derived _ -> -1
  | Derived _, Event _ -> 1

let compare = compare_tree

let event_id t = Tuple.digest (event_of t)

let rec pp_indent fmt indent t =
  Format.fprintf fmt "%s%a  <- %s" indent Tuple.pp (output t) (rule t);
  List.iter (fun b -> Format.fprintf fmt "@,%s  [slow] %a" indent Tuple.pp b) (slow t);
  match t with
  | Event { event; _ } -> Format.fprintf fmt "@,%s  [event] %a" indent Tuple.pp event
  | Derived { sub; _ } ->
      Format.fprintf fmt "@,";
      pp_indent fmt (indent ^ "  ") sub

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  pp_indent fmt "" t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
