open Dpc_ndlog

type t = { rule : string; output : Tuple.t; trigger : trigger; slow : Tuple.t list }
and trigger = Event of Tuple.t | Derived of t

let rec event_of t =
  match t.trigger with Event ev -> ev | Derived sub -> event_of sub

let rec depth t = match t.trigger with Event _ -> 1 | Derived sub -> 1 + depth sub

let rec rules_root_to_leaf t =
  t.rule :: (match t.trigger with Event _ -> [] | Derived sub -> rules_root_to_leaf sub)

let rec tuples t =
  (t.output :: t.slow)
  @ (match t.trigger with Event ev -> [ ev ] | Derived sub -> tuples sub)

let rec equal a b =
  String.equal a.rule b.rule
  && Tuple.equal a.output b.output
  && List.length a.slow = List.length b.slow
  && List.for_all2 Tuple.equal a.slow b.slow
  &&
  match a.trigger, b.trigger with
  | Event x, Event y -> Tuple.equal x y
  | Derived x, Derived y -> equal x y
  | (Event _ | Derived _), _ -> false

let rec equivalent a b =
  String.equal a.rule b.rule
  && List.length a.slow = List.length b.slow
  && List.for_all2 Tuple.equal a.slow b.slow
  &&
  match a.trigger, b.trigger with
  | Event _, Event _ -> true
  | Derived x, Derived y -> equivalent x y
  | (Event _ | Derived _), _ -> false

let rec compare_tree a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  String.compare a.rule b.rule <?> fun () ->
  Tuple.compare a.output b.output <?> fun () ->
  Stdlib.compare (List.map Tuple.canonical a.slow) (List.map Tuple.canonical b.slow)
  <?> fun () ->
  match a.trigger, b.trigger with
  | Event x, Event y -> Tuple.compare x y
  | Derived x, Derived y -> compare_tree x y
  | Event _, Derived _ -> -1
  | Derived _, Event _ -> 1

let compare = compare_tree

let event_id t = Tuple.digest (event_of t)

let rec pp_indent fmt indent t =
  Format.fprintf fmt "%s%a  <- %s" indent Tuple.pp t.output t.rule;
  List.iter (fun b -> Format.fprintf fmt "@,%s  [slow] %a" indent Tuple.pp b) t.slow;
  match t.trigger with
  | Event ev -> Format.fprintf fmt "@,%s  [event] %a" indent Tuple.pp ev
  | Derived sub ->
      Format.fprintf fmt "@,";
      pp_indent fmt (indent ^ "  ") sub

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  pp_indent fmt "" t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
