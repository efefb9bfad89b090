exception Eval_error of string

type fn = Dpc_ndlog.Value.t list -> Dpc_ndlog.Value.t
type fn2 = Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t -> Dpc_ndlog.Value.t
type entry = { fn : fn; fn2 : fn2 option }
type t = (string * entry) list

let empty = []
let register t name fn = (name, { fn; fn2 = None }) :: t

let register2 t name fn2 =
  let fn = function
    | [ a; b ] -> fn2 a b
    | args ->
        raise
          (Eval_error (Printf.sprintf "%s: expected 2 arguments, got %d" name (List.length args)))
  in
  (name, { fn; fn2 = Some fn2 }) :: t

let lookup t name = Option.map (fun e -> e.fn) (List.assoc_opt name t)
let lookup2 t name = Option.bind (List.assoc_opt name t) (fun e -> e.fn2)

let names t =
  List.sort_uniq String.compare (List.map fst t)
