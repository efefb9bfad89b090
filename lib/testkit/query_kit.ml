open Dpc_core

let free =
  { Query_cost.hop_latency = Some 0.0; per_entry = 0.0; per_byte = 0.0; per_rederive = 0.0;
    down_timeout = 0.0; down_retries = 0 }

let sub : Prov_tree.t -> Prov_tree.t option = function
  | Event _ -> None
  | Derived { sub; _ } -> Some sub

let rec depth t = match sub t with None -> 1 | Some s -> 1 + depth s
let rec rules_root_to_leaf t = Prov_tree.rule t :: Option.fold ~none:[] ~some:rules_root_to_leaf (sub t)

let rec equivalent a b =
  String.equal (Prov_tree.rule a) (Prov_tree.rule b)
  && List.equal Dpc_ndlog.Tuple.equal (Prov_tree.slow a) (Prov_tree.slow b)
  &&
  match sub a, sub b with
  | None, None -> true
  | Some x, Some y -> equivalent x y
  | (None | Some _), _ -> false
