let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty sample")
  | _ :: _ -> ()

let mean xs =
  require_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sorted xs = List.sort compare xs

let percentile xs p =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 50.0

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  List.fold_left max neg_infinity xs
