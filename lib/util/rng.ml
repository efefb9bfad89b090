(* splitmix64, chosen for reproducibility across OCaml versions (the stdlib's
   Random stream is not guaranteed stable between releases). *)
type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Drop two top bits so the value is a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 significant bits, scaled to [0, 1). *)
  v /. 9007199254740992.0 *. x


let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next t }

module For_testing = struct
  let split = split
end
