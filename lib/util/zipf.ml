type t = { cdf : float array; pmf : float array }

let create ?(exponent = 1.0) n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if exponent < 0.0 then invalid_arg "Zipf.create: exponent must be non-negative";
  let weights = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pmf = Array.map (fun w -> w /. total) weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    pmf;
  cdf.(n - 1) <- 1.0;
  { cdf; pmf }

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t k =
  if k < 0 || k >= Array.length t.pmf then invalid_arg "Zipf.pmf: rank out of range";
  t.pmf.(k)
