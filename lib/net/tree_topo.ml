type t = { topology : Topology.t; parent : int array; depth : int array }

let generate ~rng ~n ~backbone_depth ~link =
  if n <= 0 then invalid_arg "Tree_topo.generate: n must be positive";
  if backbone_depth < 0 || backbone_depth >= n then
    invalid_arg "Tree_topo.generate: backbone_depth out of range";
  let topo = Topology.create ~n in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  let attach child par =
    parent.(child) <- par;
    depth.(child) <- depth.(par) + 1;
    Topology.add_link topo child par link
  in
  (* Backbone chain 0 - 1 - ... - backbone_depth. *)
  for v = 1 to backbone_depth do
    attach v (v - 1)
  done;
  (* Remaining nodes attach uniformly at random. *)
  for v = backbone_depth + 1 to n - 1 do
    attach v (Dpc_util.Rng.int rng v)
  done;
  { topology = topo; parent; depth }

let max_depth t = Array.fold_left max 0 t.depth

let children t v =
  let n = Array.length t.parent in
  List.filter (fun c -> t.parent.(c) = v) (List.init n (fun i -> i))

module For_testing = struct
  let children = children
end
