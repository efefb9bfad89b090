type link = { latency : float; bandwidth : float }
type t = { n : int; adjacency : (int, link) Hashtbl.t array }

let create ~n =
  if n <= 0 then invalid_arg "Topology.create: n must be positive";
  { n; adjacency = Array.init n (fun _ -> Hashtbl.create 4) }

let size t = t.n

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Topology: node %d out of range" v)

let add_link t a b l =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Topology.add_link: self-link";
  Hashtbl.replace t.adjacency.(a) b l;
  Hashtbl.replace t.adjacency.(b) a l

let link t a b =
  check_node t a;
  check_node t b;
  Hashtbl.find_opt t.adjacency.(a) b

let link_exn t a b = Hashtbl.find t.adjacency.(a) b

let connected t a b = link t a b <> None

let neighbors t v =
  check_node t v;
  Hashtbl.fold (fun w l acc -> (w, l) :: acc) t.adjacency.(v) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let links t =
  List.concat_map
    (fun v ->
      List.filter_map (fun (w, l) -> if v < w then Some (v, w, l) else None) (neighbors t v))
    (List.init t.n (fun i -> i))
