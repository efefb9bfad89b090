type t = {
  topology : Topology.t;
  (* successor.(src).(dst) is the next hop from src toward dst, -1 if none. *)
  successor : int array array;
  dist : float array array;
}

(* The search frontier: a binary min-heap of (distance, node) entries on two
   parallel arrays, so distances stay unboxed. Its sift steps are those of
   test_net's reference heap over boxed pairs, so entries of equal
   distance pop in the order the reference search pops them. *)
type frontier = { key : float array; node : int array; mutable size : int }

let swap f i j =
  let k = f.key.(i) and v = f.node.(i) in
  f.key.(i) <- f.key.(j);
  f.node.(i) <- f.node.(j);
  f.key.(j) <- k;
  f.node.(j) <- v

let rec sift_up f i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if f.key.(i) < f.key.(parent) then begin
      swap f i parent;
      sift_up f parent
    end
  end

let rec sift_down f i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < f.size && f.key.(l) < f.key.(i) then l else i in
  let smallest = if r < f.size && f.key.(r) < f.key.(smallest) then r else smallest in
  if smallest <> i then begin
    swap f i smallest;
    sift_down f smallest
  end

let push f d v =
  f.key.(f.size) <- d;
  f.node.(f.size) <- v;
  f.size <- f.size + 1;
  sift_up f (f.size - 1)

(* Drop the minimum, which the caller has read at index 0. *)
let pop f =
  f.size <- f.size - 1;
  if f.size > 0 then begin
    f.key.(0) <- f.key.(f.size);
    f.node.(0) <- f.node.(f.size);
    sift_down f 0
  end

(* Dijkstra from [src] into the rows [dist] (all infinity) and [succ] (all
   -1). [nbr.(v)] and [lat.(v)] are v's links, sorted by neighbour id as
   {!Topology.neighbors} gives them. A node settles once, with its final
   distance and predecessor, after its predecessor settled, so its hop
   after [src] is known then: itself if its predecessor is [src], else its
   predecessor's. [pred.(v)] is written before [v] settles, so it needs no
   reset between sources. *)
let dijkstra ~nbr ~lat f pred src ~dist ~succ =
  dist.(src) <- 0.0;
  f.size <- 0;
  push f 0.0 src;
  while f.size > 0 do
    let d = f.key.(0) and v = f.node.(0) in
    pop f;
    if d <= dist.(v) then begin
      if v <> src then succ.(v) <- (if pred.(v) = src then v else succ.(pred.(v)));
      let nbr = nbr.(v) and lat = lat.(v) in
      for k = 0 to Array.length nbr - 1 do
        let w = nbr.(k) and nd = d +. lat.(k) in
        if nd < dist.(w) then begin
          dist.(w) <- nd;
          pred.(w) <- v;
          push f nd w
        end
      done
    end
  done

let compute topo =
  let n = Topology.size topo in
  let successor = Array.make_matrix n n (-1) in
  let dist = Array.make_matrix n n infinity in
  let links = Array.init n (Topology.neighbors topo) in
  let nbr = Array.map (fun l -> Array.of_list (List.map fst l)) links in
  let lat =
    Array.map (fun l -> Array.of_list (List.map (fun (_, (k : Topology.link)) -> k.latency) l)) links
  in
  (* A node settles once and pushes each of its links at most once. *)
  let capacity = 1 + Array.fold_left (fun acc a -> acc + Array.length a) 0 nbr in
  let f = { key = Array.make capacity 0.0; node = Array.make capacity 0; size = 0 } in
  let pred = Array.make n (-1) in
  for src = 0 to n - 1 do
    dijkstra ~nbr ~lat f pred src ~dist:dist.(src) ~succ:successor.(src)
  done;
  { topology = topo; successor; dist }

let successor t ~src ~dst = t.successor.(src).(dst)

let path t ~src ~dst =
  if src = dst then Some [ src ]
  else if t.successor.(src).(dst) = -1 then None
  else begin
    let rec go v acc =
      if v = dst then List.rev (dst :: acc)
      else go t.successor.(v).(dst) (v :: acc)
    in
    Some (go src [])
  end

let distance t ~src ~dst =
  let d = t.dist.(src).(dst) in
  if d = infinity then None else Some d

let hop_count t ~src ~dst =
  match path t ~src ~dst with None -> None | Some p -> Some (List.length p - 1)
