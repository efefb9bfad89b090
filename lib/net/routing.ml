type t = {
  topology : Topology.t;
  (* successor.(src).(dst) is the next hop from src toward dst, -1 if none. *)
  successor : int array array;
  dist : float array array;
}

(* [neighbors.(v)]: v's links, sorted by neighbour id as
   {!Topology.neighbors} gives them. *)
let dijkstra neighbors src =
  let n = Array.length neighbors in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  dist.(src) <- 0.0;
  let heap = Dpc_util.Heap.create ~cmp:(fun (d1, _) (d2, _) -> compare d1 d2) in
  Dpc_util.Heap.push heap (0.0, src);
  let rec go () =
    match Dpc_util.Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        if d <= dist.(v) then
          Array.iter
            (fun (w, (l : Topology.link)) ->
              let nd = d +. l.latency in
              if nd < dist.(w) then begin
                dist.(w) <- nd;
                pred.(w) <- v;
                Dpc_util.Heap.push heap (nd, w)
              end)
            neighbors.(v);
        go ()
  in
  go ();
  (dist, pred)

let compute topo =
  let n = Topology.size topo in
  let successor = Array.make_matrix n n (-1) in
  let dist = Array.make_matrix n n infinity in
  let neighbors = Array.init n (fun v -> Array.of_list (Topology.neighbors topo v)) in
  for src = 0 to n - 1 do
    let d, pred = dijkstra neighbors src in
    for dst = 0 to n - 1 do
      dist.(src).(dst) <- d.(dst);
      if dst <> src && d.(dst) < infinity then begin
        (* Walk predecessors back from dst to find the hop after src. *)
        let rec first_hop v = if pred.(v) = src then v else first_hop pred.(v) in
        successor.(src).(dst) <- first_hop dst
      end
    done
  done;
  { topology = topo; successor; dist }

let successor t ~src ~dst = t.successor.(src).(dst)

let next_hop t ~src ~dst =
  let h = successor t ~src ~dst in
  if h = -1 then None else Some h

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

let mean_pair_distance t =
  let n = Topology.size t.topology in
  let total = ref 0 and count = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        match hop_count t ~src ~dst with
        | Some h ->
            total := !total + h;
            incr count
        | None -> ()
    done
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let diameter t =
  let n = Topology.size t.topology in
  let best = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match hop_count t ~src ~dst with
      | Some h -> if h > !best then best := h
      | None -> ()
    done
  done;
  !best
