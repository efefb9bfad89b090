open Dpc_net

let outage ~src ~dst ~from ~until = { Transport.link_src = src; link_dst = dst; from; until }
let oneway_plan ~src ~dst ~at ~duration = [ outage ~src ~dst ~from:at ~until:(at +. duration) ]

let link_plan ~a ~b ~at ~duration =
  [
    outage ~src:a ~dst:b ~from:at ~until:(at +. duration);
    outage ~src:b ~dst:a ~from:at ~until:(at +. duration);
  ]

let flap_plan ~a ~b ~at ~cycles ~down ~dwell =
  if cycles <= 0 then invalid_arg "Partition_plans.flap_plan: cycles must be positive";
  if down <= 0.0 || dwell <= 0.0 then
    invalid_arg "Partition_plans.flap_plan: down and dwell must be positive";
  List.concat
    (List.init cycles (fun i ->
       let start = at +. (float_of_int i *. (down +. dwell)) in
       link_plan ~a ~b ~at:start ~duration:down))

let random_plan ~seed ~nodes ~count ~horizon ~min_down ~max_down ?(dwell = 0.0) () =
  if nodes < 2 then invalid_arg "Partition_plans.random_plan: need at least 2 nodes";
  if count < 0 then invalid_arg "Partition_plans.random_plan: negative count";
  if min_down <= 0.0 || max_down < min_down then
    invalid_arg "Partition_plans.random_plan: bad down-time range";
  let draw i slot = Transport.channel_unit_hash ~seed ~src:slot ~dst:i ~n:i in
  let raw =
    List.init count (fun i ->
      let src = int_of_float (draw i 1 *. float_of_int nodes) in
      let dst0 = int_of_float (draw i 2 *. float_of_int (nodes - 1)) in
      let dst = if dst0 >= src then dst0 + 1 else dst0 in
      let from = draw i 3 *. horizon in
      let down = min_down +. (draw i 4 *. (max_down -. min_down)) in
      outage ~src ~dst ~from ~until:(from +. down))
  in
  let by_start (a : Transport.outage) (b : Transport.outage) =
    compare (a.from, a.link_src, a.link_dst) (b.from, b.link_src, b.link_dst)
  in
  let last_heal = Hashtbl.create 16 in
  List.filter
    (fun (o : Transport.outage) ->
      let key = (o.link_src, o.link_dst) in
      let ok = match Hashtbl.find_opt last_heal key with Some h -> o.from >= h +. dwell | None -> true in
      if ok then Hashtbl.replace last_heal key o.until;
      ok)
    (List.sort by_start raw)

let plan_horizon plan =
  List.fold_left (fun acc (o : Transport.outage) -> Float.max acc o.until) 0.0 plan
