open Dpc_ndlog

let source =
  {|// Packet forwarding (paper Figure 1).
r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
|}

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"packet-forwarding" source)

let env = Dpc_engine.Env.empty

let packet ~src ~dst ~payload =
  Tuple.make "packet" [ Value.Addr src; Value.Addr src; Value.Addr dst; Value.Str payload ]

let route ~at ~dst ~next = Tuple.make "route" [ Value.Addr at; Value.Addr dst; Value.Addr next ]

let recv ~at ~src ~dst ~payload =
  Tuple.make "recv" [ Value.Addr at; Value.Addr src; Value.Addr dst; Value.Str payload ]

let routes_for_pair routing ~src ~dst =
  match Dpc_net.Routing.path routing ~src ~dst with
  | None -> failwith (Printf.sprintf "Forwarding.routes_for_pair: %d unreachable from %d" dst src)
  | Some path ->
      let rec go = function
        | at :: (next :: _ as rest) -> route ~at ~dst ~next :: go rest
        | [ _ ] | [] -> []
      in
      go path

let routes_for_pairs routing pairs =
  List.concat_map (fun (src, dst) -> routes_for_pair routing ~src ~dst) pairs
  |> List.sort_uniq Tuple.compare
