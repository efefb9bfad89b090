open Dpc_ndlog

let source =
  {|// Traffic mirroring: shares the forwarding rule of Fig 1.
r1 packet(@N, S, D, DT)    :- packet(@L, S, D, DT), route(@L, D, N).
r2 mirrorLog(@L, S, D, DT) :- packet(@L, S, D, DT), D == L.
|}

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"mirror" source)

let mirror_log ~at ~src ~dst ~payload =
  Tuple.make "mirrorLog" [ Value.Addr at; Value.Addr src; Value.Addr dst; Value.Str payload ]
