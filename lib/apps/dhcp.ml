open Dpc_ndlog

let source =
  {|// DHCP-style address assignment.
r1 dhcpRequest(@R, H, RQID) :- discover(@H, RQID), dhcpRelay(@H, R).
r2 dhcpOffer(@H, IP, RQID)  :- dhcpRequest(@R, H, RQID), addressPool(@R, H, IP).
|}

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"dhcp" source)

let env = Dpc_engine.Env.empty

let discover ~host ~rqid = Tuple.make "discover" [ Value.Addr host; Value.Int rqid ]
let dhcp_relay ~host ~server = Tuple.make "dhcpRelay" [ Value.Addr host; Value.Addr server ]

let address_pool ~server ~host ~ip =
  Tuple.make "addressPool" [ Value.Addr server; Value.Addr host; Value.Str ip ]

let offer ~host ~ip ~rqid =
  Tuple.make "dhcpOffer" [ Value.Addr host; Value.Str ip; Value.Int rqid ]
