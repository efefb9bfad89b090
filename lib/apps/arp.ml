open Dpc_ndlog

let source =
  {|// ARP-style address resolution.
r1 arpRequest(@SW, H, IP, RQID) :- arpQuery(@H, IP, RQID), arpSwitch(@H, SW).
r2 arpReply(@H, IP, MAC, RQID)  :- arpRequest(@SW, H, IP, RQID), macTable(@SW, IP, MAC).
|}

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"arp" source)

let env = Dpc_engine.Env.empty

let arp_query ~host ~ip ~rqid =
  Tuple.make "arpQuery" [ Value.Addr host; Value.Str ip; Value.Int rqid ]

let arp_switch ~host ~switch = Tuple.make "arpSwitch" [ Value.Addr host; Value.Addr switch ]

let mac_table ~switch ~ip ~mac =
  Tuple.make "macTable" [ Value.Addr switch; Value.Str ip; Value.Str mac ]

let arp_reply ~host ~ip ~mac ~rqid =
  Tuple.make "arpReply" [ Value.Addr host; Value.Str ip; Value.Str mac; Value.Int rqid ]
