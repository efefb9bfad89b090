open Dpc_ndlog

let parse name source = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name source)

module Dhcp = struct
  let delp () =
    parse "dhcp"
      {|// DHCP-style address assignment.
r1 dhcpRequest(@R, H, RQID) :- discover(@H, RQID), dhcpRelay(@H, R).
r2 dhcpOffer(@H, IP, RQID)  :- dhcpRequest(@R, H, RQID), addressPool(@R, H, IP).
|}

  let discover ~host ~rqid = Tuple.make "discover" [ Value.Addr host; Value.Int rqid ]
  let dhcp_relay ~host ~server = Tuple.make "dhcpRelay" [ Value.Addr host; Value.Addr server ]

  let address_pool ~server ~host ~ip =
    Tuple.make "addressPool" [ Value.Addr server; Value.Addr host; Value.Str ip ]

  let offer ~host ~ip ~rqid =
    Tuple.make "dhcpOffer" [ Value.Addr host; Value.Str ip; Value.Int rqid ]
end

module Arp = struct
  let delp () =
    parse "arp"
      {|// ARP-style address resolution.
r1 arpRequest(@SW, H, IP, RQID) :- arpQuery(@H, IP, RQID), arpSwitch(@H, SW).
r2 arpReply(@H, IP, MAC, RQID)  :- arpRequest(@SW, H, IP, RQID), macTable(@SW, IP, MAC).
|}

  let arp_query ~host ~ip ~rqid =
    Tuple.make "arpQuery" [ Value.Addr host; Value.Str ip; Value.Int rqid ]

  let arp_switch ~host ~switch = Tuple.make "arpSwitch" [ Value.Addr host; Value.Addr switch ]

  let mac_table ~switch ~ip ~mac =
    Tuple.make "macTable" [ Value.Addr switch; Value.Str ip; Value.Str mac ]

  let arp_reply ~host ~ip ~mac ~rqid =
    Tuple.make "arpReply" [ Value.Addr host; Value.Str ip; Value.Str mac; Value.Int rqid ]
end
