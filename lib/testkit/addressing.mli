(** Two small DELPs kept as test inputs: DHCP-style address assignment,
    whose only equivalence key is the requesting host, and ARP-style
    address resolution, keyed by the querying host and the looked-up IP.
    §3.1 cites both protocols as DELP-expressible. *)

module Dhcp : sig
  val delp : unit -> Dpc_ndlog.Delp.t

  val discover : host:int -> rqid:int -> Dpc_ndlog.Tuple.t
  (** The input event [discover(@host, rqid)]. *)

  val dhcp_relay : host:int -> server:int -> Dpc_ndlog.Tuple.t
  val address_pool : server:int -> host:int -> ip:string -> Dpc_ndlog.Tuple.t
  val offer : host:int -> ip:string -> rqid:int -> Dpc_ndlog.Tuple.t
end

module Arp : sig
  val delp : unit -> Dpc_ndlog.Delp.t

  val arp_query : host:int -> ip:string -> rqid:int -> Dpc_ndlog.Tuple.t
  (** The input event [arpQuery(@host, ip, rqid)]. *)

  val arp_switch : host:int -> switch:int -> Dpc_ndlog.Tuple.t
  val mac_table : switch:int -> ip:string -> mac:string -> Dpc_ndlog.Tuple.t
  val arp_reply : host:int -> ip:string -> mac:string -> rqid:int -> Dpc_ndlog.Tuple.t
end
