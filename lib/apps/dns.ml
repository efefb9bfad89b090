open Dpc_ndlog

let source =
  {|// Recursive DNS resolution (paper Figure 19).
r1 request(@RT, URL, HST, RQID) :- url(@HST, URL, RQID), rootServer(@HST, RT).
r2 request(@SV, URL, HST, RQID) :- request(@X, URL, HST, RQID),
                                   nameServer(@X, DM, SV),
                                   f_isSubDomain(DM, URL) == true.
r3 dnsResult(@X, URL, IPADDR, HST, RQID) :- request(@X, URL, HST, RQID),
                                            addressRecord(@X, URL, IPADDR).
r4 reply(@HST, URL, IPADDR, RQID) :- dnsResult(@X, URL, IPADDR, HST, RQID).
|}

let delp () = Result.fold ~ok:Fun.id ~error:failwith (Delp.parse ~name:"dns-resolution" source)

(* Whether [url] matches [dm] at offset [off], from [dm]'s character [i]
   on. Top level, so a call builds no closure. *)
let rec holds_at url off dm i =
  i = String.length dm || (url.[off + i] = dm.[i] && holds_at url off dm (i + 1))

let is_sub_domain dm url =
  String.equal dm ""
  || String.equal dm url
  ||
  let ld = String.length dm and lu = String.length url in
  lu > ld && url.[lu - ld - 1] = '.' && holds_at url (lu - ld) dm 0

let env =
  Dpc_engine.Env.register2 Dpc_engine.Env.empty "f_isSubDomain" (fun dm url ->
    match (dm, url) with
    | Value.Str dm, Value.Str url ->
        if is_sub_domain dm url then Value.Bool true else Value.Bool false
    | _ ->
        raise
          (Dpc_engine.Eval.Eval_error
             (Printf.sprintf "f_isSubDomain: expected two strings, got %s and %s"
                (Value.to_string dm) (Value.to_string url))))

let url ~host ~url ~rqid = Tuple.make "url" [ Value.Addr host; Value.Str url; Value.Int rqid ]
let root_server ~host ~root = Tuple.make "rootServer" [ Value.Addr host; Value.Addr root ]

let name_server ~at ~domain ~server =
  Tuple.make "nameServer" [ Value.Addr at; Value.Str domain; Value.Addr server ]

let address_record ~at ~url ~ip =
  Tuple.make "addressRecord" [ Value.Addr at; Value.Str url; Value.Str ip ]

module For_testing = struct
  let is_sub_domain = is_sub_domain
end
