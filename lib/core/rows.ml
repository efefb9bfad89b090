open Dpc_util

type prov_row = {
  loc : int;
  vid : Sha1.t;
  rid : (int * Sha1.t) option;
  evid : Sha1.t option;
}

type rule_exec_row = {
  rloc : int;
  rid : Sha1.t;
  rule : string;
  vids : Sha1.t list;
  next : (int * Sha1.t) option;
}

type link_row = {
  link_rloc : int;
  link_rid : Sha1.t;
  link_next : (int * Sha1.t) option;
}

let write_digest = Serialize.write_digest

let write_ref w = function
  | None -> Serialize.write_bool w false
  | Some (node, d) ->
      Serialize.write_bool w true;
      Serialize.write_varint w node;
      write_digest w d

(* Row sizes are computed analytically rather than by running the writers
   above through a scratch buffer: [Table.add] charges every new row on the
   store hot path, and the buffer allocation showed up in profiles. Each
   formula must agree byte-for-byte with the corresponding writer —
   test_core's row-bytes test checks them against a real serialization. *)

(* write_string of a 20-byte raw digest: 1-byte varint length + 20 bytes. *)
let digest_size = 21

let ref_size = function
  | None -> 1
  | Some (node, _) -> 1 + Serialize.varint_size node + digest_size

let opt_digest_size = function None -> 1 | Some _ -> 1 + digest_size

let prov_row_bytes ~with_evid r =
  Serialize.varint_size r.loc + digest_size + ref_size r.rid
  + if with_evid then opt_digest_size r.evid else 0

let rule_exec_row_bytes ~with_next r =
  let rule_len = String.length r.rule in
  let nvids = List.length r.vids in
  Serialize.varint_size r.rloc + digest_size
  + Serialize.varint_size rule_len + rule_len
  + Serialize.varint_size nvids + (nvids * digest_size)
  + if with_next then ref_size r.next else 0

let link_row_bytes r =
  Serialize.varint_size r.link_rloc + digest_size + ref_size r.link_next

let vid_of = Dpc_ndlog.Tuple.digest
let hex = Sha1.to_hex

(* Store-table key for a digest: the 20 raw bytes, not the hex rendering.
   Identity on the representation, so keying costs no allocation on the
   record hot path; [hex] is for human-readable output only. *)
let key = Sha1.to_raw

let ref_bytes = 4 + 20

type rid_tail = No_tail | Vid of Sha1.t | Chain of (int * Sha1.t) option

let rec add_vids s = function
  | [] -> ()
  | vid :: rest ->
      Sha1.add s "+";
      Sha1.add s (Sha1.to_raw vid);
      add_vids s rest

(* One stream over "+"-separated parts: the rule name, the node in
   decimal, then each vid as its raw 20 bytes. Injective because every
   part after the variable-length rule name and node is fixed-width, or
   (the chain tail) distinguished by its lead. The vids must be computed
   before the stream starts: a tuple digest opens a stream of its own. *)
let rid ~rule ~node vids tail =
  let s = Sha1.start () in
  Sha1.add s rule;
  Sha1.add s "+";
  Sha1.add_int s node;
  add_vids s vids;
  (match tail with
  | No_tail -> ()
  | Vid vid ->
      Sha1.add s "+";
      Sha1.add s (Sha1.to_raw vid)
  | Chain None -> Sha1.add s "+leaf"
  | Chain (Some (l, r)) ->
      Sha1.add s "+";
      Sha1.add_int s l;
      Sha1.add s "+";
      Sha1.add s (Sha1.to_raw r));
  Sha1.finish s

module Table = struct
  (* Rows oldest first, held directly in the table: a key with one row,
     the common case, costs its bucket and one cons cell. *)
  type 'a t = {
    row_bytes : 'a -> int;
    entries : (string, 'a list) Hashtbl.t;
    mutable count : int;
    mutable bytes : int;
  }

  let create ~row_bytes () = { row_bytes; entries = Hashtbl.create 64; count = 0; bytes = 0 }

  let added t row =
    t.count <- t.count + 1;
    t.bytes <- t.bytes + t.row_bytes row;
    true

  let add t ~key row =
    match Hashtbl.find t.entries key with
    | exception Not_found ->
        Hashtbl.add t.entries key [ row ];
        added t row
    | rows ->
        if List.mem row rows then false
        else begin
          Hashtbl.replace t.entries key (rows @ [ row ]);
          added t row
        end

  let find t key = match Hashtbl.find t.entries key with rows -> rows | exception Not_found -> []
  let rows t = t.count
  let bytes t = t.bytes

  let clear t =
    Hashtbl.reset t.entries;
    t.count <- 0;
    t.bytes <- 0

  let rec iter_rows f k = function
    | [] -> ()
    | row :: rest ->
        f k row;
        iter_rows f k rest

  (* No closure per key: full cuts iterate every row. *)
  let iter t f = Hashtbl.iter (fun k rows -> iter_rows f k rows) t.entries
end

type storage = {
  prov_bytes : int;
  rule_exec_bytes : int;
  equi_bytes : int;
  event_bytes : int;
  prov_rows : int;
  rule_exec_rows : int;
}

let empty_storage =
  {
    prov_bytes = 0;
    rule_exec_bytes = 0;
    equi_bytes = 0;
    event_bytes = 0;
    prov_rows = 0;
    rule_exec_rows = 0;
  }

let add_storage a b =
  {
    prov_bytes = a.prov_bytes + b.prov_bytes;
    rule_exec_bytes = a.rule_exec_bytes + b.rule_exec_bytes;
    equi_bytes = a.equi_bytes + b.equi_bytes;
    event_bytes = a.event_bytes + b.event_bytes;
    prov_rows = a.prov_rows + b.prov_rows;
    rule_exec_rows = a.rule_exec_rows + b.rule_exec_rows;
  }

let provenance_bytes s = s.prov_bytes + s.rule_exec_bytes

let show_digest d = Dpc_util.Sha1.abbrev d

let show_ref = function
  | None -> "NULL"
  | Some (node, d) -> Printf.sprintf "n%d/%s" node (show_digest d)

let dump_prov ~with_evid rows_of n =
  let header =
    [ "Loc"; "VID"; "(RLoc,RID)" ] @ (if with_evid then [ "EVID" ] else [])
  in
  let rows =
    List.concat_map
      (fun node ->
        List.map
          (fun r ->
            [ Printf.sprintf "n%d" r.loc; show_digest r.vid; show_ref r.rid ]
            @
            if with_evid then
              [ (match r.evid with None -> "NULL" | Some e -> show_digest e) ]
            else [])
          (rows_of node))
      (List.init n (fun i -> i))
  in
  (header, List.sort compare rows)

let dump_rule_exec ~with_next rows_of n =
  let header =
    [ "RLoc"; "RID"; "RULE"; "VIDS" ] @ (if with_next then [ "(NLoc,NRID)" ] else [])
  in
  let rows =
    List.concat_map
      (fun node ->
        List.map
          (fun r ->
            [
              Printf.sprintf "n%d" r.rloc;
              show_digest r.rid;
              r.rule;
              (match r.vids with
              | [] -> "NULL"
              | vids -> "(" ^ String.concat "," (List.map show_digest vids) ^ ")");
            ]
            @ (if with_next then [ show_ref r.next ] else []))
          (rows_of node))
      (List.init n (fun i -> i))
  in
  (header, List.sort compare rows)

let read_digest = Serialize.read_digest

let read_ref r =
  if Serialize.read_bool r then begin
    let node = Serialize.read_varint r in
    Some (node, read_digest r)
  end
  else None

let write_opt_digest w = function
  | None -> Serialize.write_bool w false
  | Some d ->
      Serialize.write_bool w true;
      write_digest w d

let read_opt_digest r = if Serialize.read_bool r then Some (read_digest r) else None

let write_prov_row w r =
  Serialize.write_varint w r.loc;
  write_digest w r.vid;
  write_ref w r.rid;
  write_opt_digest w r.evid

let read_prov_row r =
  let loc = Serialize.read_varint r in
  let vid = read_digest r in
  let rid = read_ref r in
  let evid = read_opt_digest r in
  { loc; vid; rid; evid }

let write_rule_exec_row w r =
  Serialize.write_varint w r.rloc;
  write_digest w r.rid;
  Serialize.write_string w r.rule;
  Serialize.write_list w (write_digest w) r.vids;
  write_ref w r.next

let read_rule_exec_row r =
  let rloc = Serialize.read_varint r in
  let rid = read_digest r in
  let rule = Serialize.read_string r in
  let vids = Serialize.read_list r (fun () -> read_digest r) in
  let next = read_ref r in
  { rloc; rid; rule; vids; next }

let write_link_row w r =
  Serialize.write_varint w r.link_rloc;
  write_digest w r.link_rid;
  write_ref w r.link_next

let read_link_row r =
  let link_rloc = Serialize.read_varint r in
  let link_rid = read_digest r in
  let link_next = read_ref r in
  { link_rloc; link_rid; link_next }
