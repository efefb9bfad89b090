open Dpc_util
module Prov_hook = Dpc_engine.Prov_hook

type prov_row = {
  loc : int;
  vid : Sha1.t;
  rid : Prov_hook.back;
  evid : Sha1.t option;
}

type rule_exec_row = {
  rloc : int;
  rid : Sha1.t;
  rule : string;
  vids : Sha1.t array;
  next : Prov_hook.back;
}

type link_row = {
  link_rloc : int;
  link_rid : Sha1.t;
  link_next : Prov_hook.back;
}

let write_digest = Serialize.write_digest

(* Row sizes are computed analytically rather than by running the writers
   above through a scratch buffer: [Table.add] charges every new row on the
   store hot path, and the buffer allocation showed up in profiles. Each
   formula must agree byte-for-byte with the corresponding writer —
   test_core's row-bytes test checks them against a real serialization. *)

(* write_string of a 20-byte raw digest: 1-byte varint length + 20 bytes. *)
let digest_size = 21

let opt_digest_size = function None -> 1 | Some _ -> 1 + digest_size

let prov_row_bytes ~with_evid r =
  Serialize.varint_size r.loc + digest_size + Prov_hook.back_bytes r.rid
  + if with_evid then opt_digest_size r.evid else 0

let rule_exec_row_bytes ~with_next r =
  let rule_len = String.length r.rule in
  let nvids = Array.length r.vids in
  Serialize.varint_size r.rloc + digest_size
  + Serialize.varint_size rule_len + rule_len
  + Serialize.varint_size nvids + (nvids * digest_size)
  + if with_next then Prov_hook.back_bytes r.next else 0

let link_row_bytes r =
  Serialize.varint_size r.link_rloc + digest_size + Prov_hook.back_bytes r.link_next

(* The order polymorphic [compare] gave each row when its vids were a
   list and its references options: field by field in declaration order,
   a vid list lexicographically (a proper prefix first), an absent evid
   or reference first. On arrays [compare] would order by length first,
   and so reorder rows that tie up to their vids. *)
let compare_opt_digest a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> Sha1.compare x y

let compare_vids a b =
  let la = Array.length a and lb = Array.length b in
  let rec from i =
    if i = la then if i = lb then 0 else -1
    else if i = lb then 1
    else match Sha1.compare a.(i) b.(i) with 0 -> from (i + 1) | c -> c
  in
  from 0

let compare_prov_row a b =
  match Int.compare a.loc b.loc with
  | 0 -> (
      match Sha1.compare a.vid b.vid with
      | 0 -> (
          match Prov_hook.compare_back a.rid b.rid with
          | 0 -> compare_opt_digest a.evid b.evid
          | c -> c)
      | c -> c)
  | c -> c

let compare_rule_exec_row a b =
  match Int.compare a.rloc b.rloc with
  | 0 -> (
      match Sha1.compare a.rid b.rid with
      | 0 -> (
          match String.compare a.rule b.rule with
          | 0 -> (
              match compare_vids a.vids b.vids with
              | 0 -> Prov_hook.compare_back a.next b.next
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let compare_link_row a b =
  match Int.compare a.link_rloc b.link_rloc with
  | 0 -> (
      match Sha1.compare a.link_rid b.link_rid with
      | 0 -> Prov_hook.compare_back a.link_next b.link_next
      | c -> c)
  | c -> c

let vid_of = Dpc_ndlog.Tuple.digest
let hex = Sha1.to_hex

(* Store-table key for a digest: the 20 raw bytes, not the hex rendering.
   Identity on the representation, so keying costs no allocation on the
   record hot path; [hex] is for human-readable output only. *)
let key = Sha1.to_raw

let ref_bytes = 4 + 20

(* The vids of [tuples] from index [i] of [a] on. *)
let rec fill_vids a i = function
  | [] -> ()
  | tuple :: rest ->
      a.(i) <- vid_of tuple;
      fill_vids a (i + 1) rest

let vids = function
  | [] -> [||]
  | first :: rest as tuples ->
      let a = Array.make (List.length tuples) (vid_of first) in
      fill_vids a 1 rest;
      a

let vids_then tuples last =
  let a = Array.make (List.length tuples + 1) last in
  fill_vids a 0 tuples;
  a

(* One stream over "+"-separated parts: the rule name, the node in
   decimal, then each vid as its raw 20 bytes, then the tail. Injective
   because every part after the variable-length rule name and node is
   fixed-width, or (the chain tail) distinguished by its lead. The vids
   must be computed before the stream starts: a tuple digest opens a
   stream of its own. *)
let start_rid ~rule ~node vids =
  let s = Sha1.start () in
  Sha1.add s rule;
  Sha1.add s "+";
  Sha1.add_int s node;
  for i = 0 to Array.length vids - 1 do
    Sha1.add s "+";
    Sha1.add s (Sha1.to_raw vids.(i))
  done;
  s

let rid ~rule ~node vids = Sha1.finish (start_rid ~rule ~node vids)

let rid_then ~rule ~node vids vid =
  let s = start_rid ~rule ~node vids in
  Sha1.add s "+";
  Sha1.add s (Sha1.to_raw vid);
  Sha1.finish s

let rid_chain ~rule ~node vids (back : Prov_hook.back) =
  let s = start_rid ~rule ~node vids in
  (match back with
  | No_back -> Sha1.add s "+leaf"
  | Back { node; rid } ->
      Sha1.add s "+";
      Sha1.add_int s node;
      Sha1.add s "+";
      Sha1.add s (Sha1.to_raw rid));
  Sha1.finish s

module Table = struct
  (* A chained hash table whose entry holds one row and the link to the
     next: the key is read from the row. A key's rows sit side by side in
     its chain, oldest first, so a key with one row costs one 3-word
     entry and no list cell, and a lookup walks the chain without
     allocating. *)
  type 'a chain = Nil | Entry of { row : 'a; mutable next : 'a chain }

  type 'a t = {
    key : 'a -> string;
    row_bytes : 'a -> int;
    initial : int;
    mutable buckets : 'a chain array;  (* length a power of two *)
    mutable count : int;
    mutable bytes : int;
  }

  let create ?(buckets = 64) ~key ~row_bytes () =
    if buckets < 1 || buckets land (buckets - 1) <> 0 then
      invalid_arg "Rows.Table.create: buckets must be a power of two";
    { key; row_bytes; initial = buckets; buckets = Array.make buckets Nil; count = 0; bytes = 0 }

  let index buckets key = Hashtbl.hash key land (Array.length buckets - 1)
  let has t key = function Entry e -> String.equal (t.key e.row) key | Nil -> false

  (* The chain from the key's oldest entry on, or [Nil]. *)
  let rec run t key = function
    | Nil -> Nil
    | Entry e as c -> if String.equal (t.key e.row) key then c else run t key e.next

  let find t key = run t key t.buckets.(index t.buckets key)

  (* Split the chain of old bucket [i] between new buckets [i] and
     [i + half] in one pass, each part in its order, so a key's entries
     stay side by side and oldest first. [lo] and [hi] are the last
     entries placed in each. *)
  let rec split t buckets i half lo hi = function
    | Nil -> ()
    | Entry e as c ->
        let next = e.next in
        e.next <- Nil;
        if Hashtbl.hash (t.key e.row) land half = 0 then begin
          (match lo with Entry l -> l.next <- c | Nil -> buckets.(i) <- c);
          split t buckets i half c hi next
        end
        else begin
          (match hi with Entry h -> h.next <- c | Nil -> buckets.(i + half) <- c);
          split t buckets i half lo c next
        end

  let grow t =
    let half = Array.length t.buckets in
    let buckets = Array.make (2 * half) Nil in
    for i = 0 to half - 1 do
      split t buckets i half Nil Nil t.buckets.(i)
    done;
    t.buckets <- buckets

  (* Whether [row] is new to the run of [key]'s entries that starts at the
     given one, which it then joins as the last. *)
  let rec append t key row = function
    | Nil -> assert false (* only ever given an entry of the run *)
    | Entry e ->
        if compare e.row row = 0 then false
        else if has t key e.next then append t key row e.next
        else begin
          e.next <- Entry { row; next = e.next };
          true
        end

  (* Count a new row, and double the buckets past two rows a bucket. *)
  let account t row =
    t.count <- t.count + 1;
    t.bytes <- t.bytes + t.row_bytes row;
    if t.count > 2 * Array.length t.buckets then grow t

  (* A key's first row starts its bucket's chain. *)
  let add t row =
    let key = t.key row in
    let i = index t.buckets key in
    let fresh =
      match run t key t.buckets.(i) with
      | Nil ->
          t.buckets.(i) <- Entry { row; next = t.buckets.(i) };
          true
      | Entry _ as c -> append t key row c
    in
    if fresh then account t row;
    fresh

  let add_first t row =
    let key = t.key row in
    let i = index t.buckets key in
    match run t key t.buckets.(i) with
    | Entry _ -> false
    | Nil ->
        t.buckets.(i) <- Entry { row; next = t.buckets.(i) };
        account t row;
        true

  let first t key = match find t key with Nil -> raise Not_found | Entry e -> e.row

  let only t key =
    match find t key with
    | Nil -> raise Not_found
    | Entry e -> if has t key e.next then raise Not_found else e.row

  let rec count_run t key n = function
    | Entry e when String.equal (t.key e.row) key -> count_run t key (n + 1) e.next
    | Nil | Entry _ -> n

  let count t key = count_run t key 0 (find t key)

  let rec exists_run t key p = function
    | Entry e when String.equal (t.key e.row) key -> p e.row || exists_run t key p e.next
    | Nil | Entry _ -> false

  let exists t key p = exists_run t key p (find t key)

  let rec iter_run t key f = function
    | Entry e when String.equal (t.key e.row) key ->
        f e.row;
        iter_run t key f e.next
    | Nil | Entry _ -> ()

  let iter_key t key f = iter_run t key f (find t key)

  (* [List.concat_map]'s result and allocation: each [f row]'s cells are
     copied in front of the rest. *)
  let rec concat_run t key f = function
    | Entry e when String.equal (t.key e.row) key ->
        let head = f e.row in
        head @ concat_run t key f e.next
    | Nil | Entry _ -> []

  let concat_map t key f = concat_run t key f (find t key)
  let rows t = t.count
  let bytes t = t.bytes

  let rec iter_chain f = function
    | Nil -> ()
    | Entry e ->
        f e.row;
        iter_chain f e.next

  (* No closure per key: full cuts iterate every row. *)
  let iter t f =
    for i = 0 to Array.length t.buckets - 1 do
      iter_chain f t.buckets.(i)
    done
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

let show_ref : Prov_hook.back -> string = function
  | No_back -> "NULL"
  | Back { node; rid } -> Printf.sprintf "n%d/%s" node (show_digest rid)

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
              | [||] -> "NULL"
              | vids ->
                  "(" ^ String.concat "," (Array.to_list (Array.map show_digest vids)) ^ ")");
            ]
            @ (if with_next then [ show_ref r.next ] else []))
          (rows_of node))
      (List.init n (fun i -> i))
  in
  (header, List.sort compare rows)

let read_digest = Serialize.read_digest

let write_opt_digest w = function
  | None -> Serialize.write_bool w false
  | Some d ->
      Serialize.write_bool w true;
      write_digest w d

let read_opt_digest r = if Serialize.read_bool r then Some (read_digest r) else None

let write_prov_row w r =
  Serialize.write_varint w r.loc;
  write_digest w r.vid;
  Prov_hook.write_back w r.rid;
  write_opt_digest w r.evid

let read_prov_row r =
  let loc = Serialize.read_varint r in
  let vid = read_digest r in
  let rid = Prov_hook.read_back r in
  let evid = read_opt_digest r in
  { loc; vid; rid; evid }

(* [Serialize.write_list]'s bytes, without a closure per row. *)
let write_rule_exec_row w r =
  Serialize.write_varint w r.rloc;
  write_digest w r.rid;
  Serialize.write_string w r.rule;
  Serialize.write_varint w (Array.length r.vids);
  for i = 0 to Array.length r.vids - 1 do
    write_digest w r.vids.(i)
  done;
  Prov_hook.write_back w r.next

let read_rule_exec_row r =
  let rloc = Serialize.read_varint r in
  let rid = read_digest r in
  let rule = Serialize.read_string r in
  let vids = Array.init (Serialize.read_count r) (fun _ -> read_digest r) in
  let next = Prov_hook.read_back r in
  { rloc; rid; rule; vids; next }

let write_link_row w r =
  Serialize.write_varint w r.link_rloc;
  write_digest w r.link_rid;
  Prov_hook.write_back w r.link_next

let read_link_row r =
  let link_rloc = Serialize.read_varint r in
  let link_rid = read_digest r in
  let link_next = Prov_hook.read_back r in
  { link_rloc; link_rid; link_next }
