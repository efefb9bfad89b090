module S = Dpc_util.Serialize

type back = No_back | Back of { node : int; rid : Dpc_util.Sha1.t }

type meta = {
  evid : Dpc_util.Sha1.t;
  exist_flag : bool;
  eqkey : Dpc_util.Sha1.t option;
  prev : back;
}

(* The order polymorphic [compare] gave the [(int * Sha1.t) option] this
   type replaces: [None] first, then by node, then by rid. *)
let compare_back a b =
  match a, b with
  | No_back, No_back -> 0
  | No_back, Back _ -> -1
  | Back _, No_back -> 1
  | Back x, Back y -> (
      match Int.compare x.node y.node with 0 -> Dpc_util.Sha1.compare x.rid y.rid | c -> c)

(* A flag, then the node as a varint and the rid as a 21-byte string. *)
let back_bytes = function No_back -> 1 | Back { node; _ } -> 1 + S.varint_size node + 21

let write_back w = function
  | No_back -> S.write_bool w false
  | Back { node; rid } ->
      S.write_bool w true;
      S.write_varint w node;
      S.write_digest w rid

let read_back r =
  if S.read_bool r then begin
    let node = S.read_varint r in
    Back { node; rid = S.read_digest r }
  end
  else No_back

type slow_op = Slow_insert | Slow_delete

type t = {
  name : string;
  on_input : node:int -> Dpc_ndlog.Tuple.t -> meta;
  on_fire :
    node:int ->
    rule:Dpc_ndlog.Ast.rule ->
    event:Dpc_ndlog.Tuple.t ->
    slow:Dpc_ndlog.Tuple.t list ->
    head:Dpc_ndlog.Tuple.t ->
    meta ->
    meta;
  on_output : node:int -> Dpc_ndlog.Tuple.t -> meta -> unit;
  on_slow_update : node:int -> op:slow_op -> Dpc_ndlog.Tuple.t -> unit;
  meta_bytes : meta -> int;
}

let initial_meta event =
  {
    evid = Dpc_ndlog.Tuple.digest event;
    exist_flag = false;
    eqkey = None;
    prev = No_back;
  }

let null =
  {
    name = "none";
    on_input = (fun ~node:_ event -> initial_meta event);
    on_fire = (fun ~node:_ ~rule:_ ~event:_ ~slow:_ ~head:_ meta -> meta);
    on_output = (fun ~node:_ _ _ -> ());
    on_slow_update = (fun ~node:_ ~op:_ _ -> ());
    meta_bytes = (fun _ -> 0);
  }
