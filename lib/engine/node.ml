type binding = ..

type 'a key = {
  uid : int;
  inj : 'a -> binding;
  proj : binding -> 'a;
}

let next_uid = ref 0

let key (type a) () : a key =
  let module M = struct
    type binding += K of a
  end in
  incr next_uid;
  {
    uid = !next_uid;
    inj = (fun v -> M.K v);
    (* uids are unique per key, so a binding stored under this key's uid
       with a foreign constructor can only be a bug in this module *)
    proj = (function M.K v -> v | _ -> assert false);
  }

type t = {
  db : Db.t;
  metrics : Dpc_util.Metrics.t;
  props : (int, binding) Hashtbl.t;
  mutable reset_hooks : (unit -> unit) list;
}

let create () =
  {
    db = Db.create ();
    metrics = Dpc_util.Metrics.create ();
    props = Hashtbl.create 8;
    reset_hooks = [];
  }

let cluster n =
  if n <= 0 then invalid_arg "Node.cluster: size must be positive";
  Array.init n (fun _ -> create ())

let db t = t.db
let metrics t = t.metrics
let tick t name = Dpc_util.Metrics.incr t.metrics name
let add t name n = Dpc_util.Metrics.add t.metrics name n

let on_reset t hook = t.reset_hooks <- hook :: t.reset_hooks

let reset t =
  Db.clear t.db;
  Dpc_util.Metrics.clear t.metrics;
  Hashtbl.reset t.props;
  (* Hooks outlive the wipe on purpose: a crash must notify the layers
     that index this node's state (e.g. the query cache) even though the
     per-node property records themselves are gone. Registration order is
     irrelevant, so the reversed list is fine. *)
  List.iter (fun hook -> hook ()) t.reset_hooks

(* Every store write looks its node state up here, so the hit path
   allocates nothing. *)
let get_or_init t k ~init =
  match Hashtbl.find t.props k.uid with
  | b -> k.proj b
  | exception Not_found ->
      let v = init () in
      Hashtbl.replace t.props k.uid (k.inj v);
      v
