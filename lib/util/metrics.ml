type snapshot = { counters : (string * int) list }

(* One mutex per registry guards every table operation. Registries are
   owned by their node's shard, so the lock is almost always uncontended;
   it exists for the cross-shard readers (snapshots taken at the merge
   barrier, durable counter rematerialization) and for registries shared
   deliberately, e.g. the concurrency property tests. *)
type t = { lock : Mutex.t; counters : (string, int ref) Hashtbl.t }

let create () = { lock = Mutex.create (); counters = Hashtbl.create 16 }

(* Counters are ticked several times per rule firing, so [add] takes the
   lock by hand (nothing in between can raise) and probes with
   [Hashtbl.find]: on an existing counter it allocates nothing. *)
let add t name by =
  Mutex.lock t.lock;
  (match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add t.counters name (ref by));
  Mutex.unlock t.lock

let incr t name = add t name 1

let counter_value t name =
  Mutex.protect t.lock (fun () ->
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.counters)

let snapshot t : snapshot =
  Mutex.protect t.lock (fun () ->
    {
      counters =
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    })

let empty : snapshot = { counters = [] }

(* Merge two name-sorted association lists, adding the values under equal
   names. *)
let rec merge_counters a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, va + vb) :: merge_counters ta tb
      else if c < 0 then (ka, va) :: merge_counters ta b
      else (kb, vb) :: merge_counters a tb

let merge (a : snapshot) (b : snapshot) : snapshot =
  { counters = merge_counters a.counters b.counters }

let counter (s : snapshot) name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let to_rows (s : snapshot) =
  List.map (fun (k, v) -> [ k; "counter"; string_of_int v ]) s.counters

module For_testing = struct
  let counter = counter
end
