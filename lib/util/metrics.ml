type histogram = { count : int; sum : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}

(* One mutex per registry guards every table operation. Registries are
   owned by their node's shard, so the lock is almost always uncontended;
   it exists for the cross-shard readers (snapshots taken at the merge
   barrier, durable counter rematerialization) and for registries shared
   deliberately, e.g. the concurrency property tests. *)
type t = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram ref) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

let cell tbl ~make name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = make () in
      Hashtbl.add tbl name r;
      r

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

let set_gauge t name v =
  Mutex.protect t.lock (fun () ->
    let r = cell t.gauges ~make:(fun () -> ref 0.0) name in
    r := v)

let observe t name v =
  Mutex.protect t.lock (fun () ->
    match Hashtbl.find_opt t.histograms name with
    | Some r ->
        let h = !r in
        r := { count = h.count + 1; sum = h.sum +. v; min = Float.min h.min v;
               max = Float.max h.max v }
    | None -> Hashtbl.add t.histograms name (ref { count = 1; sum = v; min = v; max = v }))

let clear t =
  Mutex.protect t.lock (fun () ->
    Hashtbl.reset t.counters;
    Hashtbl.reset t.gauges;
    Hashtbl.reset t.histograms)

let sorted_bindings deref tbl =
  Hashtbl.fold (fun k r acc -> (k, deref r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t : snapshot =
  Mutex.protect t.lock (fun () ->
    {
      counters = sorted_bindings ( ! ) t.counters;
      gauges = sorted_bindings ( ! ) t.gauges;
      histograms = sorted_bindings ( ! ) t.histograms;
    })

let empty : snapshot = { counters = []; gauges = []; histograms = [] }

(* Merge two name-sorted association lists, combining values under equal
   names with [combine]. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, combine va vb) :: merge_assoc combine ta tb
      else if c < 0 then (ka, va) :: merge_assoc combine ta b
      else (kb, vb) :: merge_assoc combine a tb

let merge (a : snapshot) (b : snapshot) : snapshot =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    (* Gauges are levels; across nodes the cluster-wide level is the sum. *)
    gauges = merge_assoc ( +. ) a.gauges b.gauges;
    histograms =
      merge_assoc
        (fun x y ->
          { count = x.count + y.count; sum = x.sum +. y.sum;
            min = Float.min x.min y.min; max = Float.max x.max y.max })
        a.histograms b.histograms;
  }

let counter (s : snapshot) name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let gauge (s : snapshot) name = List.assoc_opt name s.gauges
let histogram (s : snapshot) name = List.assoc_opt name s.histograms
let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let to_rows (s : snapshot) =
  List.map (fun (k, v) -> [ k; "counter"; string_of_int v ]) s.counters
  @ List.map (fun (k, v) -> [ k; "gauge"; Printf.sprintf "%g" v ]) s.gauges
  @ List.map
      (fun (k, h) ->
        [ k; "histogram";
          Printf.sprintf "n=%d mean=%g min=%g max=%g" h.count (mean h) h.min h.max ])
      s.histograms
