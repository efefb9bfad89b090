(* Per-layer cost accounting for the traced run, and the perturbation
   wrappers of the sensitivity self-test.

   Every layer is timed from outside, by wrapping the public entry points
   the engine goes through: the first-class transport (delivery and timer
   callbacks, sends, the run loop), the provenance hook (the store) and
   [Backend.query] (through [query]). Spans nest: store, send and query
   spans recorded inside a callback are subtracted from the callback to
   give the engine's self time, and the callbacks are subtracted from the
   run loop to give the loop's own time (on a sharded transport, the
   barrier wait as well).

   Domain safety: a sharded run executes callbacks on several domains at
   once, so all mutable state lives in one accumulator per domain
   ([Domain.DLS]), written only by its own domain and merged after
   [Transport.run] has joined the workers. Nothing is shared but the
   registration list, which is touched once per domain under a lock.

   Each span takes a [Gc.minor_words] delta (per domain in OCaml 5), an
   id, and its parent's id. A delivery callback's parent is the send that
   caused it, and a timer's is the span that armed it, so the spans of one
   input event form a tree across nodes. The trace id is the event's evid:
   it rides from a send into the delivery it causes, and an injected
   event's callback takes it from the hook once the store has computed it.
   Spans of one input event in 64 (by evid) and of one query in 64 are
   kept in memory and written at exit as Chrome trace-event JSON. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
  mutable nested_ns : int;  (** the part recorded inside a callback *)
  mutable nested_words : float;
}

type span = { name : string; id : int; parent : int; trace : string; start : int; dur : int; tid : int }

(* One domain's accumulator. *)
type acc = {
  tid : int;
  callback : layer;  (** delivery and timer callbacks, inclusive *)
  store : layer;
  send : layer;
  run : layer;  (** [Transport.run], inclusive *)
  query : layer;
  mutable depth : int;  (** > 0 while a callback runs *)
  mutable open_spans : int list;  (** innermost first *)
  mutable next_id : int;
  mutable trace : string;  (** the running event's trace id; "" when not kept *)
  mutable spans : span list;
  mutable inputs : int;
  mutable equi_hits : int;
}

type t = { origin : int; key : acc Domain.DLS.key; lock : Mutex.t; accs : acc list ref }

let layer () = { calls = 0; ns = 0; words = 0.0; nested_ns = 0; nested_words = 0.0 }

let create () =
  let lock = Mutex.create () and accs = ref [] in
  let fresh () =
    Mutex.protect lock (fun () ->
      let a =
        {
          tid = List.length !accs;
          callback = layer ();
          store = layer ();
          send = layer ();
          run = layer ();
          query = layer ();
          depth = 0;
          open_spans = [];
          next_id = 0;
          trace = "";
          spans = [];
          inputs = 0;
          equi_hits = 0;
        }
      in
      accs := a :: !accs;
      a)
  in
  { origin = now_ns (); key = Domain.DLS.new_key fresh; lock; accs }

let acc t = Domain.DLS.get t.key

(* Call only after the run has returned: every worker has been joined. *)
let accs t = Mutex.protect t.lock (fun () -> List.rev !(t.accs))

let sampled evid = Dpc_util.Sha1.hash evid land 63 = 0
let current a = match a.open_spans with id :: _ -> id | [] -> 0

(* Ids are unique across domains: the low byte is the domain's slot. *)
let open_span a =
  a.next_id <- a.next_id + 1;
  let id = (a.next_id lsl 8) lor (a.tid land 0xff) in
  a.open_spans <- id :: a.open_spans;
  id

let close_span t a l ~id ~parent name start w0 =
  let dur = now_ns () - start and dw = Gc.minor_words () -. w0 in
  a.open_spans <- List.tl a.open_spans;
  l.calls <- l.calls + 1;
  l.ns <- l.ns + dur;
  l.words <- l.words +. dw;
  if a.depth > 0 then begin
    l.nested_ns <- l.nested_ns + dur;
    l.nested_words <- l.nested_words +. dw
  end;
  if a.trace <> "" then
    a.spans <- { name; id; parent; trace = a.trace; start = start - t.origin; dur; tid = a.tid } :: a.spans

(* [f] receives the new span's id, for the callbacks it arms. *)
let span t pick name f =
  let a = acc t in
  let parent = current a in
  let id = open_span a in
  let start = now_ns () and w0 = Gc.minor_words () in
  match f id with
  | r ->
      close_span t a (pick a) ~id ~parent name start w0;
      r
  | exception e ->
      close_span t a (pick a) ~id ~parent name start w0;
      raise e

let callback t ~parent ~trace f () =
  let a = acc t in
  let saved = a.trace in
  a.trace <- trace;
  a.depth <- a.depth + 1;
  let id = open_span a in
  let start = now_ns () and w0 = Gc.minor_words () in
  f ();
  a.depth <- a.depth - 1;
  close_span t a a.callback ~id ~parent "engine" start w0;
  a.trace <- saved

(* The hook learns the running event's evid: adopt it as the trace id
   when the callback did not inherit one and the event is sampled. *)
let note a evid = if a.trace = "" && sampled evid then a.trace <- Dpc_util.Sha1.abbrev evid

let query t f =
  let a = acc t in
  let saved = a.trace in
  if a.query.calls land 63 = 0 then a.trace <- Printf.sprintf "query-%d" a.query.calls;
  match span t (fun a -> a.query) "query" (fun _ -> f ()) with
  | r ->
      a.trace <- saved;
      r
  | exception e ->
      a.trace <- saved;
      raise e

(* A callback armed now continues the current trace under the current
   span. *)
let arm t f =
  let a = acc t in
  callback t ~parent:(current a) ~trace:a.trace f

let transport t (inner : Dpc_net.Transport.t) : Dpc_net.Transport.t =
  let module I = (val inner) in
  let send_span f = span t (fun a -> a.send) "transport.send" f in
  (module struct
    let name = I.name
    let nodes = I.nodes
    let shards = I.shards
    let shard_of = I.shard_of
    let now = I.now
    let schedule ~delay f = I.schedule ~delay (arm t f)
    let schedule_on ~node ~delay f = I.schedule_on ~node ~delay (arm t f)

    let send ~src ~dst ~bytes f =
      send_span (fun id -> I.send ~src ~dst ~bytes (callback t ~parent:id ~trace:(acc t).trace f))

    let broadcast ~src ~bytes f =
      send_span (fun id ->
        let trace = (acc t).trace in
        I.broadcast ~src ~bytes (fun n -> callback t ~parent:id ~trace (fun () -> f n) ()))

    let run ?until () = span t (fun a -> a.run) "transport.run" (fun _ -> I.run ?until ())
    let total_bytes = I.total_bytes
    let messages = I.messages
  end)

let hook t (h : Dpc_engine.Prov_hook.t) : Dpc_engine.Prov_hook.t =
  let store name f = span t (fun a -> a.store) name (fun _ -> f ()) in
  {
    h with
    on_input =
      (fun ~node event ->
        store "store.on_input" (fun () ->
          let meta = h.on_input ~node event in
          let a = acc t in
          note a meta.evid;
          a.inputs <- a.inputs + 1;
          if meta.exist_flag then a.equi_hits <- a.equi_hits + 1;
          meta));
    on_fire =
      (fun ~node ~rule ~event ~slow ~head meta ->
        note (acc t) meta.evid;
        store "store.on_fire" (fun () -> h.on_fire ~node ~rule ~event ~slow ~head meta));
    on_output =
      (fun ~node tuple meta ->
        note (acc t) meta.evid;
        store "store.on_output" (fun () -> h.on_output ~node tuple meta));
    on_slow_update =
      (fun ~node ~op tuple -> store "store.on_slow_update" (fun () -> h.on_slow_update ~node ~op tuple));
  }

(* ------------------------------------------------------------------ *)
(* Totals over every domain, read after the run. *)

let sum t f = List.fold_left (fun s a -> s + f a) 0 (accs t)
let sumf t f = List.fold_left (fun s a -> s +. f a) 0.0 (accs t)
let calls t pick = sum t (fun a -> (pick a).calls)
let ns t pick = sum t (fun a -> (pick a).ns)
let words t pick = sumf t (fun a -> (pick a).words)
let outside_ns t pick = sum t (fun a -> (pick a).ns - (pick a).nested_ns)
let inputs t = sum t (fun a -> a.inputs)
let equi_hits t = sum t (fun a -> a.equi_hits)

(* Callback busy time of each domain that ran callbacks. *)
let busy_ns t = List.filter_map (fun a -> if a.callback.calls > 0 then Some a.callback.ns else None) (accs t)

let engine_self_ns t =
  sum t (fun a -> a.callback.ns - a.store.nested_ns - a.send.nested_ns - a.query.nested_ns)

let engine_self_words t =
  sumf t (fun a -> a.callback.words -. a.store.nested_words -. a.send.nested_words -. a.query.nested_words)

(* The run loop's wall time minus the callbacks, per domain: the loop's
   own work, plus the barrier wait on a sharded transport. *)
let loop_self_ns t =
  let run = ns t (fun a -> a.run) in
  List.fold_left (fun s b -> s + (run - b)) 0 (busy_ns t)

(* Everything the layers account for: the run loop (callbacks included)
   plus whatever ran outside it (closed-loop queries). *)
let accounted_ns t =
  ns t (fun a -> a.run) + outside_ns t (fun a -> a.store) + outside_ns t (fun a -> a.send)
  + outside_ns t (fun a -> a.query)

let spans t = List.concat_map (fun a -> a.spans) (accs t)

(* Input-event trees: distinct evid trace ids among the kept spans. *)
let event_trees t =
  List.sort_uniq compare
    (List.filter_map
       (fun (s : span) -> if String.starts_with ~prefix:"query-" s.trace then None else Some s.trace)
       (spans t))
  |> List.length

let write_chrome t path =
  let spans = List.sort (fun a b -> compare a.start b.start) (spans t) in
  Out_channel.with_open_bin path (fun oc ->
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s\n\
           {\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"trace_id\":\"%s\",\"span_id\":%d,\"parent_id\":%d}}"
          (if i = 0 then "" else ",")
          s.name
          (float_of_int s.start /. 1e3)
          (float_of_int s.dur /. 1e3)
          s.tid s.trace s.id s.parent)
      spans;
    output_string oc "\n]}\n")

(* ------------------------------------------------------------------ *)
(* Perturbation: a busy wait of a fixed number of nanoseconds added to
   every call into one layer, inside the benchmark's own wrapper. It
   shows that the end-to-end metrics see a slower layer, and only on the
   workloads that use it. *)

module Perturb = struct
  type t = { store_ns : int; send_ns : int; query_ns : int }

  let none = { store_ns = 0; send_ns = 0; query_ns = 0 }

  let parse p spec =
    match String.split_on_char ':' spec with
    | [ layer; n ] -> (
        match (layer, int_of_string_opt n) with
        | "store", Some n when n >= 0 -> Some { p with store_ns = n }
        | "send", Some n when n >= 0 -> Some { p with send_ns = n }
        | "query", Some n when n >= 0 -> Some { p with query_ns = n }
        | _ -> None)
    | _ -> None

  let spin ns =
    let stop = now_ns () + ns in
    while now_ns () < stop do
      ()
    done

  let hook p (h : Dpc_engine.Prov_hook.t) : Dpc_engine.Prov_hook.t =
    if p.store_ns = 0 then h
    else
      let ns = p.store_ns in
      {
        h with
        on_input = (fun ~node event -> spin ns; h.on_input ~node event);
        on_fire = (fun ~node ~rule ~event ~slow ~head meta -> spin ns; h.on_fire ~node ~rule ~event ~slow ~head meta);
        on_output = (fun ~node tuple meta -> spin ns; h.on_output ~node tuple meta);
        on_slow_update = (fun ~node ~op tuple -> spin ns; h.on_slow_update ~node ~op tuple);
      }

  let transport p (inner : Dpc_net.Transport.t) : Dpc_net.Transport.t =
    if p.send_ns = 0 then inner
    else
      let module I = (val inner) in
      let ns = p.send_ns in
      (module struct
        include I

        let send ~src ~dst ~bytes f = spin ns; I.send ~src ~dst ~bytes f
        let broadcast ~src ~bytes f = spin ns; I.broadcast ~src ~bytes f
      end)

  let query p f = if p.query_ns = 0 then f () else (spin p.query_ns; f ())
end
