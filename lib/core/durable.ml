module S = Dpc_util.Serialize
module Metrics = Dpc_util.Metrics
module Rng = Dpc_util.Rng
module Clock = Dpc_util.Clock
module Node = Dpc_engine.Node
module Db = Dpc_engine.Db
module Runtime = Dpc_engine.Runtime
module Journal = Dpc_engine.Journal
module Transport = Dpc_net.Transport
module Reliable = Dpc_net.Reliable

type config = { checkpoint_every : int; rebase_every : int }

let default_config = { checkpoint_every = 64; rebase_every = 8 }

(* Real-disk plumbing. The durability target is crash-stop of the
   PROCESS (kill -9), not power loss: a completed [write] survives the
   process because the page cache belongs to the kernel, so "durable"
   here means written, not fsynced. Upgrading to power-failure
   durability is one fsync per flush point, in exactly these spots. *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Atomic file replacement: full content to a temp name, then rename.
   Readers see the old version or the new one, never a torn middle. *)
let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> write_all fd contents);
  Sys.rename tmp path

let read_file path = In_channel.with_open_bin path In_channel.input_all

module Outbox = struct
  (* The persist-before-send ledger: a [Send] record reaches this file
     before the frame's first transmission, so an outgoing message can
     never be lost to a sender crash — on restart the unacked tail is
     re-offered and the receiver's dedup window absorbs any overlap.
     [Ack] records let compaction drop delivered payloads; [Mark]
     records survive compaction as the per-channel sequence summary
     (without them a compacted ledger would forget how many sends ever
     existed, and recovery could re-issue a used sequence number). *)

  type chan = {
    mutable recorded : int;  (* highest sequence ever written for this dst *)
    mutable acked : int;  (* highest cumulatively acknowledged sequence *)
    pending : (int, string) Hashtbl.t;  (* recorded, not yet acked *)
  }

  type t = {
    path : string;
    mutable fd : Unix.file_descr;
    chans : (int, chan) Hashtbl.t;
    mutable bytes : int;
  }

  let magic = "dpc-outbox-v1"

  let chan_of t dst =
    match Hashtbl.find_opt t.chans dst with
    | Some c -> c
    | None ->
        let c = { recorded = 0; acked = 0; pending = Hashtbl.create 8 } in
        Hashtbl.replace t.chans dst c;
        c

  let drop_acked c upto =
    Hashtbl.filter_map_inplace
      (fun seq payload -> if seq <= upto then None else Some payload)
      c.pending

  let apply_send t dst seq payload =
    let c = chan_of t dst in
    if seq > c.recorded then c.recorded <- seq;
    if seq > c.acked then Hashtbl.replace c.pending seq payload

  let apply_ack t dst seq =
    let c = chan_of t dst in
    if seq > c.acked then begin
      c.acked <- seq;
      drop_acked c seq
    end

  let apply_mark t dst recorded acked =
    let c = chan_of t dst in
    if recorded > c.recorded then c.recorded <- recorded;
    if acked > c.acked then begin
      c.acked <- acked;
      drop_acked c acked
    end

  let read_record t r =
    match S.read_varint r with
    | 0 ->
        let dst = S.read_varint r in
        let seq = S.read_varint r in
        let payload = S.read_string r in
        apply_send t dst seq payload
    | 1 ->
        let dst = S.read_varint r in
        let seq = S.read_varint r in
        apply_ack t dst seq
    | 2 ->
        let dst = S.read_varint r in
        let recorded = S.read_varint r in
        let acked = S.read_varint r in
        apply_mark t dst recorded acked
    | tag -> raise (S.Corrupt (Printf.sprintf "outbox: unknown record tag %d" tag))

  (* Apply the records after the header; whether a torn record stopped
     the read. A kill can tear the last record mid-write; everything after
     the first undecodable byte was never acknowledged to anyone (the
     record had not finished persisting, so the frame never went out) and
     is safely dropped. *)
  let read_records t path contents =
    let r = S.reader contents in
    (match S.read_string r with
    | m when m = magic -> ()
    | m -> raise (S.Corrupt (Printf.sprintf "outbox: bad magic %S in %s" m path))
    | exception S.Corrupt _ ->
        raise (S.Corrupt (Printf.sprintf "outbox: unreadable header in %s" path)));
    try
      while not (S.at_end r) do
        read_record t r
      done;
      false
    with S.Corrupt _ -> true

  let append t blob =
    write_all t.fd blob;
    t.bytes <- t.bytes + String.length blob

  let record_send t ~dst ~seq payload =
    apply_send t dst seq payload;
    append t
      (S.with_scratch (fun w ->
           S.write_varint w 0;
           S.write_varint w dst;
           S.write_varint w seq;
           S.write_string w payload))

  let record_ack t ~dst ~seq =
    if seq > (chan_of t dst).acked then begin
      apply_ack t dst seq;
      append t
        (S.with_scratch (fun w ->
             S.write_varint w 1;
             S.write_varint w dst;
             S.write_varint w seq))
    end

  let pending t =
    Hashtbl.fold
      (fun dst c acc ->
        Hashtbl.fold (fun seq payload acc -> (dst, seq, payload) :: acc) c.pending acc)
      t.chans []
    |> List.sort compare

  let next_seq t ~dst = (chan_of t dst).recorded + 1
  let acked t ~dst = (chan_of t dst).acked
  let size_bytes t = t.bytes

  let compact t =
    let blob =
      S.with_scratch (fun w ->
          S.write_string w magic;
          let dsts = Hashtbl.fold (fun dst _ acc -> dst :: acc) t.chans [] |> List.sort compare in
          List.iter
            (fun dst ->
              let c = chan_of t dst in
              S.write_varint w 2;
              S.write_varint w dst;
              S.write_varint w c.recorded;
              S.write_varint w c.acked;
              Hashtbl.fold (fun seq payload acc -> (seq, payload) :: acc) c.pending []
              |> List.sort compare
              |> List.iter (fun (seq, payload) ->
                     S.write_varint w 0;
                     S.write_varint w dst;
                     S.write_varint w seq;
                     S.write_string w payload))
            dsts)
    in
    Unix.close t.fd;
    write_file_atomic t.path blob;
    t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
    t.bytes <- String.length blob

  let open_ ~dir =
    let path = Filename.concat dir "outbox.log" in
    let t = { path; fd = Unix.stdin; chans = Hashtbl.create 8; bytes = 0 } in
    let contents = if Sys.file_exists path then read_file path else "" in
    let torn = contents <> "" && read_records t path contents in
    t.bytes <- String.length contents;
    t.fd <- Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
    if t.bytes = 0 then begin
      let header = S.with_scratch (fun w -> S.write_string w magic) in
      write_all t.fd header;
      t.bytes <- String.length header
    end
    else if torn then
      (* Records appended after the torn bytes would be lost to the next
         load, which stops there: rewrite the ledger from its valid
         prefix first. *)
      compact t;
    t

  let close t = try Unix.close t.fd with _ -> ()

  module For_testing = struct
    let open_ = open_
    let acked = acked
    let close = close
  end
end

(* What a node needs to come back: the store tables, the slow-table
   database, and its reliable-channel sequence state, all as of the same
   boundary. A delta cut carries the store and db CHANGES since the
   previous cut; only the channel snapshot (O(channels) sequence
   numbers, not O(state)) is always full. *)
type checkpoint = { store : string; db : string; channels : string option }

(* One node's on-disk mirror: cut files + a write-ahead log named by
   epoch, tied together by an atomically-replaced manifest. The manifest
   rename is the commit point of a compaction; every other file write
   happens strictly before it, so a crash at any instant leaves either
   the old (cuts, wal) generation or the new one fully intact. *)
type disk = {
  dir : string;
  mutable wal_fd : Unix.file_descr;
  mutable epoch : int;  (* names the live wal file, wal-<epoch>.log *)
  mutable base_id : int;  (* cut id of the full checkpoint; -1 before the first *)
  mutable delta_ids : int list;  (* oldest first *)
  mutable next_cut : int;
  outbox : Outbox.t;
}

type node_log = {
  mutable checkpoint : checkpoint option;  (* last full (base) cut *)
  mutable deltas : checkpoint list;  (* delta cuts since the base, newest first *)
  (* The journal since the last cut: one append-only buffer per node.
     Bytes below [flushed] are the wal; the rest is the open group, the
     entries of the current top-level operation. Group commit: the next
     boundary (or a crash/checkpoint) closes the group by advancing
     [flushed] — one metrics tick, and in disk mode one write, per
     operation instead of per entry. A cut empties the buffer. *)
  wal : S.writer;
  mutable flushed : int;
  mutable wal_entries : int;
  mutable boundaries : int;  (* boundary entries currently in the wal *)
  (* Durable counters: they live here, not in the node registry, so a
     crash cannot erase them; [rematerialize] copies them back into the
     wiped registry so metric snapshots stay complete. *)
  mutable crashes : int;
  mutable wal_bytes : int;  (* cumulative bytes ever appended (incl. pending) *)
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;  (* cumulative serialized cut bytes *)
  mutable delta_cuts : int;  (* how many of [checkpoints] were deltas *)
  mutable delta_bytes : int;  (* their share of [checkpoint_bytes] *)
  (* Recovery time accumulates as a float and is rounded ONCE at each
     read: summing per-recovery ceilings would overstate a node that
     recovers many times by up to a millisecond each. [recovery_ms_ticked]
     is what the metrics registry has already been told, so ticks carry
     only the rounded delta. *)
  mutable recovery_s : float;
  mutable recovery_ms_ticked : int;
  mutable queries_degraded : int;
  mutable disk : disk option;
}

type node_stats = {
  crashes : int;
  wal_bytes : int;
  wal_entries : int;
  checkpoints : int;
  checkpoint_bytes : int;
  delta_cuts : int;
  delta_bytes : int;
  recovery_ms : int;
  queries_degraded : int;
}

(* Where the nodes' channel sequence state lives: the runtime's
   [Reliable] link, or the transport of a host that has none
   ({!set_channel_state}). Cuts, restores, replays and crashes all go
   through it. *)
type channels = {
  snapshot : int -> string option;
  restore : int -> string -> unit;
  next_seq : node:int -> peer:int -> seq:int -> unit;
  expected : node:int -> peer:int -> seq:int -> unit;
  forget : int -> unit;
}

let no_channels =
  {
    snapshot = (fun _ -> None);
    restore = (fun _ _ -> ());
    next_seq = (fun ~node:_ ~peer:_ ~seq:_ -> ());
    expected = (fun ~node:_ ~peer:_ ~seq:_ -> ());
    forget = ignore;
  }

let link_channels r =
  {
    snapshot = (fun node -> Some (Reliable.snapshot r ~node));
    restore = (fun node blob -> Reliable.restore r ~node blob);
    next_seq = (fun ~node ~peer ~seq -> Reliable.set_next_seq r ~src:node ~dst:peer seq);
    expected = (fun ~node ~peer ~seq -> Reliable.set_expected r ~src:peer ~dst:node seq);
    forget = (fun node -> Reliable.forget r ~node);
  }

type t = {
  backend : Backend.t;
  runtime : Runtime.t;
  control : Transport.crash_control;
  config : config;
  logs : node_log array;
  from_disk : bool array;
      (* Nodes whose log was loaded from an existing on-disk state at
         attach; their volatile state is rebuilt by {!recover}, not
         sealed into a fresh checkpoint 0. *)
  mutable channels : channels;
  recovering : bool array;
      (* Recovery replays the journal through the same code paths that
         produced it; this per-node flag keeps those paths from appending
         the entries a second time. Per-node rather than global: on a
         sharded transport one node's recovery must not suppress the
         journaling of live nodes on other shards. *)
}

let fresh_log () =
  {
    checkpoint = None;
    deltas = [];
    wal = S.writer ();
    flushed = 0;
    wal_entries = 0;
    boundaries = 0;
    crashes = 0;
    wal_bytes = 0;
    checkpoints = 0;
    checkpoint_bytes = 0;
    delta_cuts = 0;
    delta_bytes = 0;
    recovery_s = 0.0;
    recovery_ms_ticked = 0;
    queries_degraded = 0;
    disk = None;
  }

(* ---- the on-disk format (dpc-manifest-v1 / dpc-cut-v1) --------------- *)

let manifest_magic = "dpc-manifest-v1"
let cut_magic = "dpc-cut-v1"
let wal_path dir epoch = Filename.concat dir (Printf.sprintf "wal-%d.log" epoch)
let cut_path dir id = Filename.concat dir (Printf.sprintf "cut-%d.bin" id)
let manifest_path dir = Filename.concat dir "manifest"

let encode_manifest ~epoch ~base ~deltas =
  S.with_scratch (fun w ->
      S.write_string w manifest_magic;
      S.write_varint w epoch;
      S.write_varint w base;
      S.write_list w (S.write_varint w) deltas)

let decode_manifest blob =
  let r = S.reader blob in
  let m = S.read_string r in
  if m <> manifest_magic then raise (S.Corrupt (Printf.sprintf "manifest: bad magic %S" m));
  let epoch = S.read_varint r in
  let base_id = S.read_varint r in
  let delta_ids = S.read_list r (fun () -> S.read_varint r) in
  S.expect_end r "manifest";
  (epoch, base_id, delta_ids)

let write_manifest d =
  write_file_atomic (manifest_path d.dir)
    (encode_manifest ~epoch:d.epoch ~base:d.base_id ~deltas:d.delta_ids)

let read_manifest dir = decode_manifest (read_file (manifest_path dir))

let encode_cut ~is_delta (c : checkpoint) =
  S.with_scratch (fun w ->
      S.write_string w cut_magic;
      S.write_bool w is_delta;
      S.write_string w c.store;
      S.write_string w c.db;
      match c.channels with
      | None -> S.write_bool w false
      | Some s ->
          S.write_bool w true;
          S.write_string w s)

let decode_cut blob =
  let r = S.reader blob in
  let m = S.read_string r in
  if m <> cut_magic then raise (S.Corrupt (Printf.sprintf "cut: bad magic %S" m));
  let is_delta = S.read_bool r in
  let store = S.read_string r in
  let db = S.read_string r in
  let channels = if S.read_bool r then Some (S.read_string r) else None in
  S.expect_end r "cut";
  (is_delta, { store; db; channels })

let write_cut dir id ~is_delta c = write_file_atomic (cut_path dir id) (encode_cut ~is_delta c)

(* A cut the manifest names but the directory lacks, or that cannot be
   read, is a damaged state like an undecodable one. *)
let read_cut dir id =
  match read_file (cut_path dir id) with
  | blob -> decode_cut blob
  | exception Sys_error e -> raise (S.Corrupt (Printf.sprintf "manifest names cut %d: %s" id e))

(* Drop files a crash between manifest commit and cleanup left behind. *)
let sweep_unreferenced d =
  let referenced name =
    name = "manifest" || name = "outbox.log"
    || name = Filename.basename (wal_path d.dir d.epoch)
    || List.exists
         (fun id -> name = Filename.basename (cut_path d.dir id))
         (d.base_id :: d.delta_ids)
  in
  Array.iter
    (fun name ->
      let is_ours =
        String.length name >= 4
        && (String.sub name 0 4 = "cut-" || String.sub name 0 4 = "wal-"
           || Filename.check_suffix name ".tmp")
      in
      if is_ours && not (referenced name) then
        try Unix.unlink (Filename.concat d.dir name) with _ -> ())
    (Sys.readdir d.dir)

let metrics t node = Node.metrics (Runtime.node t.runtime node)

let recovery_ms_of log = int_of_float (ceil (log.recovery_s *. 1000.))

let open_bytes (log : node_log) = S.size log.wal - log.flushed

(* Close the open entry group: one metrics tick, and in disk mode one
   write of the group's byte range. *)
let flush_group t node =
  let log = t.logs.(node) in
  let len = open_bytes log in
  if len > 0 then begin
    (match log.disk with
    | None -> ()
    | Some d -> write_all d.wal_fd (S.sub log.wal log.flushed len));
    log.flushed <- log.flushed + len;
    Metrics.add (metrics t node) "crash.wal_bytes" len
  end

let cut_bytes c =
  String.length c.store + String.length c.db
  + match c.channels with Some s -> String.length s | None -> 0

(* A cut is a DELTA while a base exists and fewer than [rebase_every - 1]
   deltas follow it; the next cut after that rebases to a fresh full
   checkpoint, bounding recovery to one base + (rebase_every - 1) deltas
   + the wal. [rebase_every <= 1] means every cut is full. *)
let take_checkpoint t node =
  flush_group t node;
  let log = t.logs.(node) in
  let channels = t.channels.snapshot node in
  let as_delta =
    log.checkpoint <> None
    && t.config.rebase_every > 1
    && List.length log.deltas < t.config.rebase_every - 1
  in
  let db =
    let d = Runtime.db t.runtime node in
    if as_delta then Db.snapshot_delta d else Db.snapshot d
  in
  let cut =
    if as_delta then begin
      let c = { store = Backend.checkpoint_delta t.backend node; db; channels } in
      log.deltas <- c :: log.deltas;
      c
    end
    else begin
      let c = { store = Backend.checkpoint_node t.backend node; db; channels } in
      log.checkpoint <- Some c;
      log.deltas <- [];
      c
    end
  in
  (match log.disk with
  | None -> ()
  | Some d ->
      (* Commit protocol: cut file and fresh wal first, manifest rename
         second (the commit point), fd switch and cleanup last. A crash
         before the rename leaves the previous generation complete — the
         old wal file was never touched; one after it leaves stray files
         that [sweep_unreferenced] collects on the next load. *)
      let id = d.next_cut in
      d.next_cut <- id + 1;
      write_cut d.dir id ~is_delta:as_delta cut;
      let old_epoch = d.epoch in
      let old_base = d.base_id in
      let old_deltas = d.delta_ids in
      let epoch = d.epoch + 1 in
      let fd =
        Unix.openfile (wal_path d.dir epoch) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      if as_delta then d.delta_ids <- d.delta_ids @ [ id ] else begin
        d.base_id <- id;
        d.delta_ids <- []
      end;
      d.epoch <- epoch;
      write_manifest d;
      (try Unix.close d.wal_fd with _ -> ());
      d.wal_fd <- fd;
      (try Unix.unlink (wal_path d.dir old_epoch) with _ -> ());
      if not as_delta then
        List.iter
          (fun old -> if old >= 0 then try Unix.unlink (cut_path d.dir old) with _ -> ())
          (old_base :: old_deltas));
  S.reset log.wal;
  log.flushed <- 0;
  log.wal_entries <- 0;
  log.boundaries <- 0;
  log.checkpoints <- log.checkpoints + 1;
  let bytes = cut_bytes cut in
  log.checkpoint_bytes <- log.checkpoint_bytes + bytes;
  if as_delta then begin
    log.delta_cuts <- log.delta_cuts + 1;
    log.delta_bytes <- log.delta_bytes + bytes
  end;
  let m = metrics t node in
  Metrics.incr m "crash.checkpoints";
  Metrics.add m "crash.checkpoint_bytes" bytes

let count_entry (log : node_log) before =
  log.wal_entries <- log.wal_entries + 1;
  log.wal_bytes <- log.wal_bytes + (S.size log.wal - before)

(* WAL-then-apply: called before the entry's effects. A boundary entry
   marks the start of a fresh top-level operation — everything before it
   has fully applied — so the open group is flushed and compaction cuts
   the checkpoint just BEFORE buffering it: the checkpoint covers the old
   wal, the new wal starts with this entry's group. *)
let append t node entry =
  if not t.recovering.(node) then begin
    let log = t.logs.(node) in
    if Journal.is_boundary entry then begin
      flush_group t node;
      if t.config.checkpoint_every > 0 && log.boundaries >= t.config.checkpoint_every
      then take_checkpoint t node;
      log.boundaries <- log.boundaries + 1
    end;
    let before = S.size log.wal in
    Journal.write log.wal entry;
    count_entry log before
  end

(* A reliable-channel sequence advance, straight into the owning node's
   open group as the bytes of its [Next_seq]/[Expected] journal entry.
   Neither is a boundary. *)
let on_seq_advance t (field : Reliable.seq_field) ~src ~dst ~seq =
  let node = match field with Next_seq -> src | Expected -> dst in
  if not t.recovering.(node) then begin
    let log = t.logs.(node) in
    let before = S.size log.wal in
    (match field with
    | Next_seq -> Journal.write_next_seq log.wal ~peer:dst ~seq
    | Expected -> Journal.write_expected log.wal ~peer:src ~seq);
    count_entry log before
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Rebuild a node's in-memory log from its directory. The wal's valid
   prefix is kept and the file is rewritten clean before reopening for
   append — a torn tail (the kill landed mid-write) was never covered by
   an outgoing ack, so dropping it loses nothing anyone was promised. *)
let load_disk_state t node dir =
  let log = t.logs.(node) in
  let epoch, base_id, delta_ids = read_manifest dir in
  let base =
    let is_delta, c = read_cut dir base_id in
    if is_delta then raise (S.Corrupt (Printf.sprintf "manifest base cut %d is a delta" base_id));
    c
  in
  let deltas =
    List.map
      (fun id ->
        let is_delta, c = read_cut dir id in
        if not is_delta then
          raise (S.Corrupt (Printf.sprintf "manifest delta cut %d is a full checkpoint" id));
        c)
      delta_ids
  in
  log.checkpoint <- Some base;
  log.deltas <- List.rev deltas;
  let wpath = wal_path dir epoch in
  let entries =
    if Sys.file_exists wpath then begin
      let r = S.reader (read_file wpath) in
      let acc = ref [] in
      (try
         while not (S.at_end r) do
           acc := Journal.read r :: !acc
         done
       with S.Corrupt _ -> ());
      List.rev !acc
    end
    else []
  in
  List.iter (Journal.write log.wal) entries;
  log.flushed <- S.size log.wal;
  write_file_atomic wpath (S.contents log.wal);
  log.wal_entries <- List.length entries;
  log.boundaries <- List.length (List.filter Journal.is_boundary entries);
  log.wal_bytes <- log.flushed;
  log.checkpoints <- 1 + List.length delta_ids;
  let d =
    {
      dir;
      wal_fd = Unix.openfile wpath [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
      epoch;
      base_id;
      delta_ids;
      next_cut = 1 + List.fold_left max base_id delta_ids;
      outbox = Outbox.open_ ~dir;
    }
  in
  log.disk <- Some d;
  sweep_unreferenced d

let init_disk_state t node dir =
  mkdir_p dir;
  let d =
    {
      dir;
      wal_fd = Unix.openfile (wal_path dir 0) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644;
      epoch = 0;
      base_id = -1;
      delta_ids = [];
      next_cut = 0;
      outbox = Outbox.open_ ~dir;
    }
  in
  t.logs.(node).disk <- Some d

let attach ~backend ~runtime ~control ?(config = default_config) ?disk
    ?(disk_nodes = fun _ -> true) () =
  if config.checkpoint_every < 0 then
    invalid_arg "Durable.attach: checkpoint_every must be non-negative";
  if config.rebase_every < 0 then
    invalid_arg "Durable.attach: rebase_every must be non-negative";
  let n = Array.length (Runtime.nodes runtime) in
  let t =
    {
      backend;
      runtime;
      control;
      config;
      logs = Array.init n (fun _ -> fresh_log ());
      from_disk = Array.make n false;
      channels =
        (match Runtime.reliability runtime with Some r -> link_channels r | None -> no_channels);
      recovering = Array.make n false;
    }
  in
  (match disk with
  | None -> ()
  | Some root ->
      mkdir_p root;
      Array.iteri
        (fun node _ ->
          if disk_nodes node then begin
            let dir = Filename.concat root (Printf.sprintf "node-%d" node) in
            if Sys.file_exists (manifest_path dir) then begin
              load_disk_state t node dir;
              t.from_disk.(node) <- true
            end
            else init_disk_state t node dir
          end)
        (Runtime.nodes runtime));
  Runtime.set_journal runtime (fun ~node entry -> append t node entry);
  (* Degraded queries count into the durable log like every other
     [crash.*] statistic: the registry tick alone would vanish if the
     QUERIER itself crashed later. [rematerialize] copies it back. *)
  Backend.set_degraded_sink backend (fun querier ->
    let log = t.logs.(querier) in
    log.queries_degraded <- log.queries_degraded + 1;
    Metrics.incr (metrics t querier) "crash.queries_degraded");
  (match Runtime.reliability runtime with
  | None -> ()
  | Some r ->
      Reliable.set_persist r (fun field ~src ~dst ~seq -> on_seq_advance t field ~src ~dst ~seq));
  Runtime.set_availability runtime control.Transport.is_up;
  (* Dirty tracking must be live BEFORE the first cut so every write
     after checkpoint 0 lands in some delta — both the provenance stores
     and each node's relational db. *)
  if config.rebase_every > 1 then begin
    Backend.set_dirty_tracking backend true;
    Array.iteri
      (fun node _ -> Db.set_dirty_tracking (Runtime.db runtime node) true)
      (Runtime.nodes runtime)
  end;
  (* Seal the pre-attach state (slow tables loaded at build time, empty
     stores) into checkpoint 0, so recovery never depends on journal
     entries from before the journal existed. Nodes loaded from disk
     keep their existing generation — their volatile state is rebuilt by
     {!recover}, and cutting a fresh checkpoint of the still-empty world
     here would overwrite it. *)
  Array.iteri
    (fun node _ -> if not t.from_disk.(node) then take_checkpoint t node)
    (Runtime.nodes runtime);
  t

let is_up t node = t.control.Transport.is_up node

let rematerialize t node =
  let m = metrics t node in
  let log = t.logs.(node) in
  if log.crashes > 0 then Metrics.add m "crash.crashes" log.crashes;
  (* Bytes still sitting in the open group have not been ticked yet; the
     registry stays behind by exactly that much until the next flush. *)
  let ticked_wal = log.wal_bytes - open_bytes log in
  if ticked_wal > 0 then Metrics.add m "crash.wal_bytes" ticked_wal;
  if log.checkpoints > 0 then Metrics.add m "crash.checkpoints" log.checkpoints;
  if log.checkpoint_bytes > 0 then Metrics.add m "crash.checkpoint_bytes" log.checkpoint_bytes;
  if log.recovery_ms_ticked > 0 then Metrics.add m "crash.recovery_ms" log.recovery_ms_ticked;
  if log.queries_degraded > 0 then
    Metrics.add m "crash.queries_degraded" log.queries_degraded

let crash t node =
  if is_up t node then begin
    (* The open group reaches the wal before the node state dies — the
       simulated WAL is durable, the group buffer is just batching. *)
    flush_group t node;
    t.control.Transport.crash node;
    Node.reset (Runtime.node t.runtime node);
    t.channels.forget node;
    let log = t.logs.(node) in
    log.crashes <- log.crashes + 1;
    rematerialize t node
  end

(* The wal's channel entries, after the engine's: the setters are
   monotonic, so the newest advance wins whatever the order. Called while
   the node recovers, so none of them is journaled again. *)
let rec restore_seqs t node = function
  | [] -> ()
  | Journal.Next_seq { peer; seq } :: rest ->
      t.channels.next_seq ~node ~peer ~seq;
      restore_seqs t node rest
  | Journal.Expected { peer; seq } :: rest ->
      t.channels.expected ~node ~peer ~seq;
      restore_seqs t node rest
  | _ :: rest -> restore_seqs t node rest

(* The recovery core shared by in-process [restart] and real-process
   [recover]: restore the newest cut chain, replay the wal tail, then
   restore the channel sequence state it journaled. *)
let rebuild t node =
  let log = t.logs.(node) in
  t.recovering.(node) <- true;
  Fun.protect
    ~finally:(fun () -> t.recovering.(node) <- false)
    (fun () ->
      (match log.checkpoint with
      | None -> ()
      | Some base ->
          Backend.restore_node t.backend node base.store;
          (* Store and db: base plus deltas, oldest first. Channels:
             every cut carries a full snapshot, so only the newest
             matters. *)
          let db = Runtime.db t.runtime node in
          Db.load db base.db;
          List.iter
            (fun (d : checkpoint) ->
              Backend.apply_delta t.backend node d.store;
              Db.apply_delta db d.db)
            (List.rev log.deltas);
          let newest = match log.deltas with d :: _ -> d | [] -> base in
          match newest.channels with Some blob -> t.channels.restore node blob | None -> ());
      (* The wal is NOT truncated: a second crash before the next
         compaction replays the same checkpoint plus the same entries
         (and whatever lands after this recovery). *)
      let r = S.reader (S.sub log.wal 0 log.flushed) in
      let entries = ref [] in
      while not (S.at_end r) do
        entries := Journal.read r :: !entries
      done;
      let entries = List.rev !entries in
      Runtime.replay t.runtime ~node entries;
      restore_seqs t node entries)

let tick_recovery t node t0 =
  let log = t.logs.(node) in
  log.recovery_s <- log.recovery_s +. (Clock.now () -. t0);
  let total = recovery_ms_of log in
  if total > log.recovery_ms_ticked then begin
    Metrics.add (metrics t node) "crash.recovery_ms" (total - log.recovery_ms_ticked);
    log.recovery_ms_ticked <- total
  end

let restart t node =
  if not (is_up t node) then begin
    (* Wall clock, NOT [Sys.time]: recovery replays on whatever domain
       runs the shard, and CPU time summed across domains both inflates
       multi-domain recoveries and misses time spent blocked. *)
    let t0 = Clock.now () in
    rebuild t node;
    tick_recovery t node t0;
    (* Reconnect the wire last: no delivery can race the rebuild. *)
    t.control.Transport.restart node
  end

let recovered t node = t.from_disk.(node)

let recover t node =
  let t0 = Clock.now () in
  rebuild t node;
  tick_recovery t node t0

let set_channel_state t ~snapshot ~restore ~next_seq ~expected =
  if Option.is_some (Runtime.reliability t.runtime) then
    invalid_arg "Durable.set_channel_state: the runtime's Reliable link holds the channel state";
  t.channels <- { snapshot; restore; next_seq; expected; forget = ignore }

let journal t node entry = append t node entry
let flush_wal t node = flush_group t node

let wal t node =
  let log = t.logs.(node) in
  S.sub log.wal 0 log.flushed

let outbox t node =
  match t.logs.(node).disk with Some d -> Some d.outbox | None -> None

let checkpoint_now t node =
  if not (is_up t node) then invalid_arg "Durable.checkpoint_now: node is down";
  take_checkpoint t node

let node_stats t node =
  let log = t.logs.(node) in
  {
    crashes = log.crashes;
    wal_bytes = log.wal_bytes;
    wal_entries = log.wal_entries;
    checkpoints = log.checkpoints;
    checkpoint_bytes = log.checkpoint_bytes;
    delta_cuts = log.delta_cuts;
    delta_bytes = log.delta_bytes;
    recovery_ms = recovery_ms_of log;
    queries_degraded = log.queries_degraded;
  }

let schedule_crash t ~node ~at ~downtime =
  if downtime <= 0.0 then invalid_arg "Durable.schedule: downtime must be positive";
  let tr = Runtime.transport t.runtime in
  let delay_to at = Float.max 0.0 (at -. Transport.now tr) in
  (* On the node's own shard: crash wipes and restart rebuilds state that
     shard owns (tables, registry, channel endpoints). *)
  Transport.schedule_on tr ~node ~delay:(delay_to at) (fun () -> crash t node);
  Transport.schedule_on tr ~node ~delay:(delay_to (at +. downtime)) (fun () -> restart t node)

(* Reject any candidate that overlaps a kept outage of the same node —
   INCLUDING a crash at exactly the previous restart instant ([<=], not
   [<]): the crash and the restart would be scheduled for the same
   simulated time, and which fires first is an event-queue tie, not part
   of the schedule's contract. Kept outages are sorted by crash time and
   stable for a given input. *)
let prune_overlaps ~nodes schedule =
  if nodes <= 0 then invalid_arg "Durable.prune_overlaps: need at least one node";
  let by_time = List.sort (fun (_, a, _) (_, b, _) -> compare a b) schedule in
  let busy_until = Array.make nodes Float.neg_infinity in
  List.filter
    (fun (node, at, downtime) ->
      if node < 0 || node >= nodes then
        invalid_arg "Durable.prune_overlaps: node out of range";
      if at <= busy_until.(node) then false
      else begin
        busy_until.(node) <- at +. downtime;
        true
      end)
    by_time

(* Seeded crash schedules: candidates drawn uniformly, then filtered so
   one node's outages never collide. *)
let random_schedule ~seed ~nodes ~count ~horizon ~min_down ~max_down =
  if nodes <= 0 then invalid_arg "Durable.random_schedule: need at least one node";
  if min_down <= 0.0 || max_down < min_down then
    invalid_arg "Durable.random_schedule: need 0 < min_down <= max_down";
  let rng = Rng.create ~seed in
  let candidates =
    List.init count (fun _ ->
        let node = Rng.int rng nodes in
        let at = Rng.float rng horizon in
        let downtime =
          if max_down = min_down then min_down else min_down +. Rng.float rng (max_down -. min_down)
        in
        (node, at, downtime))
  in
  prune_overlaps ~nodes candidates

let schedule t schedule_list =
  List.iter (fun (node, at, downtime) -> schedule_crash t ~node ~at ~downtime) schedule_list

module For_testing = struct
  let encode_manifest = encode_manifest
  let decode_manifest = decode_manifest
  let encode_cut = encode_cut
  let decode_cut = decode_cut
  let wal = wal
  let crash = crash
  let restart = restart
  let prune_overlaps = prune_overlaps
end
