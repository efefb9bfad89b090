type clock = { mutable now : float }

let idle () = ()

type t = {
  mutable times : Float.Array.t;
  (* The tie-breaker at equal times: assigned by [push], or the caller's
     key under [push_keyed]. *)
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; actions = [||]; size = 0; next_seq = 0 }

let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let capacity = max 16 (2 * Array.length q.seqs) in
  let times = Float.Array.create capacity in
  Float.Array.blit q.times 0 times 0 q.size;
  let seqs = Array.make capacity 0 in
  Array.blit q.seqs 0 seqs 0 q.size;
  let actions = Array.make capacity idle in
  Array.blit q.actions 0 actions 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.actions <- actions

let move q ~src ~dst =
  Float.Array.unsafe_set q.times dst (Float.Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.actions dst (Array.unsafe_get q.actions src)

(* Both sifts move a hole instead of swapping, and place the element once
   at the end. A new element's seq exceeds every queued one, so sifting it
   up only has to beat its parent's time. *)
let push q at action =
  if q.size = Array.length q.seqs then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let hole = ref q.size in
  q.size <- q.size + 1;
  while
    !hole > 0
    && at < Float.Array.unsafe_get q.times ((!hole - 1) / 2)
  do
    let parent = (!hole - 1) / 2 in
    move q ~src:parent ~dst:!hole;
    hole := parent
  done;
  Float.Array.unsafe_set q.times !hole at;
  Array.unsafe_set q.seqs !hole seq;
  Array.unsafe_set q.actions !hole action

(* Whether an element [(at, key)] comes before the one in slot [i]. *)
let precedes q at key i =
  let ti = Float.Array.unsafe_get q.times i in
  at < ti || (at = ti && key < Array.unsafe_get q.seqs i)

(* A caller's key may be below its parent's at an equal time, so this
   sift compares (time, key) all the way up. *)
let push_keyed q at key action =
  if q.size = Array.length q.seqs then grow q;
  let hole = ref q.size in
  q.size <- q.size + 1;
  while !hole > 0 && precedes q at key ((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    move q ~src:parent ~dst:!hole;
    hole := parent
  done;
  Float.Array.unsafe_set q.times !hole at;
  Array.unsafe_set q.seqs !hole key;
  Array.unsafe_set q.actions !hole action

let due q ~until = q.size > 0 && Float.Array.unsafe_get q.times 0 < until

let next_time q = if q.size = 0 then infinity else Float.Array.unsafe_get q.times 0

let before q i j =
  let ti = Float.Array.unsafe_get q.times i and tj = Float.Array.unsafe_get q.times j in
  ti < tj || (ti = tj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

let pop q clock =
  if q.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let at = Float.Array.unsafe_get q.times 0 in
  let action = Array.unsafe_get q.actions 0 in
  if at > clock.now then clock.now <- at;
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    (* Sift the hole at the root down to where the last element fits. *)
    let hole = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !hole) + 1 in
      if l >= last then settled := true
      else begin
        let r = l + 1 in
        let child = if r < last && before q r l then r else l in
        if before q child last then begin
          move q ~src:child ~dst:!hole;
          hole := child
        end
        else settled := true
      end
    done;
    move q ~src:last ~dst:!hole
  end;
  (* Drop the vacated slot's reference so the queue never keeps a fired
     action's closure alive. *)
  Array.unsafe_set q.actions last idle;
  action

module For_testing = struct
  let length = length
  let is_empty = is_empty
end
