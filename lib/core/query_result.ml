type t = {
  trees : Prov_tree.t list;
  latency : float;
  entries : int;
  bytes : int;
  rederives : int;
  hop_s : float;
  downs : int;
  complete : bool;
}

let dedup_trees trees = List.sort_uniq Prov_tree.compare trees

(* ------------------------------------------------------------------ *)
(* Pagination: bounded chunks of the canonical tree ordering.

   The canonical order is [Prov_tree.compare] — the same total order
   [dedup_trees] already leaves results in — so page boundaries are a
   pure function of the tree set, not of traversal accidents. A cursor
   names the last tree of the previous page by content digest, which
   makes it replayable across restarts: rebuild the result (from the
   store, the WAL, or a checkpoint), and the digest still identifies the
   same position as long as the tree set is unchanged. *)

type page = {
  page_trees : Prov_tree.t list;
  next_cursor : string option;
  page_total : int;
}

let cursor_prefix = "dpc-cursor-v1:"

let cursor_of_tree tree =
  cursor_prefix ^ Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string (Prov_tree.to_string tree))

let rec take n = function
  | [] -> ([], [])
  | x :: rest when n > 0 ->
      let page, beyond = take (n - 1) rest in
      (x :: page, beyond)
  | rest -> ([], rest)

let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false

let paginate ?cursor ~limit trees =
  if limit < 1 then invalid_arg "Query_result.paginate: limit must be positive";
  let trees = dedup_trees trees in
  let total = List.length trees in
  let remaining =
    match cursor with
    | None -> trees
    | Some c ->
        if not (String.length c > String.length cursor_prefix && String.sub c 0 (String.length cursor_prefix) = cursor_prefix)
        then invalid_arg "Query_result.paginate: malformed cursor";
        (* Start-after semantics: drop everything up to and including the
           named tree. A cursor that names no current tree is stale
           (different result set) — surface it rather than silently
           restarting from the top. *)
        let rec after = function
          | [] -> invalid_arg "Query_result.paginate: unknown or stale cursor"
          | tree :: rest -> if cursor_of_tree tree = c then rest else after rest
        in
        after trees
  in
  let page_trees, beyond = take limit remaining in
  let next_cursor =
    match (page_trees, beyond) with
    | _, [] -> None
    | [], _ -> None
    | _ -> Some (cursor_of_tree (last page_trees))
  in
  { page_trees; next_cursor; page_total = total }

module For_testing = struct
  let paginate = paginate
end
