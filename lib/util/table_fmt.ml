let normalize width row =
  let len = List.length row in
  if len >= width then List.filteri (fun i _ -> i < width) row
  else row @ List.init (width - len) (fun _ -> "")

let render ~header ~rows =
  let width = List.length header in
  let rows = List.map (normalize width) rows in
  let cells = header :: rows in
  let col_width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 cells
  in
  let widths = List.init width col_width in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let line row =
    String.concat "  " (List.map2 pad widths row)
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let print ~header ~rows = print_endline (render ~header ~rows)

let human_bytes n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2f GB" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f MB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.2f KB" (f /. 1e3)
  else Printf.sprintf "%d B" n

let human_rate r =
  if r >= 1e9 then Printf.sprintf "%.2f GB/s" (r /. 1e9)
  else if r >= 1e6 then Printf.sprintf "%.2f MB/s" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%.2f KB/s" (r /. 1e3)
  else Printf.sprintf "%.1f B/s" r

module For_testing = struct
  let render = render
end
