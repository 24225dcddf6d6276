(** ASCII table and horizontal-bar-chart rendering for the benchmark harness.
    The harness prints the same rows/series the paper's figures plot. *)

type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

(** [render ~headers rows] lays out [rows] under [headers] with column
    auto-sizing. The first column is left-aligned, the rest right-aligned. *)
let render ~headers rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let emit_row row =
    List.iteri (fun i cell ->
        let align = if i = 0 then Left else Right in
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad align widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

(** Horizontal bar chart: one [(label, value)] per row, scaled to [width]
    characters at [vmax] (computed from the data when omitted). *)
let bars ?(width = 50) ?vmax rows =
  let vmax =
    match vmax with
    | Some v -> v
    | None -> List.fold_left (fun acc (_, v) -> Float.max acc v) 1e-9 rows
  in
  let lw = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows in
  let buf = Buffer.create 1024 in
  List.iter (fun (label, v) ->
      let n =
        if vmax <= 0.0 then 0
        else int_of_float (Float.round (v /. vmax *. float_of_int width))
      in
      let n = max 0 (min width n) in
      Buffer.add_string buf (pad Left lw label);
      Buffer.add_string buf " |";
      Buffer.add_string buf (String.make n '#');
      Buffer.add_string buf (Printf.sprintf " %.2f\n" v))
    rows;
  Buffer.contents buf

let pct f = Printf.sprintf "%.1f%%" f

let f2 f = Printf.sprintf "%.2f" f

(* RFC 4180: a field holding a comma, a quote or a newline is quoted,
   its quotes doubled *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv ~headers rows =
  let line cells = String.concat "," (List.map csv_field cells) ^ "\n" in
  String.concat "" (line headers :: List.map line rows)
