type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* newest first *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let title t = t.title
let columns t = t.columns
let rows t = List.rev t.rows

let widths t =
  let update ws row =
    List.map2 (fun w cell -> max w (String.length cell)) ws row
  in
  List.fold_left update
    (List.map String.length t.columns)
    (List.rev t.rows)

let render t =
  let ws = widths t in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) ws) ^ "+"
  in
  let row cells =
    "| " ^ String.concat " | " (List.map2 pad ws cells) ^ " |"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (row t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (row r);
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.add_string buf (line '-');
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_field s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
  in
  if needs_quote then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let line cells = String.concat "," (List.map csv_field cells) in
  String.concat "\n" (line t.columns :: List.map line (List.rev t.rows))

let cell_float x = Printf.sprintf "%.3f" x

