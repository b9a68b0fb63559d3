let task_symbol i =
  if i < 1 then '?'
  else if i <= 9 then Char.chr (Char.code '0' + i)
  else if i <= 9 + 26 then Char.chr (Char.code 'a' + i - 10)
  else '#'

type row = { label : string; cells : Bytes.t }

let paint ~scale row intervals =
  List.iter
    (fun { Intervals.start; duration; tag } ->
      let col_start = start / scale in
      let col_end = (start + duration - 1) / scale in
      for col = col_start to min col_end (Bytes.length row.cells - 1) do
        if col >= 0 && Bytes.get row.cells col = '.' then
          Bytes.set row.cells col (task_symbol tag)
      done)
    intervals

let ruler ~scale ~columns =
  let b = Bytes.make columns ' ' in
  let mark = ref 0 in
  while !mark / scale < columns do
    let col = !mark / scale in
    let s = string_of_int !mark in
    if col + String.length s <= columns then
      String.iteri (fun j ch -> Bytes.set b (col + j) ch) s;
    mark := !mark + (10 * scale)
  done;
  Bytes.to_string b

let assemble ~scale ~columns rows =
  let label_width =
    List.fold_left (fun acc r -> max acc (String.length r.label)) 0 rows
  in
  let pad s = s ^ String.make (label_width - String.length s) ' ' in
  let line r = pad r.label ^ " |" ^ Bytes.to_string r.cells ^ "|" in
  let header = String.make label_width ' ' ^ "  " ^ ruler ~scale ~columns in
  String.concat "\n" (header :: List.map line rows)

let plan_scale ~width horizon =
  let horizon = max horizon 1 in
  let scale = (horizon + width - 1) / width in
  let scale = max scale 1 in
  (scale, (horizon + scale - 1) / scale)

let render ?(width = 100) ~horizon lanes =
  let scale, columns = plan_scale ~width horizon in
  let rows =
    List.map
      (fun { Intervals.label; intervals } ->
        let row = { label; cells = Bytes.make columns '.' } in
        paint ~scale row intervals;
        row)
      lanes
  in
  assemble ~scale ~columns rows
