let lane_height = 24
let lane_gap = 6
let label_width = 120
let top_margin = 30

(* Well-spaced hues so neighbouring task indices are easy to tell apart. *)
let task_color i =
  let hue = float_of_int (i * 137 mod 360) in
  Printf.sprintf "hsl(%.0f, 65%%, 55%%)" hue

let render ?(px_per_unit = 8.0) ~horizon lanes =
  let width = label_width + int_of_float (px_per_unit *. float_of_int (max horizon 1)) + 20 in
  let height = top_margin + (List.length lanes * (lane_height + lane_gap)) + 20 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"12\">\n"
       width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"white\"/>\n"
       width height);
  (* vertical grid every 10 time units *)
  let mark = ref 0 in
  while !mark <= horizon do
    let x = label_width + int_of_float (px_per_unit *. float_of_int !mark) in
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ddd\"/>\n" x
         (top_margin - 5) x (height - 15));
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"%d\" y=\"%d\" fill=\"#666\">%d</text>\n" x
         (top_margin - 10) !mark);
    mark := !mark + 10
  done;
  List.iteri
    (fun row { Intervals.label; intervals } ->
      let y = top_margin + (row * (lane_height + lane_gap)) in
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"4\" y=\"%d\" fill=\"#333\">%s</text>\n"
           (y + (lane_height / 2) + 4)
           label);
      List.iter
        (fun { Intervals.start; duration; tag } ->
          let x = label_width + int_of_float (px_per_unit *. float_of_int start) in
          let w =
            max 1 (int_of_float (px_per_unit *. float_of_int duration))
          in
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" \
                stroke=\"#333\"/>\n"
               x y w lane_height (task_color tag));
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%d\" y=\"%d\" fill=\"white\">%d</text>\n" (x + 4)
               (y + (lane_height / 2) + 4)
               tag))
        intervals)
    lanes;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save path svg =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc svg)
