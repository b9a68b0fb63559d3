type t = { ic : in_channel; oc : out_channel }

let connect path =
  let socket = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect socket (Unix.ADDR_UNIX path) with
  | () ->
      Ok
        {
          ic = Unix.in_channel_of_descr socket;
          oc = Unix.out_channel_of_descr socket;
        }
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close socket with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message err))

let close t = try close_out t.oc with Sys_error _ | Unix.Unix_error _ -> ()

let send_line t line =
  output_string t.oc line;
  if String.length line = 0 || line.[String.length line - 1] <> '\n' then
    output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match input_line t.ic with
  | line -> Some line
  | exception End_of_file -> None
