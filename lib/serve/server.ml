module Obs = Msts.Obs

type config = {
  socket_path : string;
  engine : Engine.config;
  telemetry : string option;
  ring_capacity : int;
  quiet : bool;
  metrics_out : string option;
  metrics_interval : float;
}

let default_config ~socket_path =
  {
    socket_path;
    engine = Engine.default_config;
    telemetry = None;
    ring_capacity = 1024;
    quiet = false;
    metrics_out = None;
    metrics_interval = 1.0;
  }

(* Atomic rewrite: scrapers reading FILE never see a half-written
   exposition — the rename swaps the complete new snapshot in. *)
let write_metrics_file engine path =
  try
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        Out_channel.output_string oc (Engine.exposition engine));
    Sys.rename tmp path
  with Sys_error msg ->
    Printf.eprintf "msts serve: cannot write metrics to %s: %s\n%!" path msg

(* One connected client: its unfinished input line, its unsent replies,
   the frames still awaiting one, and the engine's per-connection
   scheduling handle.  [eof] is set once the peer closed its write end:
   the fd is no longer read, and the connection stays open until every
   frame it sent has been answered and written. *)
type client = {
  fd : Unix.file_descr;
  conn : Engine.conn;
  input : Framing.input;
  out : Framing.output;
  mutable awaiting : int;
  mutable eof : bool;
  mutable dead : bool;
}

let queue_out client line =
  client.awaiting <- client.awaiting - 1;
  if not client.dead then Framing.push client.out line

let has_out client = not (Framing.is_empty client.out)

(* A half-closed client whose every reply has left. *)
let finished client =
  client.eof && client.awaiting = 0 && not (has_out client)

(* Takes as much as the socket accepts; never blocks. *)
let write_to client buf off len =
  try Unix.write client.fd buf off len with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      client.dead <- true;
      0

let flush_out client = Framing.flush client.out ~write:(write_to client)

let read_chunk = Bytes.create 65536

(* Drain everything currently readable from one client; [`Eof] once the
   peer closed its write end. *)
let rec sweep_client engine client =
  match Unix.read client.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> `Eof
  | n ->
      Framing.feed client.input read_chunk 0 n (fun line ->
          client.awaiting <- client.awaiting + 1;
          Engine.handle_line engine ~conn:client.conn
            ~reply:(queue_out client) line);
      sweep_client engine client
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      `More
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run cfg =
  let stop = ref false in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  let ring = Obs.Ring.create ~capacity:cfg.ring_capacity () in
  let telemetry =
    Option.map
      (fun path ->
        let oc = Out_channel.open_text path in
        (path, oc, Obs.Streaming.create oc))
      cfg.telemetry
  in
  let sinks =
    Obs.Ring.sink ring
    :: (match telemetry with
       | None -> []
       | Some (_, _, s) -> [ Obs.Streaming.sink s ])
  in
  let close_telemetry () =
    Obs.set_sink None;
    Option.iter
      (fun (_, oc, s) ->
        Obs.Streaming.flush s;
        Out_channel.close oc)
      telemetry
  in
  let engine = Engine.create cfg.engine in
  (* The engine's aggregating metrics sink joins the tee so the live
     exposition (metrics op, --metrics-out) sees every serve.* /
     online.* / solve event emitted on this domain. *)
  Obs.set_sink (Some (Obs.tee (Engine.metrics_sink engine :: sinks)));
  let last_metrics = ref 0.0 in
  let maybe_write_metrics ~force =
    Option.iter
      (fun path ->
        let now = Unix.gettimeofday () in
        if force || now -. !last_metrics >= cfg.metrics_interval then begin
          last_metrics := now;
          write_metrics_file engine path
        end)
      cfg.metrics_out
  in
  (* The scrape file exists before the socket does: a client that sees
     the socket can rely on it. *)
  maybe_write_metrics ~force:true;
  match
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
       Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
       Unix.listen listen_fd 64;
       Unix.set_nonblock listen_fd;
       Ok listen_fd
     with
    | Unix.Unix_error (err, _, _) ->
        close_quietly listen_fd;
        Error (Unix.error_message err)
    | Sys_error msg ->
        close_quietly listen_fd;
        Error msg)
  with
  | Error msg ->
      Printf.eprintf "msts serve: cannot bind %s: %s\n%!" cfg.socket_path msg;
      Engine.shutdown engine;
      close_telemetry ();
      restore_signals ();
      2
  | Ok listen_fd -> (
      if not cfg.quiet then
        Printf.printf "msts serve: listening on %s (jobs=%d, cache=%d, queue=%d)\n%!"
          cfg.socket_path cfg.engine.Engine.jobs cfg.engine.Engine.cache_capacity
          cfg.engine.Engine.queue_cap;
      let clients = ref [] in
      let drop_dead () =
        clients :=
          List.filter
            (fun c ->
              let drop = c.dead || finished c in
              if drop then begin
                close_quietly c.fd;
                Engine.close_conn engine c.conn
              end;
              not drop)
            !clients
      in
      let accept_all () =
        let rec go () =
          match Unix.accept listen_fd with
          | fd, _ ->
              Unix.set_nonblock fd;
              Obs.count "serve.connections";
              clients :=
                {
                  fd;
                  conn = Engine.open_conn engine;
                  input = Framing.input ();
                  out = Framing.output ();
                  awaiting = 0;
                  eof = false;
                  dead = false;
                }
                :: !clients;
              go ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
        in
        go ()
      in
      let serve_loop () =
        while not (!stop || Engine.stopping engine) do
          drop_dead ();
          (* The pool's completion pipe joins the read set: a worker
             finishing a solve wakes the loop exactly like socket bytes
             would, so responses leave as soon as they exist. *)
          let read_fds =
            listen_fd :: Engine.wakeup_fd engine
            :: List.filter_map
                 (fun c -> if c.eof then None else Some c.fd)
                 !clients
          in
          let write_fds =
            List.filter_map
              (fun c -> if has_out c then Some c.fd else None)
              !clients
          in
          let timeout = if Engine.runnable engine then 0.0 else 0.05 in
          let readable, writable, _ =
            try Unix.select read_fds write_fds [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          if List.mem listen_fd readable then accept_all ();
          List.iter
            (fun c ->
              if (not c.dead) && List.mem c.fd readable then
                match sweep_client engine c with
                | `Eof -> c.eof <- true
                | `More -> ())
            !clients;
          ignore (Engine.dispatch engine);
          maybe_write_metrics ~force:false;
          List.iter
            (fun c ->
              if (not c.dead) && (List.mem c.fd writable || has_out c) then
                flush_out c)
            !clients
        done
      in
      let epilogue () =
        (* Frames already written by clients are in-flight: sweep them in
           before refusing new work, then drain to the last response. *)
        List.iter
          (fun c ->
            if not (c.dead || c.eof) then ignore (sweep_client engine c))
          !clients;
        Engine.stop engine;
        let drained = Engine.drain engine in
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec flush_all () =
          drop_dead ();
          let waiting = List.filter has_out !clients in
          if waiting <> [] && Unix.gettimeofday () < deadline then begin
            (match
               Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.5
             with
            | _, writable, _ ->
                List.iter
                  (fun c -> if List.mem c.fd writable then flush_out c)
                  waiting
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            flush_all ()
          end
        in
        flush_all ();
        List.iter (fun c -> close_quietly c.fd) !clients;
        close_quietly listen_fd;
        if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
        maybe_write_metrics ~force:true;
        Engine.shutdown engine;
        if not cfg.quiet then
          Printf.printf "msts serve: drained %d request(s), served %d, bye\n%!"
            drained (Engine.served engine);
        close_telemetry ();
        restore_signals ();
        0
      in
      try
        serve_loop ();
        epilogue ()
      with exn ->
        let tail = Obs.Ring.to_jsonl ring in
        Printf.eprintf "msts serve: fatal: %s\n%s%!" (Printexc.to_string exn)
          (if tail = "" then "" else "last telemetry events:\n" ^ tail);
        List.iter (fun c -> close_quietly c.fd) !clients;
        close_quietly listen_fd;
        if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
        (try Engine.shutdown engine with _ -> ());
        close_telemetry ();
        restore_signals ();
        125)
