(* One non-blocking client connection to the daemon: an output queue
   drained as the socket accepts bytes, and an input buffer split into
   lines without rescanning bytes already known to hold no newline. *)

(* Monotonic, nanosecond-resolution clock, in microseconds. *)
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** valid bytes in [buf] *)
  mutable start : int;  (** first byte not yet returned as a line *)
  mutable scan : int;  (** bytes in [start, scan) hold no newline *)
  out : string Queue.t;
  mutable out_off : int;  (** bytes of the queue's head already written *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable eof : bool;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      Ok
        {
          fd;
          buf = Bytes.create 65536;
          len = 0;
          start = 0;
          scan = 0;
          out = Queue.create ();
          out_off = 0;
          bytes_in = 0;
          bytes_out = 0;
          eof = false;
        }
  | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      Error err

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let has_out c = not (Queue.is_empty c.out)

let flush c =
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.out_off in
        match Unix.write_substring c.fd s c.out_off len with
        | n when n = len ->
            ignore (Queue.pop c.out);
            c.out_off <- 0;
            go ()
        | n -> c.out_off <- c.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
  in
  go ()

let send c s =
  Queue.add s c.out;
  c.bytes_out <- c.bytes_out + String.length s;
  flush c

(* Read everything available now and hand each complete line (without
   its newline) to [f]. *)
let read_lines c f =
  let rec fill () =
    if c.len = Bytes.length c.buf then begin
      let live = c.len - c.start in
      let dst =
        if live * 2 <= Bytes.length c.buf then c.buf
        else Bytes.create (2 * Bytes.length c.buf)
      in
      Bytes.blit c.buf c.start dst 0 live;
      c.buf <- dst;
      c.scan <- c.scan - c.start;
      c.len <- live;
      c.start <- 0
    end;
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> c.eof <- true
    | n ->
        c.len <- c.len + n;
        c.bytes_in <- c.bytes_in + n;
        split ();
        fill ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true
  and split () =
    while c.scan < c.len do
      if Bytes.unsafe_get c.buf c.scan = '\n' then begin
        let line = Bytes.sub_string c.buf c.start (c.scan - c.start) in
        c.start <- c.scan + 1;
        c.scan <- c.start;
        f line
      end
      else c.scan <- c.scan + 1
    done;
    if c.start = c.len then begin
      c.start <- 0;
      c.scan <- 0;
      c.len <- 0
    end
  in
  fill ()

(* Block until [fd] is readable, or writable when there is output
   pending, or [timeout] seconds pass. *)
let wait conns timeout =
  let reads = List.map (fun c -> c.fd) conns in
  let writes = List.filter_map (fun c -> if has_out c then Some c.fd else None) conns in
  match Unix.select reads writes [] (Float.max 0.0 timeout) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Lockstep exchange on a connection with nothing else outstanding. *)
let rpc ?(timeout = 30.0) c frame =
  send c frame;
  let deadline = Unix.gettimeofday () +. timeout in
  let reply = ref None in
  while !reply = None && not c.eof && Unix.gettimeofday () < deadline do
    wait [ c ] (deadline -. Unix.gettimeofday ());
    flush c;
    read_lines c (fun line -> if !reply = None then reply := Some line)
  done;
  !reply

(* Read until the daemon closes the connection; the lines that arrive
   on the way are returned. *)
let drain_to_eof ?(timeout = 10.0) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let extra = ref 0 in
  while (not c.eof) && Unix.gettimeofday () < deadline do
    wait [ c ] (deadline -. Unix.gettimeofday ());
    read_lines c (fun _ -> incr extra)
  done;
  !extra
