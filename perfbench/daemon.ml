(* A real [msts serve] child process on a throw-away socket in the working
   directory: spawn it, time it to its first answered ping, and at the end
   read its peak RSS, SIGTERM it and charge its CPU time. *)

type t = { pid : int; socket : string }

(* Children still running, killed by the exit hook if the run dies. *)
let live : t list ref = ref []
let spawned = ref 0

let remove_socket path = try Sys.remove path with Sys_error _ -> ()

let reap_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      remove_socket d.socket)
    !live;
  live := []

let () = at_exit reap_all

let ping_frame = {|{"v":1,"id":0,"op":"ping"}|} ^ "\n"
let pong = {|{"v":1,"id":0,"ok":{"version":1}}|}

(* Spawn a daemon and connect to it the moment its socket accepts: a
   50 µs retry instead of a coarse poll, so the figure is the daemon's
   own start-up (runtime init, [Pool.create], bind) plus one ping. *)
let spawn ~msts ~jobs =
  incr spawned;
  let socket = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !spawned in
  remove_socket socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Wire.now_us () in
  (* Admission caps far above any backlog a run builds, so a host stall
     under the open loop delays requests instead of refusing them. *)
  let argv =
    [| msts; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs; "--quiet";
       "--queue-cap"; "1000000"; "--max-queue-per-conn"; "1000000" |]
  in
  let pid =
    Affinity.for_daemon ~jobs (fun () ->
        Unix.create_process msts argv devnull devnull Unix.stderr)
  in
  Unix.close devnull;
  let d = { pid; socket } in
  live := d :: !live;
  let rec connect () =
    match Wire.connect socket with
    | Ok c -> c
    | Error (Unix.ENOENT | Unix.ECONNREFUSED) when Wire.now_us () -. t0 < 10e6 ->
        Unix.sleepf 5e-5;
        connect ()
    | Error err -> failwith ("daemon did not come up: " ^ Unix.error_message err)
  in
  let c = connect () in
  match Wire.rpc c ping_frame with
  | Some line when line = pong -> (d, (Wire.now_us () -. t0) /. 1e6, c)
  | Some line -> failwith ("daemon answered the first ping with " ^ line)
  | None -> failwith "daemon did not answer the first ping"

(* Peak resident set (kB) from /proc: the kernel's high-water mark. *)
let vm_hwm_kb d =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" d.pid) (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | Some _ -> find ()
      in
      find ())

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* SIGTERM, wait for every connection to close, reap.  Returns the
   daemon's user + system CPU seconds over its whole life (the rusage
   of the reaped child) and whether it exited cleanly with 0. *)
let stop d conns =
  Unix.kill d.pid Sys.sigterm;
  let stray = List.fold_left (fun acc c -> acc + Wire.drain_to_eof c) 0 conns in
  List.iter Wire.close conns;
  let before = children_cpu_s () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.001;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        snd (Unix.waitpid [] d.pid)
    | _, status -> status
  in
  let status = reap () in
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  remove_socket d.socket;
  (children_cpu_s () -. before, status = Unix.WEXITED 0 && stray = 0)
