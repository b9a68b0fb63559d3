(* Load phases over one connection: a closed loop that keeps a fixed
   window of pipelined requests outstanding, and an open loop that sends
   on a fixed schedule and times each request from when it was due.
   Every reply is paired with its request by id and checked against the
   oracle as it arrives. *)

(* A growable float buffer for raw samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
end

type pending = { t : Script.template; due : float; sent_at : float }

type stats = {
  mutable sent : int;
  mutable replies : int;
  mutable failed : int;
  mutable first_failure : string option;
  latency : Samples.t;  (** µs from due (open loop) or send (closed loop) *)
  rtt : Samples.t;  (** µs from the actual send *)
  lag : Samples.t;  (** µs the generator sent after the due time *)
  mutable elapsed_s : float;  (** first send to last reply *)
}

let stats () =
  {
    sent = 0;
    replies = 0;
    failed = 0;
    first_failure = None;
    latency = Samples.create ();
    rtt = Samples.create ();
    lag = Samples.create ();
    elapsed_s = 0.0;
  }

let fail st why =
  st.failed <- st.failed + 1;
  if st.first_failure = None then st.first_failure <- Some why

(* The script position shared by consecutive phases of a run: sequence
   numbers are unique per connection, the template cycles. *)
type cursor = { cycle : Script.template array; mutable pos : int; mutable seq : int }

let cursor cycle = { cycle; pos = 0; seq = 1 }

let next cur =
  let t = cur.cycle.(cur.pos) in
  cur.pos <- (cur.pos + 1) mod Array.length cur.cycle;
  cur.seq <- cur.seq + 1;
  (cur.seq, t)

let drain_timeout = 30.0

(* [schedule] answers, for the i-th request, the time it is due (µs), or
   [None] when the sending period is over; [can_send] gates on the
   closed-loop window. *)
let run conn cur ~schedule ~can_send ~from_due =
  let st = stats () in
  let outstanding = Hashtbl.create 64 in
  let on_line line =
    let now = Wire.now_us () in
    st.replies <- st.replies + 1;
    match Oracle.reply_id line with
    | None -> fail st ("unreadable reply: " ^ line)
    | Some (seq, off) -> (
        match Hashtbl.find_opt outstanding seq with
        | None -> fail st (Printf.sprintf "reply to unknown id %d" seq)
        | Some p ->
            Hashtbl.remove outstanding seq;
            if Oracle.verify p.t line off then begin
              Samples.add st.latency (now -. if from_due then p.due else p.sent_at);
              Samples.add st.rtt (now -. p.sent_at)
            end
            else
              fail st
                (Printf.sprintf "%s reply differs from the oracle: %s"
                   (Msts.Api.op_name p.t.Script.op)
                   (if String.length line > 300 then String.sub line 0 300 ^ "..." else line)))
  in
  let t0 = Wire.now_us () in
  let last = ref t0 in
  let rec send_phase i =
    match schedule i with
    | None -> ()
    | Some due ->
        let now = Wire.now_us () in
        if now >= due && can_send (Hashtbl.length outstanding) then begin
          let seq, t = next cur in
          Wire.send conn (Script.frame t seq);
          Hashtbl.replace outstanding seq { t; due; sent_at = now };
          Samples.add st.lag (now -. due);
          st.sent <- st.sent + 1;
          send_phase (i + 1)
        end
        else if conn.Wire.eof then ()
        else begin
          (* Sleep until the next request is due (open loop) or a reply
             frees a window slot (closed loop). *)
          let wait = if now >= due then 1.0 else (due -. now) /. 1e6 in
          Wire.wait [ conn ] wait;
          Wire.flush conn;
          let before = st.replies in
          Wire.read_lines conn on_line;
          if st.replies > before then last := Wire.now_us ();
          send_phase i
        end
  in
  send_phase 0;
  let deadline = Unix.gettimeofday () +. drain_timeout in
  while Hashtbl.length outstanding > 0 && (not conn.Wire.eof) && Unix.gettimeofday () < deadline do
    Wire.wait [ conn ] (deadline -. Unix.gettimeofday ());
    Wire.flush conn;
    let before = st.replies in
    Wire.read_lines conn on_line;
    if st.replies > before then last := Wire.now_us ()
  done;
  Hashtbl.iter (fun seq _ -> fail st (Printf.sprintf "no reply to id %d" seq)) outstanding;
  st.elapsed_s <- (!last -. t0) /. 1e6;
  st

(* Send [count] requests, keeping [window] of them outstanding. *)
let closed conn cur ~window ~count =
  run conn cur ~from_due:false
    ~schedule:(fun i -> if i < count then Some (Wire.now_us ()) else None)
    ~can_send:(fun outstanding -> outstanding < window)

(* One request every 1/rate seconds for [seconds], whatever the replies
   do. *)
let open_ conn cur ~rate ~seconds =
  let t0 = Wire.now_us () in
  let n = int_of_float (rate *. seconds) in
  run conn cur ~from_due:true
    ~schedule:(fun i -> if i < n then Some (t0 +. (float_of_int i *. 1e6 /. rate)) else None)
    ~can_send:(fun _ -> true)

(* Send a list of templates once, [window] at a time (the warm-up). *)
let replay_once conn cur ~window = closed conn cur ~window ~count:(Array.length cur.cycle)
