(* A binary min-heap on (time, rank) over three parallel int arrays:
   slot [i]'s children are [2i+1] and [2i+2].  Ranks are unique, so the
   order is total and the run reproducible. *)
type t = {
  mutable times : int array;
  mutable ranks : int array;
  mutable codes : int array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable gaps : Tally.t option; (* [engine.event_gap_us], inside [run] *)
}

let create () =
  {
    times = [||];
    ranks = [||];
    codes = [||];
    size = 0;
    clock = 0;
    next_seq = 0;
    processed = 0;
    gaps = None;
  }

let now t = t.clock

let claim t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.ranks.(i) < t.ranks.(j))

let grow t =
  let cap = max 64 (2 * t.size) in
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- widen t.times;
  t.ranks <- widen t.ranks;
  t.codes <- widen t.codes

let push t fn time rank code =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.%s: time %d is before now (%d)" fn time t.clock);
  if code < 0 then invalid_arg (Printf.sprintf "Engine.%s: negative code" fn);
  if t.size = Array.length t.times then grow t;
  (* sift the hole up from the end, then drop the event into it *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = t.times.(parent) in
    if time < tp || (time = tp && rank < t.ranks.(parent)) then begin
      t.times.(!i) <- tp;
      t.ranks.(!i) <- t.ranks.(parent);
      t.codes.(!i) <- t.codes.(parent);
      i := parent
    end
    else moving := false
  done;
  t.times.(!i) <- time;
  t.ranks.(!i) <- rank;
  t.codes.(!i) <- code

let schedule_at t time code = push t "schedule_at" time (claim t) code

let schedule_claimed t time ~claim code =
  push t "schedule_claimed" time claim code

(* Remove the minimum into the clock; its code, or -1 when empty. *)
let pop t =
  if t.size = 0 then -1
  else begin
    let time = t.times.(0) and code = t.codes.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      (* sift the hole down from the root, then drop the last event in *)
      let lt = t.times.(last) and lr = t.ranks.(last) and lc = t.codes.(last) in
      let i = ref 0 and moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= last then moving := false
        else begin
          let c = if l + 1 < last && before t (l + 1) l then l + 1 else l in
          let tc = t.times.(c) in
          if tc < lt || (tc = lt && t.ranks.(c) < lr) then begin
            t.times.(!i) <- tc;
            t.ranks.(!i) <- t.ranks.(c);
            t.codes.(!i) <- t.codes.(c);
            i := c
          end
          else moving := false
        end
      done;
      t.times.(!i) <- lt;
      t.ranks.(!i) <- lr;
      t.codes.(!i) <- lc
    end;
    (match t.gaps with Some g -> Tally.add g (time - t.clock) | None -> ());
    t.clock <- time;
    code
  end

let step t handle =
  let code = pop t in
  if code < 0 then false
  else begin
    t.processed <- t.processed + 1;
    handle code;
    true
  end

let drain ?max_events t handle =
  match max_events with
  | None -> while step t handle do () done
  | Some budget ->
      if budget < 1 then invalid_arg "Msts.Engine.run: max_events must be >= 1";
      let remaining = ref budget in
      let running = ref true in
      while !running do
        if !remaining = 0 && t.size > 0 then
          failwith
            (Printf.sprintf
               "Msts.Engine.run: event budget (%d) exhausted at simulated time \
                %d with %d events still queued — is a callback scheduling \
                events forever?"
               budget t.clock t.size);
        if step t handle then decr remaining else running := false
      done

(* [engine.events] is tallied in [processed] and the event gaps in
   [gaps]; both are emitted once per run, also when the run fails.  With
   no sink installed there is no gap tally. *)
let run ?max_events t handle =
  let before = t.processed in
  t.gaps <- (if Msts_obs.Obs.enabled () then Some (Tally.create ()) else None);
  Fun.protect
    ~finally:(fun () ->
      let n = t.processed - before in
      if n > 0 then Msts_obs.Obs.count ~n "engine.events";
      Option.iter (fun g -> Tally.emit g "engine.event_gap_us") t.gaps;
      t.gaps <- None)
    (fun () -> drain ?max_events t handle)
