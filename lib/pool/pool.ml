(* One queue (shard) per worker, each behind its own mutex; a single
   pool-wide mutex/condition pair coordinates sleep and wake-up.

   Lock ordering: a thread holding the pool lock may take a shard lock
   (the sleep-path re-scan), but never the other way round — submitters
   release the shard lock before signalling.  This makes the classic
   lost-wakeup race impossible: a submitter's push happens-before its
   signal (both ordered by the pool lock against the worker's re-scan
   and wait).  A submission signals one worker; [shutdown] broadcasts. *)

module Obs = Msts_obs.Obs

type shard = { lock : Mutex.t; tasks : (unit -> unit) Queue.t }

type t = {
  size : int; (* requested worker count, >= 1 *)
  shards : shard array; (* one per worker; empty when size = 1 *)
  lock : Mutex.t;
  work : Condition.t;
  stop : bool Atomic.t;
  mutable workers : unit Domain.t array;
  next : int Atomic.t; (* round-robin submission cursor *)
  (* Asynchronous completions: every finished ticket bumps [completions]
     and broadcasts [complete]; when a completion pipe exists (created
     lazily by the first [completion_fd] call) one wake-up byte is also
     written so a select loop can sleep on the read end.  The pipe is
     never created for pools that are only ever [map]ed over. *)
  completions : int Atomic.t;
  complete_lock : Mutex.t;
  complete : Condition.t;
  pipe : (Unix.file_descr * Unix.file_descr) option Atomic.t;
}

type 'a ticket = ('a, exn) result option Atomic.t

let clamp_jobs j = max 1 (min 64 j)

let try_pop (shard : shard) =
  Mutex.lock shard.lock;
  let task =
    if Queue.is_empty shard.tasks then None else Some (Queue.pop shard.tasks)
  in
  Mutex.unlock shard.lock;
  task

(* Own shard first, then steal round-robin from the others. *)
let find_task t w =
  let rec scan i remaining =
    if remaining = 0 then None
    else
      match try_pop t.shards.(i) with
      | Some _ as task -> task
      | None -> scan ((i + 1) mod t.size) (remaining - 1)
  in
  scan w t.size

let rec worker_loop t w =
  match find_task t w with
  | Some task ->
      task ();
      worker_loop t w
  | None ->
      if not (Atomic.get t.stop) then begin
        Mutex.lock t.lock;
        (* Re-check under the pool lock; submitters broadcast under it. *)
        let idle =
          (not (Atomic.get t.stop))
          && Array.for_all
               (fun (shard : shard) ->
                 Mutex.lock shard.lock;
                 let empty = Queue.is_empty shard.tasks in
                 Mutex.unlock shard.lock;
                 empty)
               t.shards
        in
        if idle then Condition.wait t.work t.lock;
        Mutex.unlock t.lock;
        worker_loop t w
      end

let create ?jobs () =
  let size =
    clamp_jobs (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      size;
      shards =
        Array.init
          (if size > 1 then size else 0)
          (fun _ -> { lock = Mutex.create (); tasks = Queue.create () });
      lock = Mutex.create ();
      work = Condition.create ();
      stop = Atomic.make false;
      workers = [||];
      next = Atomic.make 0;
      completions = Atomic.make 0;
      complete_lock = Mutex.create ();
      complete = Condition.create ();
      pipe = Atomic.make None;
    }
  in
  if size > 1 then
    t.workers <- Array.init size (fun w -> Domain.spawn (fun () -> worker_loop t w));
  t

let jobs t = t.size

let enqueue_task t task =
  let shard = t.shards.(Atomic.fetch_and_add t.next 1 mod t.size) in
  Mutex.lock shard.lock;
  Queue.push task shard.tasks;
  Mutex.unlock shard.lock;
  (* One task wakes one idle worker, not all of them.  No wake-up is
     lost: a worker re-scans every shard under the pool lock before it
     waits, and this push precedes the signal, which is sent under that
     lock; so either the worker's scan sees the task, or the worker is
     already waiting when the signal comes.  A signal with no waiter
     finds every worker busy, and each re-scans when its task ends. *)
  Mutex.lock t.lock;
  Condition.signal t.work;
  Mutex.unlock t.lock

(* ---------- asynchronous submission ---------- *)

let wake_byte = Bytes.make 1 '!'

let signal_completion t =
  Atomic.incr t.completions;
  Mutex.lock t.complete_lock;
  Condition.broadcast t.complete;
  Mutex.unlock t.complete_lock;
  match Atomic.get t.pipe with
  | None -> ()
  | Some (_, w) -> (
      (* Best-effort wake-up: a full pipe already guarantees the reader
         has a pending readable event, and a closed one means shutdown. *)
      try ignore (Unix.write w wake_byte 0 1) with Unix.Unix_error _ -> ())

let completion_fd t =
  Mutex.lock t.lock;
  let r =
    match Atomic.get t.pipe with
    | Some (r, _) -> r
    | None ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        Atomic.set t.pipe (Some (r, w));
        r
  in
  Mutex.unlock t.lock;
  r

let drain_buf = Bytes.create 4096

let drain_completions t =
  (match Atomic.get t.pipe with
  | None -> ()
  | Some (r, _) ->
      let rec slurp () =
        match Unix.read r drain_buf 0 (Bytes.length drain_buf) with
        | n when n > 0 -> slurp ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
      in
      slurp ());
  Atomic.exchange t.completions 0

let submit t f =
  let ticket = Atomic.make None in
  let scope = Obs.Scope.current () in
  let run () =
    Obs.Scope.set scope;
    let outcome = try Ok (f ()) with e -> Error e in
    Obs.Scope.set Obs.Scope.none;
    Atomic.set ticket (Some outcome)
  in
  if t.size <= 1 || Array.length t.workers = 0 then begin
    (* Inline: the ticket is complete before anyone could wait on it or
       sleep on the pipe, so only the count records it. *)
    run ();
    Atomic.incr t.completions
  end
  else
    enqueue_task t (fun () ->
        run ();
        signal_completion t);
  ticket

let poll ticket = Atomic.get ticket

let await t ticket =
  let rec wait () =
    match Atomic.get ticket with
    | Some outcome -> outcome
    | None ->
        Mutex.lock t.complete_lock;
        (* Re-check under the lock: completions broadcast under it, so a
           result set between the check and the wait cannot be missed. *)
        if Atomic.get ticket = None then Condition.wait t.complete t.complete_lock;
        Mutex.unlock t.complete_lock;
        wait ()
  in
  wait ()

let map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else if t.size <= 1 || Array.length t.workers = 0 then Array.map f items
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let remaining = Atomic.make n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    (* Carry the submitting domain's request scope onto the workers:
       events a worker emits while running [f] are attributed to the
       request that submitted the batch, not to whatever ran before. *)
    let scope = Obs.Scope.current () in
    Array.iteri
      (fun i item ->
        enqueue_task t (fun () ->
            Obs.Scope.set scope;
            (try results.(i) <- Some (f item)
             with e ->
               ignore (Atomic.compare_and_set first_error None (Some e)));
            Obs.Scope.set Obs.Scope.none;
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              Mutex.lock done_lock;
              Condition.broadcast all_done;
              Mutex.unlock done_lock
            end))
      items;
    Mutex.lock done_lock;
    while Atomic.get remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    (match Atomic.get first_error with Some e -> raise e | None -> ());
    Array.map
      (function Some r -> r | None -> failwith "Pool.map: lost result")
      results
  end

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    Mutex.lock t.lock;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||];
    match Atomic.exchange t.pipe None with
    | None -> ()
    | Some (r, w) ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        (try Unix.close w with Unix.Unix_error _ -> ())
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
