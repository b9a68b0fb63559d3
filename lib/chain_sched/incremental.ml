module Schedule = Msts_schedule.Schedule

(* Placements live in a struct-of-arrays store (processor / start / comm
   vector offset, plus one flat int pool for the vectors themselves)
   instead of a consed list of records: once the store has warmed up to its
   working capacity, placing a task touches no allocator at all — the
   property the online scheduler's steady state is benchmarked on.
   Construction order is newest-first-in-time: placement [i] emits
   strictly earlier than placement [i-1]. *)

type t = {
  chain : Msts_platform.Chain.t;
  sc : Kernel.scratch;
  st : Algorithm.state;
  mutable horizon : int;
  mutable procs : int array; (* procs.(i): processor of placement i *)
  mutable starts : int array; (* starts.(i): compute start date *)
  mutable offs : int array; (* offs.(i): offset of comms in [pool] *)
  mutable pool : int array; (* flat comm-vector storage *)
  mutable pool_len : int;
  mutable placed : int;
  mutable full : bool;
}

let create ?(capacity = 0) chain ~horizon =
  if Msts_platform.Chain.length chain = 0 then
    (* Unreachable through Chain.make (which refuses empty arrays), kept as
       a defensive guard with the same Msts.Chain.* error convention. *)
    invalid_arg "Msts.Chain.Incremental.create: zero-processor chain";
  if horizon < 0 then
    invalid_arg "Msts.Chain.Incremental.create: negative horizon";
  if capacity < 0 then
    invalid_arg "Msts.Chain.Incremental.create: negative capacity";
  let p = Msts_platform.Chain.length chain in
  {
    chain;
    sc = Kernel.scratch ();
    st = Algorithm.initial_state chain ~horizon;
    horizon;
    procs = Array.make capacity 0;
    starts = Array.make capacity 0;
    offs = Array.make capacity 0;
    pool = Array.make (capacity * p) 0;
    pool_len = 0;
    placed = 0;
    full = false;
  }

let grow a n = Array.append a (Array.make n 0)

(* Geometric growth: amortized O(1) words per placement, and exactly zero
   allocation while [placed] stays within the warmed-up capacity. *)
let ensure_room t ~proc =
  let cap = Array.length t.procs in
  if t.placed >= cap then begin
    let extra = max 8 cap in
    t.procs <- grow t.procs extra;
    t.starts <- grow t.starts extra;
    t.offs <- grow t.offs extra
  end;
  let pcap = Array.length t.pool in
  if t.pool_len + proc > pcap then
    t.pool <- grow t.pool (max proc (max 64 pcap))

let record t ~proc ~start =
  let i = t.placed in
  t.procs.(i) <- proc;
  t.starts.(i) <- start;
  t.offs.(i) <- t.pool_len;
  t.pool_len <- t.pool_len + proc;
  t.placed <- i + 1

(* One sweep both probes and decides; commit only if the task fits. *)
let add_task_unflushed t ~min_emission =
  if t.full then false
  else begin
    let proc =
      Kernel.sweep t.chain ~hull:t.st.Algorithm.hull
        ~occupancy:t.st.Algorithm.occupancy t.sc
    in
    if Kernel.first_emission t.sc < min_emission then begin
      t.full <- true;
      false
    end
    else begin
      ensure_room t ~proc;
      Kernel.blit_chosen t.sc ~proc t.pool ~pos:t.pool_len;
      let start =
        Kernel.commit t.chain ~hull:t.st.Algorithm.hull
          ~occupancy:t.st.Algorithm.occupancy t.sc ~proc
      in
      record t ~proc ~start;
      true
    end
  end

(* Each public call emits the kernel's counters once; [fill] flushes
   once for the whole run. *)
let add_task_from t ~min_emission =
  let added = add_task_unflushed t ~min_emission in
  Kernel.flush t.sc;
  added

let add_task t = add_task_from t ~min_emission:0

let placed t = t.placed
let horizon t = t.horizon

let check_index t i name =
  if i < 0 || i >= t.placed then
    invalid_arg
      (Printf.sprintf "Msts.Chain.Incremental.%s: placement %d outside 0..%d"
         name i (t.placed - 1))

let proc_at t i =
  check_index t i "proc_at";
  t.procs.(i)

let start_at t i =
  check_index t i "start_at";
  t.starts.(i)

let emission_at t i =
  check_index t i "emission_at";
  t.pool.(t.offs.(i))

let comms_at t i =
  check_index t i "comms_at";
  Array.sub t.pool t.offs.(i) t.procs.(i)

let blit_comms t i dst ~pos =
  check_index t i "blit_comms";
  Array.blit t.pool t.offs.(i) dst pos t.procs.(i)

let extend t ~by =
  if by < 0 then
    invalid_arg "Msts.Chain.Incremental.extend: negative extension";
  if by > 0 then begin
    t.horizon <- t.horizon + by;
    let shift a n = for i = 0 to n - 1 do a.(i) <- a.(i) + by done in
    shift t.st.Algorithm.hull (Array.length t.st.Algorithm.hull);
    shift t.st.Algorithm.occupancy (Array.length t.st.Algorithm.occupancy);
    shift t.starts t.placed;
    shift t.pool t.pool_len;
    (* A construction that was full may fit more tasks on the longer
       horizon: the refusal is no longer a permanent fact. *)
    t.full <- false
  end

(* Placement i emits earlier than placement i-1, so emission order — the
   task numbering of a schedule — is reverse construction order: task 1 is
   the newest placement.  The pool holds the vectors in construction
   order, so the emission column is filled from its end. *)
let schedule t =
  let n = t.placed in
  let starts = Array.make n 0 in
  let offsets = Array.make (n + 1) 0 and emissions = Array.make t.pool_len 0 in
  for j = 0 to n - 1 do
    let i = n - 1 - j in
    starts.(j) <- t.starts.(i);
    offsets.(j + 1) <- offsets.(j) + t.procs.(i);
    Array.blit t.pool t.offs.(i) emissions offsets.(j) t.procs.(i)
  done;
  Schedule.of_columns t.chain ~starts ~offsets ~emissions

let earliest_emission t =
  if t.placed = 0 then None else Some (emission_at t (t.placed - 1))

let fill t ?(max_tasks = max_int) () =
  while t.placed < max_tasks && add_task_unflushed t ~min_emission:0 do
    ()
  done;
  Kernel.flush t.sc;
  t.placed
