module Chain = Msts.Chain
module Incremental = Msts.Chain_incremental
module Schedule = Msts.Schedule
module Obs = Msts.Obs

type delta =
  | Placed of { task : int; proc : int; start : int; comms : int array }
  | Displaced of { task : int; proc : int; start : int; comms : int array }
  | Rejected of { task : int }
  | Frozen of { frontier : int; tasks : int }

type replan = { replaced : int; extended_by : int; deadline : int }

(* The construction places every new task strictly earlier on the timeline
   than all existing placements, so inside [inc] the frozen placements are
   exactly a suffix of construction order.  Frozen placements are copied
   out into the [fz_*] columns the moment they freeze (their dates are
   then immutable truth); the copies left inside [inc] keep the
   hull/occupancy state exact until the next extension or replan rebuilds
   [inc] from the unfrozen prefix alone.  After such a rebuild the state no longer knows
   the frozen tasks, so [floor] rises to the last frozen activity
   ([barrier]): every later placement starts after all frozen activity has
   ended, which keeps the combined plan feasible by separation instead of
   by shared state. *)
type t = {
  capacity : int;
  mutable chain : Chain.t;
  mutable inc : Incremental.t;
  mutable ids : int array; (* ids.(i): arrival id of inc placement i *)
  mutable unfrozen : int; (* inc placements [unfrozen..placed) are frozen *)
  mutable frontier : int;
  mutable floor : int; (* min emission once the state went stale *)
  mutable barrier : int; (* last activity end among frozen placements *)
  (* the frozen store, in increasing emission order: task [j] has arrival
     id [fz_ids.(j)], start [fz_starts.(j)] and the vector
     [fz_emissions.(fz_offsets.(j) .. fz_offsets.(j+1) - 1)]; each column
     has room beyond [fz_count] *)
  mutable fz_ids : int array;
  mutable fz_starts : int array;
  mutable fz_offsets : int array;
  mutable fz_emissions : int array;
  mutable fz_count : int;
  mutable arrivals : int;
  mutable rejected : int;
}

let create ?(capacity = 0) chain ~deadline =
  if deadline < 0 then invalid_arg "Msts.Online.create: negative deadline";
  if capacity < 0 then invalid_arg "Msts.Online.create: negative capacity";
  Obs.count "online.sessions";
  {
    capacity;
    chain;
    inc = Incremental.create ~capacity chain ~horizon:deadline;
    ids = Array.make capacity 0;
    unfrozen = 0;
    frontier = 0;
    floor = 0;
    barrier = 0;
    fz_ids = [||];
    fz_starts = [||];
    fz_offsets = [| 0 |];
    fz_emissions = [||];
    fz_count = 0;
    arrivals = 0;
    rejected = 0;
  }

let chain t = t.chain
let deadline t = Incremental.horizon t.inc
let frontier t = t.frontier
let rejected t = t.rejected
let frozen t = t.fz_count
let placed t = t.fz_count + t.unfrozen

(* ---------- arrivals (the zero-allocation hot path) ---------- *)

let ensure_id_room t =
  let cap = Array.length t.ids in
  if Incremental.placed t.inc > cap then
    t.ids <- Array.append t.ids (Array.make (max 8 cap) 0)

let min_emission t = if t.floor > t.frontier then t.floor else t.frontier

let submit ?emit t n =
  if n < 0 then invalid_arg "Msts.Online.submit: negative arrival count";
  let observed = Obs.enabled () in
  if observed && n > 0 then Obs.count ~n "online.arrivals";
  let floor = min_emission t in
  let accepted = ref 0 in
  for _ = 1 to n do
    let id = t.arrivals + 1 in
    t.arrivals <- id;
    let t0 = if observed then Obs.now_us () else 0 in
    if Incremental.add_task_from t.inc ~min_emission:floor then begin
      ensure_id_room t;
      let i = Incremental.placed t.inc - 1 in
      t.ids.(i) <- id;
      t.unfrozen <- t.unfrozen + 1;
      incr accepted;
      if observed then Obs.record "online.place_us" (Obs.now_us () - t0);
      match emit with
      | None -> ()
      | Some f ->
          f
            (Placed
               {
                 task = id;
                 proc = Incremental.proc_at t.inc i;
                 start = Incremental.start_at t.inc i;
                 comms = Incremental.comms_at t.inc i;
               })
    end
    else begin
      t.rejected <- t.rejected + 1;
      match emit with None -> () | Some f -> f (Rejected { task = id })
    end
  done;
  if observed then begin
    if !accepted > 0 then Obs.count ~n:!accepted "online.placed";
    if n - !accepted > 0 then Obs.count ~n:(n - !accepted) "online.rejected"
  end;
  !accepted

(* ---------- freezing ---------- *)

(* Room for [tasks] more frozen tasks of [dates] emission dates in all:
   a column too short grows to twice its length, or exactly to the need
   when that is more, so a freeze of a whole plan at once leaves no room
   over. *)
let fz_reserve t ~tasks ~dates =
  let grown a need =
    if need <= Array.length a then a
    else begin
      let b = Array.make (max need (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  let n = t.fz_count + tasks in
  t.fz_ids <- grown t.fz_ids n;
  t.fz_starts <- grown t.fz_starts n;
  t.fz_offsets <- grown t.fz_offsets (n + 1);
  t.fz_emissions <- grown t.fz_emissions (t.fz_offsets.(t.fz_count) + dates)

(* Copy [inc] placement [i] onto the end of the frozen store. *)
let freeze t i =
  let j = t.fz_count and proc = Incremental.proc_at t.inc i in
  let start = Incremental.start_at t.inc i and o = t.fz_offsets.(t.fz_count) in
  t.fz_ids.(j) <- t.ids.(i);
  t.fz_starts.(j) <- start;
  Incremental.blit_comms t.inc i t.fz_emissions ~pos:o;
  t.fz_offsets.(j + 1) <- o + proc;
  t.fz_count <- j + 1;
  let finish = start + Chain.work t.chain proc in
  if finish > t.barrier then t.barrier <- finish

let advance ?emit t ~time =
  if time > t.frontier then t.frontier <- time;
  (* Emission dates decrease along construction order, so placements
     freeze from the end of [inc]'s unfrozen prefix backward — which is
     increasing emission order, exactly the frozen store's order. *)
  let first = ref t.unfrozen in
  while !first > 0 && Incremental.emission_at t.inc (!first - 1) < t.frontier do
    decr first
  done;
  let newly = t.unfrozen - !first in
  if newly > 0 then begin
    let dates = ref 0 in
    for i = !first to t.unfrozen - 1 do
      dates := !dates + Incremental.proc_at t.inc i
    done;
    fz_reserve t ~tasks:newly ~dates:!dates;
    for i = t.unfrozen - 1 downto !first do
      freeze t i
    done;
    t.unfrozen <- !first;
    if Obs.enabled () then Obs.count ~n:newly "online.frozen";
    match emit with
    | None -> ()
    | Some f -> f (Frozen { frontier = t.frontier; tasks = newly })
  end;
  newly

(* ---------- rebuilding the revisable suffix ---------- *)

(* Re-place the [m] unfrozen tasks from scratch on [chain] at [horizon],
   unconstrained ([min_int] floor: dates may go negative), then shift the
   candidate up by exactly the slack needed to clear [need].  Because the
   construction is shift-equivariant, this yields the optimal placement of
   [m] tasks in [[need, horizon + shift]]. *)
let rebuild t chain ~horizon ~need =
  let m = t.unfrozen in
  let cand =
    Incremental.create ~capacity:(max t.capacity m) chain ~horizon
  in
  for _ = 1 to m do
    if not (Incremental.add_task_from cand ~min_emission:min_int) then
      invalid_arg "Msts.Online.rebuild: unconstrained placement refused"
  done;
  let shift =
    match Incremental.earliest_emission cand with
    | None -> 0
    | Some e -> if e < need then need - e else 0
  in
  if shift > 0 then Incremental.extend cand ~by:shift;
  (cand, shift)

(* Swap the candidate in.  The arrival ids of the unfrozen prefix carry
   over unchanged: tasks are identical, so the j-th unfrozen placement of
   the old construction corresponds to the j-th of the new one. *)
let adopt ?emit t cand =
  let m = t.unfrozen in
  t.inc <- cand;
  (* The state no longer knows the frozen tasks: placements from now on
     must clear their last activity. *)
  if t.barrier > t.floor then t.floor <- t.barrier;
  if m > 0 && Obs.enabled () then Obs.count ~n:m "online.displaced";
  (match emit with
  | None -> ()
  | Some f ->
      for i = 0 to m - 1 do
        f
          (Displaced
             {
               task = t.ids.(i);
               proc = Incremental.proc_at t.inc i;
               start = Incremental.start_at t.inc i;
               comms = Incremental.comms_at t.inc i;
             })
      done);
  m

let extend ?emit t ~deadline =
  let current = Incremental.horizon t.inc in
  if deadline < current then
    Error
      (Printf.sprintf
         "Msts.Online.extend: deadline must not shrink (%d < current %d)"
         deadline current)
  else if deadline = current then Ok 0
  else begin
    if Obs.enabled () then Obs.count "online.extends";
    if t.fz_count = 0 then begin
      (* Exact path: nothing is immutable, the whole construction shifts
         and stays byte-identical to a batch solve at the new deadline. *)
      Incremental.extend t.inc ~by:(deadline - current);
      Ok (adopt ?emit t t.inc)
    end
    else begin
      let need = max t.frontier (max t.floor t.barrier) in
      let cand, shift = rebuild t t.chain ~horizon:deadline ~need in
      if shift > 0 then
        Error
          (Printf.sprintf
             "Msts.Online.extend: %d does not clear the frozen prefix; \
              extend to at least %d"
             deadline (deadline + shift))
      else Ok (adopt ?emit t cand)
    end
  end

let degrade ?emit t ~at ~work_factor =
  let p = Chain.length t.chain in
  if at < 1 || at > p then
    Error
      (Printf.sprintf "Msts.Online.degrade: processor %d outside 1..%d" at p)
  else if work_factor < 1 then
    Error "Msts.Online.degrade: work_factor must be >= 1"
  else begin
    let committed = ref 0 in
    for j = 0 to t.fz_count - 1 do
      if t.fz_offsets.(j + 1) - t.fz_offsets.(j) = at then incr committed
    done;
    if !committed > 0 then
      Error
        (Printf.sprintf
           "Msts.Online.degrade: processor %d holds %d frozen placement(s)"
           at !committed)
    else begin
      let chain' = Chain.scale ~work_factor t.chain ~at in
      let need = max t.frontier (max t.floor t.barrier) in
      let horizon = Incremental.horizon t.inc in
      let cand, shift = rebuild t chain' ~horizon ~need in
      t.chain <- chain';
      if Obs.enabled () then Obs.count "online.replans";
      let replaced = adopt ?emit t cand in
      Ok
        {
          replaced;
          extended_by = shift;
          deadline = Incremental.horizon t.inc;
        }
    end
  end

(* ---------- snapshots ---------- *)

(* The frozen tasks from the [from]-th on, in increasing emission order,
   then the first [m] placements of the revisable suffix (reverse
   construction order); all frozen emissions precede all unfrozen ones,
   so the concatenation is emission order overall.  The frozen part is a
   blit of the store's columns. *)
let columns t ~from ~m =
  let k = t.fz_count - from in
  let n = k + m and base = t.fz_offsets.(from) in
  let placement j = m - 1 - (j - k) in
  let offsets = Array.make (n + 1) 0 in
  for j = 1 to k do
    offsets.(j) <- t.fz_offsets.(from + j) - base
  done;
  for j = k to n - 1 do
    offsets.(j + 1) <- offsets.(j) + Incremental.proc_at t.inc (placement j)
  done;
  let starts = Array.make n 0 and emissions = Array.make offsets.(n) 0 in
  Array.blit t.fz_starts from starts 0 k;
  Array.blit t.fz_emissions base emissions 0 offsets.(k);
  for j = k to n - 1 do
    starts.(j) <- Incremental.start_at t.inc (placement j);
    Incremental.blit_comms t.inc (placement j) emissions ~pos:offsets.(j)
  done;
  Schedule.of_columns t.chain ~starts ~offsets ~emissions

let schedule t = columns t ~from:0 ~m:t.unfrozen

let plan t = Msts.Plan.Chain (schedule t)

let frozen_schedule t = columns t ~from:0 ~m:0

let frozen_since t from =
  if from < 0 || from > t.fz_count then
    invalid_arg "Msts.Online.frozen_since: outside the frozen prefix";
  (Array.sub t.fz_ids from (t.fz_count - from), columns t ~from ~m:0)
