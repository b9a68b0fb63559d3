module Chain = Msts_platform.Chain
module Comm_vector = Msts_schedule.Comm_vector
module Schedule = Msts_schedule.Schedule
module Obs = Msts_obs.Obs

type state = { hull : int array; occupancy : int array }

let initial_state chain ~horizon =
  let p = Chain.length chain in
  { hull = Array.make p horizon; occupancy = Array.make p horizon }

let copy_state st =
  { hull = Array.copy st.hull; occupancy = Array.copy st.occupancy }

let candidate chain st k =
  let v = Array.make k 0 in
  v.(k - 1) <-
    min
      (st.occupancy.(k - 1) - Chain.work chain k - Chain.latency chain k)
      (st.hull.(k - 1) - Chain.latency chain k);
  for j = k - 1 downto 1 do
    v.(j - 1) <-
      min (v.(j) - Chain.latency chain j) (st.hull.(j - 1) - Chain.latency chain j)
  done;
  v

let candidates chain st =
  let p = Chain.length chain in
  Obs.count ~n:p "chain.candidate_scans";
  Array.init p (fun idx -> candidate chain st (idx + 1))

let select cands =
  if Array.length cands = 0 then invalid_arg "Algorithm.select: no candidates";
  let best = ref 0 in
  for idx = 1 to Array.length cands - 1 do
    if Comm_vector.precedes cands.(!best) cands.(idx) then best := idx
  done;
  !best

type step = {
  task : int;
  chosen_proc : int;
  chosen_vector : Comm_vector.t;
  start : int;
  all_candidates : Comm_vector.t array;
  state_before : state;
}

let place_with ~select chain st ~task =
  let state_before = copy_state st in
  let all_candidates = candidates chain st in
  let chosen_proc = select all_candidates + 1 in
  let chosen_vector = all_candidates.(chosen_proc - 1) in
  let start = st.occupancy.(chosen_proc - 1) - Chain.work chain chosen_proc in
  st.occupancy.(chosen_proc - 1) <- start;
  for j = 1 to chosen_proc do
    st.hull.(j - 1) <- chosen_vector.(j - 1)
  done;
  Obs.count "chain.tasks_placed";
  Obs.count ~n:chosen_proc "chain.hull_updates";
  { task; chosen_proc; chosen_vector; start; all_candidates; state_before }

let place = place_with ~select

(* Placement without the step record: same state mutation and counters as
   [place_with], but no [state_before] deep copy and no retained candidate
   array — for callers with no observer installed. *)
let place_light ~select chain st =
  let all_candidates = candidates chain st in
  let proc = select all_candidates + 1 in
  let vector = all_candidates.(proc - 1) in
  let start = st.occupancy.(proc - 1) - Chain.work chain proc in
  st.occupancy.(proc - 1) <- start;
  for j = 1 to proc do
    st.hull.(j - 1) <- vector.(j - 1)
  done;
  Obs.count "chain.tasks_placed";
  Obs.count ~n:proc "chain.hull_updates";
  (proc, vector, start)

let horizon = Chain.master_only_makespan

(* Placements land last task first: task [n]'s vector opens [pool],
   task 1's closes it.  Room for [proc] more ints, doubling. *)
let reserve pool ~used ~proc =
  if used + proc > Array.length !pool then begin
    let grown = Array.make (max (used + proc) (2 * Array.length !pool)) 0 in
    Array.blit !pool 0 grown 0 used;
    pool := grown
  end

(* The schedule's columns in task order, every date moved so that the
   earliest emission is at 0 (the paper's final normalisation).
   [offsets.(task)] holds the task's processor until the prefix sum. *)
let columns chain ~starts ~offsets pool =
  let n = Array.length starts in
  for i = 1 to n do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let total = offsets.(n) in
  let emissions = Array.make total 0 in
  for i = 0 to n - 1 do
    Array.blit pool (total - offsets.(i + 1)) emissions offsets.(i)
      (offsets.(i + 1) - offsets.(i))
  done;
  let first = ref max_int in
  for i = 0 to n - 1 do
    first := min !first emissions.(offsets.(i))
  done;
  if n > 0 then begin
    let d = !first in
    for i = 0 to n - 1 do
      starts.(i) <- starts.(i) - d
    done;
    for k = 0 to total - 1 do
      emissions.(k) <- emissions.(k) - d
    done
  end;
  Schedule.of_columns chain ~starts ~offsets ~emissions

let schedule_core ~select ?on_step chain n =
  if n < 0 then invalid_arg "Algorithm.schedule: negative task count";
  Obs.span "chain.schedule" ~args:[ ("n", string_of_int n) ] @@ fun () ->
  let st = initial_state chain ~horizon:(horizon chain n) in
  let starts = Array.make n 0 and offsets = Array.make (n + 1) 0 in
  let pool = ref (Array.make (2 * n) 0) and used = ref 0 in
  let record task ~proc ~start vector =
    offsets.(task) <- proc;
    starts.(task - 1) <- start;
    reserve pool ~used:!used ~proc;
    Array.blit vector 0 !pool !used proc;
    used := !used + proc
  in
  (match on_step with
  | Some f ->
      for task = n downto 1 do
        let step = place_with ~select chain st ~task in
        f step;
        record task ~proc:step.chosen_proc ~start:step.start step.chosen_vector
      done
  | None ->
      for task = n downto 1 do
        let proc, vector, start = place_light ~select chain st in
        record task ~proc ~start vector
      done);
  columns chain ~starts ~offsets !pool

let fast_schedule chain n =
  if n < 0 then invalid_arg "Algorithm.schedule: negative task count";
  Obs.span "chain.schedule" ~args:[ ("n", string_of_int n) ] @@ fun () ->
  let st = initial_state chain ~horizon:(horizon chain n) in
  let sc = Kernel.scratch () in
  let starts = Array.make n 0 and offsets = Array.make (n + 1) 0 in
  let pool = ref (Array.make (2 * n) 0) and used = ref 0 in
  for task = n downto 1 do
    let proc = Kernel.sweep chain ~hull:st.hull ~occupancy:st.occupancy sc in
    reserve pool ~used:!used ~proc;
    Kernel.blit_chosen sc ~proc !pool ~pos:!used;
    used := !used + proc;
    offsets.(task) <- proc;
    starts.(task - 1) <- Kernel.commit chain ~hull:st.hull ~occupancy:st.occupancy sc ~proc
  done;
  Kernel.flush sc;
  columns chain ~starts ~offsets !pool

let schedule ?on_step chain n =
  match on_step with
  | None -> fast_schedule chain n
  | Some _ -> schedule_core ~select ?on_step chain n

let schedule_with_selector ~select chain n = schedule_core ~select chain n

let makespan chain n =
  if n = 0 then 0
  else begin
    Obs.span "chain.makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    (* The last-placed (first-emitted) task fixes the shift; task n always
       finishes exactly at the horizon. *)
    let st = initial_state chain ~horizon:(horizon chain n) in
    let sc = Kernel.scratch () in
    let first_emission = ref 0 in
    for task = n downto 1 do
      let proc = Kernel.sweep chain ~hull:st.hull ~occupancy:st.occupancy sc in
      let (_ : int) =
        Kernel.commit chain ~hull:st.hull ~occupancy:st.occupancy sc ~proc
      in
      if task = 1 then first_emission := Kernel.first_emission sc
    done;
    Kernel.flush sc;
    horizon chain n - !first_emission
  end
