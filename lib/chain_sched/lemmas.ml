module Chain = Msts_platform.Chain
module Comm_vector = Msts_schedule.Comm_vector
module Schedule = Msts_schedule.Schedule
module Columns = Msts_schedule.Columns

let suffix v q = Array.sub v (q - 1) (Array.length v - q + 1)

let no_crossing chain st =
  let cands = Algorithm.candidates chain st in
  let p = Array.length cands in
  let violation = ref None in
  for k = 1 to p do
    for l = 1 to p do
      if !violation = None && k <> l
         && Comm_vector.precedes cands.(k - 1) cands.(l - 1)
      then
        for q = 1 to min k l do
          if !violation = None
             && Comm_vector.precedes (suffix cands.(l - 1) q) (suffix cands.(k - 1) q)
          then violation := Some (k, l, q)
        done
    done
  done;
  !violation

let check_no_crossing_throughout chain n =
  let ok = ref true in
  let check step =
    if no_crossing chain step.Algorithm.state_before <> None then ok := false
  in
  let (_ : Schedule.t) = Algorithm.schedule ~on_step:check chain n in
  !ok

let subchain_projection chain n =
  if Chain.length chain < 2 then true
  else begin
    let full = Algorithm.schedule chain n in
    let projected = Schedule.restrict_beyond_first full in
    let expected =
      Algorithm.schedule (Chain.drop_first chain) (Schedule.task_count projected)
    in
    Schedule.task_count projected = 0
    || Schedule.equal_modulo_shift projected expected
  end

let incremental_suffix chain n =
  let full = Algorithm.schedule chain n in
  let ok = ref true in
  for m = 1 to n - 1 do
    let tail = Columns.filter (Schedule.columns full) ~keep:(fun i -> i > n - m) in
    let tail_schedule =
      Schedule.of_columns chain ~starts:tail.starts ~offsets:tail.offsets
        ~emissions:tail.emissions
    in
    let expected = Algorithm.schedule chain m in
    if not (Schedule.equal_modulo_shift tail_schedule expected) then ok := false
  done;
  !ok
