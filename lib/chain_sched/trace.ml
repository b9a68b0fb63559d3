module Chain = Msts_platform.Chain
module Comm_vector = Msts_schedule.Comm_vector

type t = {
  chain : Chain.t;
  n : int;
  horizon : int;
  steps : Algorithm.step list;
  result : Msts_schedule.Schedule.t;
}

let run chain n =
  let acc = ref [] in
  let result = Algorithm.schedule ~on_step:(fun s -> acc := s :: !acc) chain n in
  {
    chain;
    n;
    horizon = Algorithm.horizon chain n;
    steps = List.rev !acc;
    result;
  }

let render t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "Backward construction on %s, n = %d, horizon T-inf = %d\n"
    (Chain.to_string t.chain) t.n t.horizon;
  List.iter
    (fun (s : Algorithm.step) ->
      Printf.bprintf buf "\nPlacing task %d:\n" s.task;
      Array.iteri
        (fun idx v ->
          Printf.bprintf buf "  candidate for P%d: %s%s\n" (idx + 1)
            (Comm_vector.to_string v)
            (if idx + 1 = s.chosen_proc then "   <- greatest (Def. 3)" else ""))
        s.all_candidates;
      Printf.bprintf buf "  => P(%d) = %d, T(%d) = %d (before shift)\n" s.task
        s.chosen_proc s.task s.start)
    t.steps;
  let shift =
    match t.steps with
    | [] -> 0
    | _ ->
        (* the shift is the first emission of the earliest task *)
        let earliest =
          List.fold_left
            (fun acc (s : Algorithm.step) -> min acc s.chosen_vector.(0))
            max_int t.steps
        in
        earliest
  in
  Printf.bprintf buf "\nFinal shift: %d time units; makespan = %d\n" shift
    (Msts_schedule.Schedule.makespan t.result);
  Buffer.contents buf
