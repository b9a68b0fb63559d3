module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider
module Tree = Msts_platform.Tree
module Schedule = Msts_schedule.Schedule
module Prng = Msts_util.Prng
module Asap = Msts_tree.Asap

(* The chain as a one-leg tree: node k is processor k, so a destination
   sequence reads the same on both. *)
let chain_tree chain = Tree.of_spider (Spider.of_chain chain)

let asap_schedule chain flat seq =
  Msts_schedule.Spider_schedule.leg_schedule
    (Msts_tree.Tree_schedule.to_spider (Spider.of_chain chain)
       (Asap.of_sequence flat seq))
    1

let random_restarts ?(seed = 0) ~restarts chain n =
  if restarts < 0 then invalid_arg "Local_search.random_restarts: negative restarts";
  if n < 0 then invalid_arg "Local_search.random_restarts: negative task count";
  let p = Chain.length chain in
  let flat = Msts_tree.Flat.of_tree (chain_tree chain) in
  let rng = Prng.create seed in
  let best_seq = ref (Array.make n 1) in
  let best = ref (Asap.makespan flat !best_seq) in
  for _ = 1 to restarts do
    let seq = Array.init n (fun _ -> Prng.int_in rng 1 p) in
    let makespan = Asap.makespan flat seq in
    if makespan < !best then begin
      best := makespan;
      best_seq := seq
    end
  done;
  asap_schedule chain flat !best_seq

type climb_report = {
  schedule : Schedule.t;
  start_makespan : int;
  iterations : int;
  evaluations : int;
}

(* initial sequence: the earliest-completion greedy *)
let greedy_sequence tree n =
  let sched = Msts_tree.Heuristics.(schedule Earliest_completion) tree n in
  Array.init (Msts_tree.Tree_schedule.task_count sched) (fun idx ->
      Msts_tree.Tree_schedule.node sched (idx + 1))

let hill_climb ?(seed = 0) ?(max_rounds = 50) chain n =
  if n < 0 then invalid_arg "Local_search.hill_climb: negative task count";
  let p = Chain.length chain in
  let tree = chain_tree chain in
  let flat = Msts_tree.Flat.of_tree tree in
  let rng = Prng.create seed in
  let seq = greedy_sequence tree n in
  let evaluations = ref 1 in
  let current = ref (Asap.makespan flat seq) in
  let start_makespan = !current in
  let iterations = ref 0 in
  let evaluate () =
    incr evaluations;
    Asap.makespan flat seq
  in
  (* first-improvement over a randomly ordered neighbourhood sweep *)
  let try_retarget position dest =
    let previous = seq.(position) in
    if previous = dest then false
    else begin
      seq.(position) <- dest;
      let makespan = evaluate () in
      if makespan < !current then begin
        current := makespan;
        true
      end
      else begin
        seq.(position) <- previous;
        false
      end
    end
  in
  let try_swap a b =
    if a = b || seq.(a) = seq.(b) then false
    else begin
      let sa = seq.(a) and sb = seq.(b) in
      seq.(a) <- sb;
      seq.(b) <- sa;
      let makespan = evaluate () in
      if makespan < !current then begin
        current := makespan;
        true
      end
      else begin
        seq.(a) <- sa;
        seq.(b) <- sb;
        false
      end
    end
  in
  let round () =
    let improved = ref false in
    if n > 0 then begin
      let order = Prng.permutation rng n in
      Array.iter
        (fun position ->
          for dest = 1 to p do
            if try_retarget position dest then begin
              improved := true;
              incr iterations
            end
          done)
        order;
      for _ = 1 to n do
        let a = Prng.int rng n and b = Prng.int rng n in
        if try_swap a b then begin
          improved := true;
          incr iterations
        end
      done
    end;
    !improved
  in
  let rounds = ref 0 in
  while !rounds < max_rounds && round () do
    incr rounds
  done;
  {
    schedule = asap_schedule chain flat seq;
    start_makespan;
    iterations = !iterations;
    evaluations = !evaluations;
  }

let hill_climb_makespan ?seed ?max_rounds chain n =
  Schedule.makespan (hill_climb ?seed ?max_rounds chain n).schedule
