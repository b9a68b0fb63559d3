(* Quickstart: schedule 8 identical tasks on a small heterogeneous chain,
   inspect the result, check it against Definition 1, and compare with what
   a naive forward heuristic would have done.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A chain of three workers behind the master: each pair is
     (link latency, per-task work time), nearest worker first. *)
  let chain = Msts.Chain.of_pairs [ (2, 5); (1, 4); (3, 3) ] in
  let n = 8 in

  (* The paper's algorithm: optimal makespan, O(n p^2). *)
  let schedule = Msts.Chain_algorithm.schedule chain n in
  Printf.printf "Optimal makespan for %d tasks: %d\n\n" n
    (Msts.Schedule.makespan schedule);
  print_endline (Msts.Schedule.to_string schedule);

  (* The Definition 1 audit shares no code with the constructor. *)
  assert (Msts.Plan.check ~require_nonnegative:true (Msts.Plan.Chain schedule) = []);

  (* Where did each task go, and how busy was each processor? *)
  List.iter
    (fun k ->
      Printf.printf "processor %d runs tasks %s\n" k
        (String.concat ", "
           (List.map string_of_int (Msts.Schedule.tasks_on schedule k))))
    [ 1; 2; 3 ];

  print_newline ();
  print_endline (Msts.Plan.gantt ~width:80 (Msts.Plan.Chain schedule));

  (* How much does optimality buy over sensible heuristics? *)
  print_newline ();
  let tree = Msts.Tree.of_spider (Msts.Spider.of_chain chain) in
  List.iter
    (fun (name, policy) ->
      Printf.printf "%-22s -> makespan %d\n" name
        (Msts.Tree_heuristics.makespan policy tree n))
    Msts.Tree_heuristics.chain_policies;
  Printf.printf "%-22s -> makespan %d\n" "optimal (this paper)"
    (Msts.Schedule.makespan schedule)
