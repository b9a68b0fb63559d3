(* Deadline harvesting (the §7 deadline variant).

   An operator has the platform until a hard deadline (say, until the lab
   reopens) and wants to finish as many work units as possible.  This
   example walks the deadline variant of the chain algorithm and its spider
   extension:

     - the task-count staircase as a function of the deadline;
     - its inverse consistency with the makespan variant (the least
       deadline admitting n tasks equals the optimal makespan for n);
     - the paper's own worked instance (Figure 2) re-done under a deadline,
       including the chain -> fork transformation of Figure 7.

   Run with: dune exec examples/deadline_harvest.exe *)

let () =
  (* The paper's Figure 2 chain. *)
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ] in

  let table =
    Msts.Table.create ~title:"tasks harvested within a deadline (Fig. 2 chain)"
      ~columns:[ "deadline"; "tasks"; "makespan used" ]
  in
  List.iter
    (fun deadline ->
      let sched = Msts.Chain_deadline.schedule chain ~deadline in
      assert (Msts.Plan.check ~require_nonnegative:true (Msts.Plan.Chain sched) = []);
      assert (Msts.Schedule.makespan sched <= deadline);
      Msts.Table.add_row table
        [
          string_of_int deadline;
          string_of_int (Msts.Schedule.task_count sched);
          string_of_int (Msts.Schedule.makespan sched);
        ])
    (Msts.Intx.range 4 20);
  Msts.Table.print table;

  (* Inverse consistency: least deadline fitting n = optimal makespan(n). *)
  print_newline ();
  List.iter
    (fun n ->
      let direct = Msts.Chain_algorithm.makespan chain n in
      let inverse = Msts.Chain_deadline.min_makespan_via_deadline chain n in
      Printf.printf "n=%2d  optimal makespan %2d  via deadline search %2d  %s\n" n
        direct inverse
        (if direct = inverse then "ok" else "MISMATCH");
      assert (direct = inverse))
    [ 1; 2; 3; 5; 8; 13 ];

  (* Figure 7: the chain seen by the master as a fork of single-task nodes. *)
  print_newline ();
  let deadline = 14 in
  let trace = Msts.Spider_trace.run (Msts.Spider.of_chain chain) ~deadline in
  let tasks = trace.Msts.Spider_trace.leg_tasks.(0) in
  Printf.printf
    "Figure 7 reproduction: deadline %d fits %d tasks; virtual nodes:\n" deadline
    tasks;
  (* allocation order runs from the leg's last task back to its first *)
  let nodes = List.rev trace.Msts.Spider_trace.virtual_nodes in
  List.iter
    (fun v ->
      Printf.printf "  comm %d, remaining work %d (task %d of the leg schedule)\n"
        v.Msts.Fork_expansion.comm v.Msts.Fork_expansion.work
        (tasks - v.Msts.Fork_expansion.rank))
    nodes;
  (* the paper's Figure 7: works {12,10,8,6,3}, every comm c1 = 2 *)
  assert (
    List.map (fun v -> v.Msts.Fork_expansion.work) nodes = [ 12; 10; 8; 6; 3 ]);
  assert (List.for_all (fun v -> v.Msts.Fork_expansion.comm = 2) nodes);

  (* The same harvest on a spider: two instruments share the master. *)
  print_newline ();
  let spider =
    Msts.Spider.of_legs [ chain; Msts.Chain.of_pairs [ (1, 4); (2, 6) ] ]
  in
  let table2 =
    Msts.Table.create ~title:"spider harvest (Fig. 2 chain + a second leg)"
      ~columns:[ "deadline"; "tasks"; "on leg 1"; "on leg 2" ]
  in
  List.iter
    (fun deadline ->
      let sched = Msts.Spider_algorithm.schedule spider ~deadline in
      assert (Msts.Spider_schedule.meets_deadline sched ~deadline);
      Msts.Table.add_row table2
        [
          string_of_int deadline;
          string_of_int (Msts.Spider_schedule.task_count sched);
          string_of_int (List.length (Msts.Spider_schedule.tasks_on_leg sched 1));
          string_of_int (List.length (Msts.Spider_schedule.tasks_on_leg sched 2));
        ])
    [ 6; 8; 10; 12; 14; 16; 20; 24 ];
  Msts.Table.print table2
