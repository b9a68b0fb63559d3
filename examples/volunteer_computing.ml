(* Volunteer computing (the paper's motivating scenario, SETI@home-style).

   A project master distributes equal-sized work units to heterogeneous
   volunteer pools.  Each pool is modelled as a spider leg: a campus relay
   that both computes and forwards to machines behind it.  We compare:

     - the optimal spider schedule (paper, §7);
     - the online demand-driven master actually used by volunteer projects
       (idle machine asks for work; first-come-first-served), simulated on
       the discrete-event substrate;
     - myopic forward heuristics;
     - the steady-state throughput bound, showing all of them converge to
       the same rate but differ in the transient.

   Run with: dune exec examples/volunteer_computing.exe *)

let platform =
  Msts.Spider.of_legs
    [
      (* campus lab: fast link, relay plus two workstations behind it *)
      Msts.Chain.of_pairs [ (1, 6); (2, 5); (2, 7) ];
      (* cable-modem volunteers: medium link, one relay, one slow box *)
      Msts.Chain.of_pairs [ (3, 4); (4, 9) ];
      (* DSL volunteer: slow link, fast machine *)
      Msts.Chain.of_pairs [ (5, 3) ];
    ]

let () =
  Printf.printf "Platform: %s\n" (Msts.Spider.to_string platform);
  Printf.printf "Processors: %d; steady-state capacity %.3f tasks/unit\n\n"
    (Msts.Spider.processor_count platform)
    (Msts.Steady_state.spider_throughput platform);

  let table =
    Msts.Table.create ~title:"work units served: optimal vs online vs heuristics"
      ~columns:
        [ "n"; "optimal"; "pull b=1"; "pull b=3"; "greedy ECT"; "round-robin"; "opt rate" ]
  in
  List.iter
    (fun n ->
      let optimal = Msts.Spider_algorithm.min_makespan platform n in
      let pull1 =
        Msts.Spider_schedule.makespan
          (Msts.Netsim.pull_policy ~buffer:1 platform ~tasks:n)
      in
      let pull3 =
        Msts.Spider_schedule.makespan
          (Msts.Netsim.pull_policy ~buffer:3 platform ~tasks:n)
      in
      let tree = Msts.Tree.of_spider platform in
      let ect = Msts.Tree_heuristics.(makespan Earliest_completion) tree n in
      let rr = Msts.Tree_heuristics.(makespan Round_robin) tree n in
      Msts.Table.add_row table
        [
          string_of_int n;
          string_of_int optimal;
          string_of_int pull1;
          string_of_int pull3;
          string_of_int ect;
          string_of_int rr;
          Printf.sprintf "%.3f" (float_of_int n /. float_of_int optimal);
        ])
    [ 5; 10; 20; 40; 80; 160 ];
  Msts.Table.print table;

  print_newline ();
  Printf.printf
    "The optimal rate column approaches the steady-state capacity %.3f;\n"
    (Msts.Steady_state.spider_throughput platform);
  print_endline
    "the demand-driven master pays a constant-factor transient cost that";
  print_endline "larger per-node buffers only partially hide.";

  (* A small instance in full detail. *)
  let n = 12 in
  let sched = Msts.Spider_algorithm.schedule_tasks platform n in
  Printf.printf "\nOptimal schedule for %d work units (makespan %d):\n\n" n
    (Msts.Spider_schedule.makespan sched);
  print_endline (Msts.Plan.gantt ~width:90 (Msts.Plan.Spider sched));
  assert (Msts.Spider_schedule.is_feasible ~require_nonnegative:true sched)
