(* Tests for the fork-graph substrate (§6): virtual-node expansion
   (Figure 6), the greedy one-port allocator, and fork schedules, which the
   spider algorithm writes on [Spider.of_fork]. *)

open Helpers

(* ---------- expansion (Figure 6) ---------- *)

let virtual_work_formula () =
  (* Figure 6: (c,w) becomes w, w+m, w+2m, ... with m = max(c,w) *)
  Alcotest.(check int) "rank 0" 4 (Msts.Fork_expansion.virtual_work ~c:2 ~w:4 ~rank:0);
  Alcotest.(check int) "rank 1, compute-bound" 8
    (Msts.Fork_expansion.virtual_work ~c:2 ~w:4 ~rank:1);
  Alcotest.(check int) "rank 2, compute-bound" 12
    (Msts.Fork_expansion.virtual_work ~c:2 ~w:4 ~rank:2);
  Alcotest.(check int) "rank 1, comm-bound" 9
    (Msts.Fork_expansion.virtual_work ~c:5 ~w:4 ~rank:1)

let expansion_counts () =
  let fork = Msts.Fork.of_pairs [ (1, 2); (3, 4) ] in
  let nodes = Msts.Fork_expansion.expand fork ~count:3 in
  Alcotest.(check int) "3 per slave" 6 (List.length nodes);
  (* sorted by ascending comm then work *)
  let comms = List.map (fun v -> v.Msts.Fork_expansion.comm) nodes in
  Alcotest.(check (list int)) "comm sorted" [ 1; 1; 1; 3; 3; 3 ] comms;
  let works = List.map (fun v -> v.Msts.Fork_expansion.work) nodes in
  Alcotest.(check (list int)) "works" [ 2; 4; 6; 4; 8; 12 ] works

let expansion_order_ties () =
  (* equal comm: ascending work breaks the tie *)
  let fork = Msts.Fork.of_pairs [ (2, 9); (2, 1) ] in
  let nodes = Msts.Fork_expansion.expand fork ~count:2 in
  let works = List.map (fun v -> v.Msts.Fork_expansion.work) nodes in
  Alcotest.(check (list int)) "tie broken by work" [ 1; 3; 9; 18 ] works

(* ---------- allocator ---------- *)

(* The oracle: a set of virtual nodes meets the deadline when, emitted by
   decreasing work, each node's work ends by it after the transfers
   emitted so far and its own. *)
let is_feasible_set nodes ~deadline =
  let sorted =
    List.sort
      (fun (a : Msts.Fork_expansion.vnode) b -> Int.compare b.work a.work)
      nodes
  in
  let rec check prefix = function
    | [] -> true
    | (node : Msts.Fork_expansion.vnode) :: rest ->
        prefix + node.comm + node.work <= deadline
        && check (prefix + node.comm) rest
  in
  check 0 sorted

(* [(slave, tasks allocated to it)], slaves in increasing order. *)
let tasks_per_slave allocs =
  let slaves =
    List.sort_uniq compare
      (List.map (fun a -> a.Kernel_reference.node.Msts.Fork_expansion.slave) allocs)
  in
  List.map
    (fun slave ->
      ( slave,
        List.length
          (List.filter
             (fun a -> a.Kernel_reference.node.Msts.Fork_expansion.slave = slave)
             allocs) ))
    slaves

let feasible_set_condition () =
  (* prefix condition: sum of comms before each node + its work <= Tlim *)
  let node slave comm work = { Msts.Fork_expansion.slave; rank = 0; comm; work } in
  Alcotest.(check bool) "fits" true
    (is_feasible_set [ node 1 2 8; node 2 3 5 ] ~deadline:10);
  (* emitted in decreasing work order: (2,8) then (3,5): 2+8=10 ok; 2+3+5=10 ok *)
  Alcotest.(check bool) "tight fits" true
    (is_feasible_set [ node 1 2 8; node 2 3 5 ] ~deadline:10);
  Alcotest.(check bool) "overflow" false
    (is_feasible_set [ node 1 2 8; node 2 3 6 ] ~deadline:10)

let allocate_emits_back_to_back () =
  let fork = Msts.Fork.of_pairs [ (2, 3) ] in
  let nodes = Msts.Fork_expansion.expand fork ~count:4 in
  let allocs = allocate nodes ~deadline:14 ~budget:10 in
  (* works 3,6,9,12: emitted 12 first. 2+12=14; 4+9=13; 6+6=12; 8+3=11 *)
  Alcotest.(check int) "four accepted" 4 (List.length allocs);
  List.iteri
    (fun idx a ->
      Alcotest.(check int) "back-to-back" (2 * idx) a.Kernel_reference.emission)
    allocs;
  let works = List.map (fun a -> a.Kernel_reference.node.Msts.Fork_expansion.work) allocs in
  Alcotest.(check (list int)) "decreasing work order" [ 12; 9; 6; 3 ] works

let allocate_budget () =
  let fork = Msts.Fork.of_pairs [ (1, 1) ] in
  let nodes = Msts.Fork_expansion.expand fork ~count:50 in
  let allocs = allocate nodes ~deadline:1000 ~budget:5 in
  Alcotest.(check int) "budget respected" 5 (List.length allocs)

let tasks_per_slave_counts () =
  let fork = Msts.Fork.of_pairs [ (1, 2); (4, 1) ] in
  let nodes = Msts.Fork_expansion.expand fork ~count:6 in
  let allocs = allocate nodes ~deadline:12 ~budget:100 in
  let per_slave = tasks_per_slave allocs in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 per_slave in
  Alcotest.(check int) "totals agree" (List.length allocs) total;
  List.iter (fun (slave, k) -> Alcotest.(check bool) "valid slave" true (slave >= 1 && slave <= 2 && k > 0)) per_slave

let allocator_prefix_ranks =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"accepted ranks form a prefix per slave (0..k-1)"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ()) (int_range 0 60)))
       (fun (fork, deadline) ->
         let nodes = Msts.Fork_expansion.expand fork ~count:8 in
         let allocs = allocate nodes ~deadline ~budget:8 in
         List.for_all
           (fun (slave, k) ->
             let ranks =
               List.filter_map
                 (fun a ->
                   let v = a.Kernel_reference.node in
                   if v.Msts.Fork_expansion.slave = slave then
                     Some v.Msts.Fork_expansion.rank
                   else None)
                 allocs
             in
             List.sort compare ranks = List.init k (fun i -> i))
           (tasks_per_slave allocs)))

let allocator_feasible_output =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"allocated set satisfies the prefix condition"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ()) (int_range 0 60)))
       (fun (fork, deadline) ->
         let nodes = Msts.Fork_expansion.expand fork ~count:8 in
         let allocs = allocate nodes ~deadline ~budget:8 in
         is_feasible_set
           (List.map (fun a -> a.Kernel_reference.node) allocs)
           ~deadline))

let allocator_optimal_vs_brute_force =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"fork algorithm is optimal (vs spider brute force)"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ~max_val:8 ()) (int_range 0 40)))
       (fun (fork, deadline) ->
         min 6 (fork_max_tasks fork ~deadline ~budget:6)
         = Msts.Brute_force.max_tasks (Msts.Spider.of_fork fork) ~deadline ~limit:6))

let allocator_monotone_in_deadline =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"accepted count is monotone in the deadline"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:3 ()) (int_range 0 50)))
       (fun (fork, d) ->
         fork_max_tasks fork ~deadline:d ~budget:10
         <= fork_max_tasks fork ~deadline:(d + 1) ~budget:10))

(* The class sweep against the insertion loop it replaced
   (Kernel_reference.allocate): arbitrary candidate lists with comm 0..5,
   many tied works and repeated nodes, every budget from 0 to past the
   list's length, deadlines from 0 to past the point where all fit.  The
   allocations and the fork.* counter totals must be equal. *)
let candidates_arb =
  QCheck.make
    ~print:(fun (nodes, budget, deadline) ->
      Printf.sprintf "budget %d, deadline %d: %s" budget deadline
        (String.concat "; " (List.map vnode_to_string nodes)))
    QCheck.Gen.(
      list_size (int_range 0 24) (pair (int_range 0 5) (int_range 0 8)) >>= fun pairs ->
      let nodes =
        List.mapi
          (fun i (comm, work) ->
            { Msts.Fork_expansion.slave = 1 + (i mod 2); rank = i / 4; comm; work })
          pairs
      in
      let reach =
        List.fold_left (fun acc (c, w) -> acc + c + w) 1 pairs
      in
      triple (return nodes)
        (int_range 0 (List.length nodes + 2))
        (int_range 0 reach))

let fork_counters f =
  let mem = Msts.Obs.Memory.create () in
  let result = Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) f in
  ( result,
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"fork." name)
      (Msts.Obs.Memory.counters mem) )

let sweep_matches_insertion =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"class sweep = frozen insertion loop (allocations and counters)"
       candidates_arb
       (fun (nodes, budget, deadline) ->
         fork_counters (fun () -> allocate nodes ~deadline ~budget)
         = fork_counters (fun () -> Kernel_reference.allocate nodes ~deadline ~budget)))

let sweep_rejects_disorder () =
  let sweep comm work =
    Msts.Fork_allocator.sweep ~comm ~work ~deadline:10 ~budget:10
  in
  (* emission order: work 3 first, its tie in arrival order *)
  Alcotest.(check (array int)) "equal works keep arrival order" [| 1; 2; 0 |]
    (sweep [| 1; 1; 2 |] [| 0; 3; 3 |]);
  Alcotest.check_raises "work falls inside a comm class"
    (Invalid_argument "Allocator.sweep: candidates out of (comm, work) order")
    (fun () -> ignore (sweep [| 1; 1 |] [| 4; 3 |]));
  Alcotest.check_raises "comm falls"
    (Invalid_argument "Allocator.sweep: candidates out of (comm, work) order")
    (fun () -> ignore (sweep [| 2; 1 |] [| 0; 9 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Allocator.sweep: length mismatch")
    (fun () -> ignore (sweep [| 1 |] [||]))

(* ---------- fork schedules ---------- *)

(* The spider algorithm on a fork: depth-1 legs, whose deadline schedules
   turn into the §6 expansion's virtual nodes (Figure 6 = Figure 7). *)
let fork_schedule fork ~deadline ~budget =
  Msts.Spider_algorithm.schedule ~budget (Msts.Spider.of_fork fork) ~deadline

let fork_schedules_are_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"fork schedules are feasible and meet the deadline"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ()) (int_range 0 60)))
       (fun (fork, deadline) ->
         let s = fork_schedule fork ~deadline ~budget:8 in
         check_spider_feasible s
         && (Msts.Spider_schedule.task_count s = 0
            || Msts.Spider_schedule.makespan s <= deadline)))

let fork_schedule_counts_match_allocator =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"fork schedules give each slave the tasks the §6 allocation accepts"
       (QCheck.make
          ~print:(fun (fork, d) ->
            Printf.sprintf "%s, d=%d" (fork_to_string fork) d)
          QCheck.Gen.(pair (fork_gen ~max_slaves:4 ()) (int_range 0 60)))
       (fun (fork, deadline) ->
         let s = fork_schedule fork ~deadline ~budget:8 in
         List.for_all
           (fun (slave, k) ->
             List.length (Msts.Spider_schedule.tasks_on_leg s slave) = k)
           (tasks_per_slave (fork_allocate fork ~deadline ~budget:8))
         && Msts.Spider_schedule.task_count s = fork_max_tasks fork ~deadline ~budget:8))

let fork_schedule_example () =
  (* one fast-link slow slave, one slow-link fast slave *)
  let fork = Msts.Fork.of_pairs [ (1, 10); (4, 2) ] in
  let s = fork_schedule fork ~deadline:20 ~budget:100 in
  Alcotest.(check bool) "feasible" true
    (Msts.Spider_schedule.is_feasible ~require_nonnegative:true s);
  Alcotest.(check bool) "meets deadline" true
    (Msts.Spider_schedule.meets_deadline s ~deadline:20);
  (* both slaves get work: the fork algorithm is bandwidth-centric *)
  Alcotest.(check bool) "slave 1 used" true
    (Msts.Spider_schedule.tasks_on_leg s 1 <> []);
  Alcotest.(check bool) "slave 2 used" true
    (Msts.Spider_schedule.tasks_on_leg s 2 <> [])

let suites =
  [
    ( "fork.expansion",
      [
        case "virtual work formula (Figure 6)" virtual_work_formula;
        case "expansion counts and order" expansion_counts;
        case "ties broken by work" expansion_order_ties;
      ] );
    ( "fork.allocator",
      [
        case "prefix feasibility condition" feasible_set_condition;
        case "back-to-back emissions" allocate_emits_back_to_back;
        case "budget respected" allocate_budget;
        case "tasks per slave" tasks_per_slave_counts;
        allocator_prefix_ranks;
        allocator_feasible_output;
        allocator_optimal_vs_brute_force;
        allocator_monotone_in_deadline;
        sweep_matches_insertion;
        case "sweep input order is checked" sweep_rejects_disorder;
      ] );
    ( "fork.schedule",
      [
        fork_schedules_are_feasible;
        fork_schedule_counts_match_allocator;
        case "bandwidth-centric example" fork_schedule_example;
      ] );
  ]
