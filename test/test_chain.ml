(* Tests for the core contribution: the backward chain algorithm (§3), its
   deadline variant (§7), the structural lemmas (§4) and the construction
   trace. *)

open Helpers

(* ---------- the paper's worked example (Figure 2 / Figure 7) ---------- *)

let figure2_exact () =
  let s = Msts.Chain_algorithm.schedule figure2_chain 5 in
  Alcotest.(check int) "makespan 14" 14 (Msts.Schedule.makespan s);
  let expect = [ (1, 2, [ 0 ]); (1, 5, [ 2 ]); (2, 9, [ 4; 6 ]); (1, 8, [ 6 ]); (1, 11, [ 9 ]) ] in
  List.iteri
    (fun idx (proc, start, comms) ->
      let e = Schedule_reference.chain_row s (idx + 1) in
      Alcotest.(check int) (Printf.sprintf "P(%d)" (idx + 1)) proc e.proc;
      Alcotest.(check int) (Printf.sprintf "T(%d)" (idx + 1)) start e.start;
      Alcotest.(check (list int))
        (Printf.sprintf "C(%d)" (idx + 1))
        comms
        (Array.to_list e.comms))
    expect

let figure2_second_task_buffered () =
  (* the dashed curve of Figure 2: task 2 arrives at 4 but starts at 5 *)
  let s = Msts.Chain_algorithm.schedule figure2_chain 5 in
  let e = Schedule_reference.chain_row s 2 in
  let arrival =
    e.comms.(0) + Msts.Chain.latency figure2_chain 1
  in
  Alcotest.(check int) "arrival" 4 arrival;
  Alcotest.(check int) "start (delayed by one)" 5 e.start

let horizon_formula () =
  Alcotest.(check int) "T-inf" 17 (Msts.Chain_algorithm.horizon figure2_chain 5);
  Alcotest.(check int) "T-inf n=0" 0 (Msts.Chain_algorithm.horizon figure2_chain 0)

(* ---------- limit cases ---------- *)

let single_processor () =
  let chain = Msts.Chain.of_pairs [ (2, 5) ] in
  let s = Msts.Chain_algorithm.schedule chain 4 in
  Alcotest.(check int) "p=1 makespan" (2 + (3 * 5) + 5) (Msts.Schedule.makespan s);
  Alcotest.(check bool) "feasible" true (check_feasible s)

let single_processor_comm_bound () =
  let chain = Msts.Chain.of_pairs [ (5, 2) ] in
  let s = Msts.Chain_algorithm.schedule chain 4 in
  Alcotest.(check int) "comm-bound makespan" (5 + (3 * 5) + 2) (Msts.Schedule.makespan s)

let single_task () =
  (* n=1 picks the processor with minimal path latency + work *)
  let chain = Msts.Chain.of_pairs [ (2, 30); (3, 4); (1, 20) ] in
  let s = Msts.Chain_algorithm.schedule chain 1 in
  Alcotest.(check int) "best processor" 2 (Msts.Schedule.proc s 1);
  Alcotest.(check int) "makespan" (2 + 3 + 4) (Msts.Schedule.makespan s)

let zero_tasks () =
  let s = Msts.Chain_algorithm.schedule figure2_chain 0 in
  Alcotest.(check int) "empty" 0 (Msts.Schedule.task_count s);
  Alcotest.(check int) "makespan 0" 0 (Msts.Schedule.makespan s);
  Alcotest.(check int) "makespan fn" 0 (Msts.Chain_algorithm.makespan figure2_chain 0)

let negative_tasks_rejected () =
  Alcotest.check_raises "negative n"
    (Invalid_argument "Algorithm.schedule: negative task count") (fun () ->
      ignore (Msts.Chain_algorithm.schedule figure2_chain (-1)))

(* ---------- candidate machinery ---------- *)

let candidates_shape () =
  let st = Msts.Chain_algorithm.initial_state figure2_chain ~horizon:17 in
  let cands = Msts.Chain_algorithm.candidates figure2_chain st in
  Alcotest.(check int) "one candidate per processor" 2 (Array.length cands);
  Alcotest.(check int) "candidate 1 length" 1 (Array.length cands.(0));
  Alcotest.(check int) "candidate 2 length" 2 (Array.length cands.(1));
  (* from the paper's walk-through: first placement on P1 emits at 12 *)
  Alcotest.(check int) "kC1 for P1" 12 cands.(0).(0);
  Alcotest.(check (list int)) "kC for P2" [ 7; 9 ] (Array.to_list cands.(1));
  Alcotest.(check int) "select picks P1" 0 (Msts.Chain_algorithm.select cands)

let place_updates_state () =
  let st = Msts.Chain_algorithm.initial_state figure2_chain ~horizon:17 in
  let step = Msts.Chain_algorithm.place figure2_chain st ~task:5 in
  Alcotest.(check int) "chose P1" 1 step.Msts.Chain_algorithm.chosen_proc;
  Alcotest.(check int) "start 14" 14 step.Msts.Chain_algorithm.start;
  Alcotest.(check int) "occupancy updated" 14 st.Msts.Chain_algorithm.occupancy.(0);
  Alcotest.(check int) "hull updated" 12 st.Msts.Chain_algorithm.hull.(0);
  Alcotest.(check int) "other hull untouched" 17 st.Msts.Chain_algorithm.hull.(1)

(* ---------- schedules are always feasible ---------- *)

let always_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"algorithm output satisfies Definition 1"
       (chain_with_n_arb ~max_p:6 ~max_n:25 ~max_val:12 ())
       (fun (chain, n) -> check_feasible (Msts.Chain_algorithm.schedule chain n)))

let emissions_sorted =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"tasks are emitted in index order"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         let s = Msts.Chain_algorithm.schedule chain n in
         emission_order s = List.init n (fun i -> i + 1)))

let starts_at_zero =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"normalised schedule starts at time 0"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         n = 0 || start_time (Msts.Chain_algorithm.schedule chain n) = 0))

(* ---------- Theorem 1: optimality ---------- *)

let optimal_vs_brute_force =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Theorem 1: makespan equals brute force"
       (chain_with_n_arb ~max_p:4 ~max_n:7 ())
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         = Msts.Brute_force.chain_makespan chain n))

let optimal_extreme_profiles =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:250 ~name:"Theorem 1 under extreme heterogeneity"
       (QCheck.make
          ~print:(fun (chain, n) ->
            Printf.sprintf "%s, n=%d" (Msts.Chain.to_string chain) n)
          QCheck.Gen.(
            pair
              (map Msts.Chain.of_pairs
                 (list_size (int_range 1 3)
                    (pair (int_range 1 40) (int_range 1 40))))
              (int_range 0 6)))
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         = Msts.Brute_force.chain_makespan chain n))

let pruned_oracle_agrees_with_enumeration =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"the two exact oracles (enumeration, pruned search) agree"
       (chain_with_n_arb ~max_p:4 ~max_n:7 ())
       (fun (chain, n) ->
         Msts.Brute_force.chain_makespan chain n
         = Msts.Brute_force.chain_makespan_pruned chain n))

let optimal_vs_pruned_oracle =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"Theorem 1 at larger n (dominance-pruned oracle, n up to 12)"
       (QCheck.make
          ~print:(fun (chain, n) ->
            Printf.sprintf "%s, n=%d" (Msts.Chain.to_string chain) n)
          QCheck.Gen.(pair (chain_gen ~max_p:5 ~max_val:8 ()) (int_range 8 12)))
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         = Msts.Brute_force.chain_makespan_pruned chain n))

let makespan_agrees_with_schedule =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"makespan() equals makespan of schedule()"
       (chain_with_n_arb ~max_p:5 ~max_n:20 ())
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         = Msts.Schedule.makespan (Msts.Chain_algorithm.schedule chain n)))

let makespan_monotone_in_n =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"optimal makespan is non-decreasing in n"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         <= Msts.Chain_algorithm.makespan chain (n + 1)))

let never_worse_than_heuristics =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"optimal beats every forward heuristic"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         let opt = Msts.Chain_algorithm.makespan chain n in
         List.for_all
           (fun (_, policy) -> opt <= chain_heuristic_makespan policy chain n)
           Msts.Tree_heuristics.chain_policies))

let bounded_by_master_only =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"optimal never exceeds the T-inf horizon"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         Msts.Chain_algorithm.makespan chain n
         <= Msts.Chain.master_only_makespan chain n))

(* ---------- deadline variant ---------- *)

let deadline_fig2 () =
  (* Tlim = 14 fits exactly the 5 tasks of Figure 2 *)
  Alcotest.(check int) "14 fits 5" 5 (Msts.Chain_deadline.max_tasks figure2_chain ~deadline:14);
  Alcotest.(check int) "13 fits 4" 4 (Msts.Chain_deadline.max_tasks figure2_chain ~deadline:13);
  Alcotest.(check int) "4 fits none" 0 (Msts.Chain_deadline.max_tasks figure2_chain ~deadline:4);
  Alcotest.(check int) "0 fits none" 0 (Msts.Chain_deadline.max_tasks figure2_chain ~deadline:0)

let deadline_schedule_fits =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"deadline schedules are feasible and fit"
       (QCheck.make
          ~print:(fun (chain, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Chain.to_string chain) d)
          QCheck.Gen.(pair (chain_gen ~max_p:5 ()) (int_range 0 80)))
       (fun (chain, deadline) ->
         let s = Msts.Chain_deadline.schedule chain ~deadline in
         check_feasible s && Msts.Schedule.makespan s <= deadline
         || Msts.Schedule.task_count s = 0))

let deadline_vs_brute_force =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:250 ~name:"deadline variant is optimal (vs brute force)"
       (QCheck.make
          ~print:(fun (chain, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Chain.to_string chain) d)
          QCheck.Gen.(pair (chain_gen ~max_p:3 ()) (int_range 0 50)))
       (fun (chain, deadline) ->
         min 7 (Msts.Chain_deadline.max_tasks chain ~deadline)
         = Msts.Brute_force.max_tasks (Msts.Spider.of_chain chain) ~deadline ~limit:7))

let deadline_staircase_monotone =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"task count is monotone in the deadline"
       (QCheck.make
          ~print:(fun (chain, d) ->
            Printf.sprintf "%s, d=%d" (Msts.Chain.to_string chain) d)
          QCheck.Gen.(pair (chain_gen ~max_p:4 ()) (int_range 0 60)))
       (fun (chain, d) ->
         Msts.Chain_deadline.max_tasks chain ~deadline:d
         <= Msts.Chain_deadline.max_tasks chain ~deadline:(d + 1)))

let deadline_budget_cap () =
  let s = Msts.Chain_deadline.schedule ~max_tasks:2 figure2_chain ~deadline:14 in
  Alcotest.(check int) "capped at 2" 2 (Msts.Schedule.task_count s);
  Alcotest.(check bool) "still feasible" true (check_feasible s)

let deadline_inverse_consistency =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"least deadline fitting n equals the optimal makespan"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         Msts.Chain_deadline.min_makespan_via_deadline chain n
         = Msts.Chain_algorithm.makespan chain n))

let deadline_rejects_negative () =
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Deadline.max_tasks: negative deadline") (fun () ->
      ignore (Msts.Chain_deadline.max_tasks figure2_chain ~deadline:(-1)))

(* ---------- lemmas (§4) ---------- *)

let lemma1_no_crossing =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"Lemma 1: candidate vectors never cross"
       (chain_with_n_arb ~max_p:5 ~max_n:12 ())
       (fun (chain, n) -> Msts.Chain_lemmas.check_no_crossing_throughout chain n))

let lemma2_subchain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"Lemma 2: tasks beyond P1 form the sub-chain schedule"
       (chain_with_n_arb ~max_p:5 ~max_n:12 ())
       (fun (chain, n) -> Msts.Chain_lemmas.subchain_projection chain n))

let lemma4_incremental =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"incrementality: m-task optimum is a suffix of the n-task one"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) -> Msts.Chain_lemmas.incremental_suffix chain n))

(* ---------- differential: Figure 3's pseudo-code transcription ---------- *)

let pseudocode_matches_production =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"Figure 3's literal pseudo-code produces the same schedule"
       (chain_with_n_arb ~max_p:6 ~max_n:20 ~max_val:15 ())
       (fun (chain, n) ->
         Msts.Schedule.equal
           (Chain_pseudocode.schedule chain n)
           (Msts.Chain_algorithm.schedule chain n)))

let pseudocode_figure2 () =
  let s = Chain_pseudocode.schedule figure2_chain 5 in
  Alcotest.(check int) "makespan 14" 14 (Msts.Schedule.makespan s);
  Alcotest.(check bool) "identical to production" true
    (Msts.Schedule.equal s (Msts.Chain_algorithm.schedule figure2_chain 5))

let pseudocode_extremes =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"pseudo-code transcription agrees under extreme heterogeneity"
       (QCheck.make
          ~print:(fun (chain, n) ->
            Printf.sprintf "%s, n=%d" (Msts.Chain.to_string chain) n)
          QCheck.Gen.(
            pair
              (map Msts.Chain.of_pairs
                 (list_size (int_range 1 4) (pair (int_range 1 60) (int_range 1 60))))
              (int_range 0 12)))
       (fun (chain, n) ->
         Msts.Schedule.equal
           (Chain_pseudocode.schedule chain n)
           (Msts.Chain_algorithm.schedule chain n)))

(* ---------- trace ---------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let trace_records_steps () =
  let t = Msts.Chain_trace.run figure2_chain 5 in
  Alcotest.(check int) "five steps" 5 (List.length t.Msts.Chain_trace.steps);
  Alcotest.(check int) "horizon" 17 t.Msts.Chain_trace.horizon;
  let step =
    List.find (fun s -> s.Msts.Chain_algorithm.task = 3) t.Msts.Chain_trace.steps
  in
  Alcotest.(check int) "task 3 on P2" 2 step.Msts.Chain_algorithm.chosen_proc;
  Alcotest.(check bool) "result is the schedule" true
    (Msts.Schedule.equal t.Msts.Chain_trace.result
       (Msts.Chain_algorithm.schedule figure2_chain 5))

let trace_renders () =
  let t = Msts.Chain_trace.run figure2_chain 3 in
  let text = Msts.Chain_trace.render t in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~sub:needle text))
    [ "Placing task 3"; "greatest (Def. 3)"; "candidate for P1"; "makespan" ]

let suites =
  [
    ( "chain.figure2",
      [
        case "exact reproduction of Figure 2" figure2_exact;
        case "task 2 is buffered (dashed curve)" figure2_second_task_buffered;
        case "horizon formula" horizon_formula;
      ] );
    ( "chain.limits",
      [
        case "p=1 compute-bound" single_processor;
        case "p=1 communication-bound" single_processor_comm_bound;
        case "n=1 picks the best processor" single_task;
        case "n=0" zero_tasks;
        case "n<0 rejected" negative_tasks_rejected;
      ] );
    ( "chain.machinery",
      [
        case "candidate vectors" candidates_shape;
        case "place mutates hull and occupancy" place_updates_state;
      ] );
    ( "chain.properties",
      [
        always_feasible;
        emissions_sorted;
        starts_at_zero;
        makespan_agrees_with_schedule;
        makespan_monotone_in_n;
        never_worse_than_heuristics;
        bounded_by_master_only;
      ] );
    ( "chain.optimality",
      [
        optimal_vs_brute_force;
        optimal_extreme_profiles;
        pruned_oracle_agrees_with_enumeration;
        optimal_vs_pruned_oracle;
      ] );
    ( "chain.deadline",
      [
        case "figure-2 staircase anchors" deadline_fig2;
        deadline_schedule_fits;
        deadline_vs_brute_force;
        deadline_staircase_monotone;
        case "budget cap" deadline_budget_cap;
        deadline_inverse_consistency;
        case "negative deadline rejected" deadline_rejects_negative;
      ] );
    ( "chain.lemmas",
      [ lemma1_no_crossing; lemma2_subchain; lemma4_incremental ] );
    ( "chain.pseudocode",
      [
        pseudocode_matches_production;
        case "figure 2 via the transcription" pseudocode_figure2;
        pseudocode_extremes;
      ] );
    ( "chain.trace",
      [
        case "records every placement" trace_records_steps;
        case "renders the narrative" trace_renders;
      ] );
  ]
