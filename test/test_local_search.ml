(* Tests for the metaheuristic baselines. *)

open Helpers

let restarts_feasible_and_bounded =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"random restarts: feasible and above optimal"
       (QCheck.make
          ~print:(fun ((chain, n), r) ->
            Printf.sprintf "%s, n=%d, restarts=%d" (Msts.Chain.to_string chain) n r)
          QCheck.Gen.(
            pair (pair (chain_gen ~max_p:4 ()) (int_range 0 10)) (int_range 0 30)))
       (fun ((chain, n), restarts) ->
         let s = Msts.Local_search.random_restarts ~restarts chain n in
         check_feasible s
         && Msts.Schedule.task_count s = n
         && Msts.Schedule.makespan s >= Msts.Chain_algorithm.makespan chain n))

let restarts_never_worse_than_master_only =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"random restarts include the master-only fallback"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         Msts.Schedule.makespan (Msts.Local_search.random_restarts ~restarts:0 chain n)
         <= Msts.Chain.master_only_makespan chain n))

let hill_climb_improves_or_keeps =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"hill climbing never ends above its start"
       (chain_with_n_arb ~max_p:5 ~max_n:15 ())
       (fun (chain, n) ->
         let r = Msts.Local_search.hill_climb chain n in
         Msts.Schedule.makespan r.Msts.Local_search.schedule
         <= r.Msts.Local_search.start_makespan
         && check_feasible r.Msts.Local_search.schedule))

let hill_climb_sandwiched =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"hill climbing lands between optimal and the greedy start"
       (chain_with_n_arb ~max_p:4 ~max_n:12 ())
       (fun (chain, n) ->
         let r = Msts.Local_search.hill_climb chain n in
         let m = Msts.Schedule.makespan r.Msts.Local_search.schedule in
         Msts.Chain_algorithm.makespan chain n <= m
         && m <= chain_heuristic_makespan Msts.Tree_heuristics.Earliest_completion chain n))

let hill_climb_often_optimal () =
  (* statistical check: on small instances the climber usually closes the
     greedy gap entirely *)
  let rng = Msts.Prng.create 31415 in
  let optimal = ref 0 in
  let trials = 60 in
  for _ = 1 to trials do
    let chain =
      Msts.Generator.chain rng Msts.Generator.default_profile
        ~p:(Msts.Prng.int_in rng 2 4)
    in
    let n = Msts.Prng.int_in rng 4 10 in
    if
      Msts.Local_search.hill_climb_makespan chain n
      = Msts.Chain_algorithm.makespan chain n
    then incr optimal
  done;
  Alcotest.(check bool)
    (Printf.sprintf "optimal on %d/%d small instances (needs > 60%%)" !optimal trials)
    true
    (!optimal * 10 > trials * 6)

let deterministic_by_seed () =
  let chain = figure2_chain in
  let a = Msts.Local_search.hill_climb ~seed:7 chain 12 in
  let b = Msts.Local_search.hill_climb ~seed:7 chain 12 in
  Alcotest.(check bool) "same seed, same schedule" true
    (Msts.Schedule.equal a.Msts.Local_search.schedule b.Msts.Local_search.schedule);
  Alcotest.(check int) "same evaluations" a.Msts.Local_search.evaluations
    b.Msts.Local_search.evaluations

let rejects_negative () =
  Alcotest.check_raises "negative restarts"
    (Invalid_argument "Local_search.random_restarts: negative restarts") (fun () ->
      ignore (Msts.Local_search.random_restarts ~restarts:(-1) figure2_chain 2))

let suites =
  [
    ( "baseline.local_search",
      [
        restarts_feasible_and_bounded;
        restarts_never_worse_than_master_only;
        hill_climb_improves_or_keeps;
        hill_climb_sandwiched;
        case "usually optimal on small instances" hill_climb_often_optimal;
        case "deterministic by seed" deterministic_by_seed;
        case "negative arguments rejected" rejects_negative;
      ] );
  ]
