(* Mutation fuzzing of the feasibility checker.

   The checker is the oracle everything else is audited against, so it
   gets its own oracle here: a deliberately naive O(n²) transcription of
   Definition 1's four properties, written independently of the library's
   sorted-interval implementation.  Random mutations of feasible schedules
   must get the same verdict from both. *)

open Helpers

module Gen = QCheck.Gen

(* ---------- the naive oracle ---------- *)

let naive_feasible chain (entries : Schedule_reference.Schedule.entry array) =
  let c = Msts.Chain.latency chain and w = Msts.Chain.work chain in
  let n = Array.length entries in
  let ok = ref true in
  Array.iter
    (fun (e : Schedule_reference.Schedule.entry) ->
      (* property 1 *)
      for k = 2 to e.proc do
        if e.comms.(k - 2) + c (k - 1) > e.comms.(k - 1) then ok := false
      done;
      (* property 2 *)
      if e.comms.(e.proc - 1) + c e.proc > e.start then ok := false)
    entries;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = entries.(i) and b = entries.(j) in
        (* property 3 *)
        if a.proc = b.proc && abs (a.start - b.start) < w a.proc then ok := false;
        (* property 4 *)
        for k = 1 to min a.proc b.proc do
          if abs (a.comms.(k - 1) - b.comms.(k - 1)) < c k then ok := false
        done
      end
    done
  done;
  !ok

(* ---------- mutations ---------- *)

type mutation =
  | Nudge_start of int * int (* task index (0-based), delta *)
  | Nudge_comm of int * int * int (* task, hop (0-based), delta *)
  | Swap_starts of int * int

let mutation_gen n =
  Gen.oneof
    [
      Gen.map2 (fun t d -> Nudge_start (t, d)) (Gen.int_range 0 (n - 1)) (Gen.int_range (-4) 4);
      Gen.map3
        (fun t hop d -> Nudge_comm (t, hop, d))
        (Gen.int_range 0 (n - 1))
        (Gen.int_range 0 5)
        (Gen.int_range (-4) 4);
      Gen.map2 (fun a b -> Swap_starts (a, b)) (Gen.int_range 0 (n - 1)) (Gen.int_range 0 (n - 1));
    ]

let apply_mutation entries mutation =
  let entries = Array.map (fun (e : Schedule_reference.Schedule.entry) -> { e with comms = Array.copy e.comms }) entries in
  (match mutation with
  | Nudge_start (t, d) -> entries.(t) <- { (entries.(t)) with start = entries.(t).start + d }
  | Nudge_comm (t, hop, d) ->
      let e = entries.(t) in
      let hop = hop mod Array.length e.comms in
      e.comms.(hop) <- e.comms.(hop) + d
  | Swap_starts (a, b) ->
      let sa = entries.(a).start and sb = entries.(b).start in
      entries.(a) <- { (entries.(a)) with start = sb };
      entries.(b) <- { (entries.(b)) with start = sa });
  entries

let fuzz_case_gen =
  Gen.(
    chain_gen ~max_p:4 () >>= fun chain ->
    int_range 1 10 >>= fun n ->
    mutation_gen n >>= fun mutation -> return (chain, n, mutation))

let fuzz_arb =
  QCheck.make
    ~print:(fun (chain, n, _) ->
      Printf.sprintf "%s, n=%d (mutated)" (Msts.Chain.to_string chain) n)
    fuzz_case_gen

let checker_agrees_with_naive_oracle =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"checker verdicts match the naive Definition-1 oracle under mutation"
       fuzz_arb
       (fun (chain, n, mutation) ->
         let base = Schedule_reference.chain_rows (Msts.Chain_algorithm.schedule chain n) in
         let mutated = apply_mutation base mutation in
         let sched = Schedule_reference.chain_plan chain mutated in
         Feasibility_oracle.is_feasible sched = naive_feasible chain mutated))

let checker_agrees_on_heuristic_schedules =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"checker verdicts match the naive oracle on heuristic schedules"
       (chain_with_n_arb ~max_p:4 ~max_n:10 ())
       (fun (chain, n) ->
         List.for_all
           (fun (_, policy) ->
             let s = Helpers.chain_heuristic policy chain n in
             Feasibility_oracle.is_feasible s
             = naive_feasible chain (Schedule_reference.chain_rows s))
           Msts.Tree_heuristics.chain_policies))

(* growing a comm/start never repairs anything the paper's order relies on:
   specifically, shifting a WHOLE task later by less than the gap to its
   successor keeps verdicts stable only sometimes — so instead we check a
   guaranteed metamorphic property: translating the whole schedule in time
   never changes the verdict. *)
let translation_invariance =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"feasibility is invariant under time translation"
       (QCheck.make
          ~print:(fun ((chain, n, _), d) ->
            Printf.sprintf "%s, n=%d, shift=%d" (Msts.Chain.to_string chain) n d)
          Gen.(pair fuzz_case_gen (int_range (-20) 20)))
       (fun ((chain, n, mutation), d) ->
         let base = Schedule_reference.chain_rows (Msts.Chain_algorithm.schedule chain n) in
         let mutated = Schedule_reference.chain_plan chain (apply_mutation base mutation) in
         Feasibility_oracle.is_feasible mutated
         = Feasibility_oracle.is_feasible (shift_schedule d mutated)))

(* any strict compaction of a feasible schedule that the simulator produces
   must also satisfy the checker: cross-validating Netsim against
   Feasibility on mutated-then-executed plans *)
let executed_plans_always_feasible =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"eager re-execution of any feasible mutation stays feasible"
       fuzz_arb
       (fun (chain, n, mutation) ->
         let base = Schedule_reference.chain_rows (Msts.Chain_algorithm.schedule chain n) in
         let mutated = Schedule_reference.chain_plan chain (apply_mutation base mutation) in
         (* only feasible non-negative mutants can be executed *)
         QCheck.assume (Feasibility_oracle.is_feasible ~require_nonnegative:true mutated);
         let report = Msts.Netsim.execute (Msts.Plan.Chain mutated) in
         Msts.Spider_schedule.is_feasible ~require_nonnegative:true
           report.Msts.Netsim.realized
         && report.Msts.Netsim.realized_makespan <= report.Msts.Netsim.planned_makespan))

let suites =
  [
    ( "fuzz.checker",
      [
        checker_agrees_with_naive_oracle;
        checker_agrees_on_heuristic_schedules;
        translation_invariance;
        executed_plans_always_feasible;
      ] );
  ]
