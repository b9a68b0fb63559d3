(* The multicore batch solver: parallel must equal sequential, bit for bit.

   The load-bearing test is the differential campaign: ~200 seeded random
   instances — chains, spiders and forks across all four generator
   profiles, task-count and deadline objectives — solved through
   `Solve.solve_batch ~jobs:4` and compared structurally (every route,
   start and emission date) against `Solve.solve` called one instance at a
   time.  The parallel path may not change a single date. *)

open Helpers
module Solve = Msts.Solve
module Batch = Msts.Batch
module Plan = Msts.Plan

let profiles =
  [
    Msts.Generator.default_profile;
    Msts.Generator.balanced_profile;
    Msts.Generator.compute_bound_profile;
    Msts.Generator.comm_bound_profile;
  ]

(* 200 mixed instances: 4 profiles x 50 each, cycling chain/spider/fork
   and task/deadline/budgeted objectives. *)
let campaign_instances () =
  let rng = Msts.Prng.create 20260806 in
  List.concat_map
    (fun profile ->
      List.init 50 (fun i ->
          let platform =
            match i mod 3 with
            | 0 ->
                Msts.Platform_format.Chain_platform
                  (Msts.Generator.chain rng profile ~p:(Msts.Prng.int_in rng 1 5))
            | 1 ->
                Msts.Platform_format.Spider_platform
                  (Msts.Generator.spider rng profile
                     ~legs:(Msts.Prng.int_in rng 1 3)
                     ~max_depth:2)
            | _ ->
                Msts.Platform_format.Fork_platform
                  (Msts.Generator.fork rng profile
                     ~slaves:(Msts.Prng.int_in rng 1 4))
          in
          match i mod 4 with
          | 0 | 1 -> Solve.problem ~tasks:(Msts.Prng.int_in rng 0 10) platform
          | 2 -> Solve.problem ~deadline:(Msts.Prng.int_in rng 0 60) platform
          | _ ->
              Solve.problem
                ~tasks:(Msts.Prng.int_in rng 1 8)
                ~deadline:(Msts.Prng.int_in rng 10 80)
                platform))
    profiles
  |> Array.of_list

let outcome_equal a b =
  match (a, b) with
  | Ok p, Ok q -> Plan.equal p q
  | Error e, Error f -> String.equal e f
  | _ -> false

let differential_campaign () =
  let problems = campaign_instances () in
  Alcotest.(check int) "campaign size" 200 (Array.length problems);
  let sequential = Array.map Solve.solve problems in
  let parallel = Solve.solve_batch ~jobs:4 problems in
  Alcotest.(check int) "one result per instance" (Array.length problems)
    (Array.length parallel);
  (* the campaign must actually exercise the solver, not fail en masse *)
  let solved =
    Array.fold_left (fun n o -> if Result.is_ok o then n + 1 else n) 0 parallel
  in
  Alcotest.(check bool)
    (Printf.sprintf "most instances solve (%d/200)" solved)
    true (solved >= 150);
  Array.iteri
    (fun i outcome ->
      if not (outcome_equal sequential.(i) outcome) then
        Alcotest.failf "instance %d: parallel result differs from sequential" i;
      (* every plan must independently pass the feasibility audit *)
      match outcome with
      | Ok plan ->
          (match Plan.check plan with
          | [] -> ()
          | v :: _ -> Alcotest.failf "instance %d infeasible: %s" i v);
          (* and serialise identically: same bytes end to end *)
          (match sequential.(i) with
          | Ok seq_plan ->
              Alcotest.(check string)
                (Printf.sprintf "instance %d serialisation" i)
                (Plan.serialize seq_plan) (Plan.serialize plan)
          | Error _ -> assert false)
      | Error _ -> ())
    parallel

let jobs_sweep_agrees () =
  let problems = campaign_instances () in
  let problems = Array.sub problems 0 60 in
  let reference = Solve.solve_batch ~jobs:1 problems in
  List.iter
    (fun jobs ->
      let got = Solve.solve_batch ~jobs problems in
      Array.iteri
        (fun i outcome ->
          if not (outcome_equal reference.(i) outcome) then
            Alcotest.failf "jobs=%d instance %d differs from jobs=1" jobs i)
        got)
    [ 2; 3; 4 ]

let errors_keep_their_slot () =
  let leaf = Msts.Tree.node ~latency:1 ~work:1 () in
  let branchy =
    Msts.Platform_format.Tree_platform
      (Msts.Tree.make [ Msts.Tree.node ~latency:1 ~work:1 ~children:[ leaf; leaf ] () ])
  in
  let good = Msts.Platform_format.Chain_platform figure2_chain in
  let problems =
    [|
      Solve.problem ~tasks:3 good;
      Solve.problem ~tasks:3 branchy;
      Solve.problem good (* no objective *);
      Solve.problem ~tasks:5 good;
    |]
  in
  let outcomes = Solve.solve_batch ~jobs:2 problems in
  (match outcomes.(0) with Ok _ -> () | Error m -> Alcotest.failf "slot 0: %s" m);
  (match outcomes.(1) with
  | Error m ->
      Alcotest.(check bool) "tree error text" true
        (String.length m > 0 && String.sub m 0 9 = "this tree")
  | Ok _ -> Alcotest.fail "branchy tree must not solve");
  (match outcomes.(2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "objective-less problem must not solve");
  match outcomes.(3) with
  | Ok plan -> Alcotest.(check int) "slot 3 intact" 5 (Plan.task_count plan)
  | Error m -> Alcotest.failf "slot 3: %s" m

(* ---------- the batch cache ---------- *)

let stats_invariants () =
  let problems = Array.sub (campaign_instances ()) 0 40 in
  let cache = Batch.cache ~capacity:64 in
  let _, stats = Batch.run ~jobs:2 ~cache ~solve:Solve.solve problems in
  Alcotest.(check int) "requests" 40 stats.Batch.requests;
  Alcotest.(check int) "hits + misses = requests" 40
    (stats.Batch.cache_hits + stats.Batch.cache_misses);
  Alcotest.(check bool) "cache filled" true (Batch.cache_length cache > 0);
  Alcotest.(check bool) "cache bounded" true (Batch.cache_length cache <= 64);
  (* second pass over a warm cache: zero solves *)
  let again, warm = Batch.run ~jobs:2 ~cache ~solve:Solve.solve problems in
  Alcotest.(check int) "warm pass all hits" 40 warm.Batch.cache_hits;
  Alcotest.(check int) "warm pass no solves" 0 warm.Batch.cache_misses;
  Array.iter (fun o -> Alcotest.(check bool) "warm ok" true (Result.is_ok o)) again

let cache_hit_returns_identical_plan () =
  let platform = Msts.Platform_format.Chain_platform figure2_chain in
  let problem = Solve.problem ~tasks:5 platform in
  let cache = Batch.cache ~capacity:8 in
  let first, _ = Batch.run ~jobs:1 ~cache ~solve:Solve.solve [| problem |] in
  let second, stats = Batch.run ~jobs:1 ~cache ~solve:Solve.solve [| problem |] in
  Alcotest.(check int) "second run hits" 1 stats.Batch.cache_hits;
  match (first.(0), second.(0)) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "physically the same plan" true (a == b)
  | _ -> Alcotest.fail "solve failed"

let duplicates_inside_one_batch () =
  let platform = Msts.Platform_format.Chain_platform figure2_chain in
  let p = Solve.problem ~tasks:4 platform in
  let q = Solve.problem ~tasks:6 platform in
  let outcomes, stats =
    Batch.run ~jobs:3 ~solve:Solve.solve [| p; q; p; q; p |]
  in
  Alcotest.(check int) "two distinct solves" 2 stats.Batch.cache_misses;
  Alcotest.(check int) "three duplicates" 3 stats.Batch.cache_hits;
  (match (outcomes.(0), outcomes.(2), outcomes.(4)) with
  | Ok a, Ok b, Ok c ->
      Alcotest.(check bool) "duplicates share one plan" true (a == b && b == c)
  | _ -> Alcotest.fail "solve failed");
  match (outcomes.(1), outcomes.(3)) with
  | Ok a, Ok b -> Alcotest.(check bool) "other family too" true (a == b)
  | _ -> Alcotest.fail "solve failed"

(* Fingerprints must separate near-identical requests: same platform with
   different objectives, and different platforms of equal shape. *)
let fingerprint_separates () =
  let platform = Msts.Platform_format.Chain_platform figure2_chain in
  let close = Msts.Platform_format.Chain_platform (Msts.Chain.of_pairs [ (2, 3); (3, 6) ]) in
  let fps =
    [
      Batch.fingerprint (Solve.problem ~tasks:5 platform);
      Batch.fingerprint (Solve.problem ~tasks:6 platform);
      Batch.fingerprint (Solve.problem ~deadline:5 platform);
      Batch.fingerprint (Solve.problem ~tasks:5 ~deadline:5 platform);
      Batch.fingerprint (Solve.problem ~tasks:5 close);
    ]
  in
  let distinct = List.sort_uniq String.compare fps in
  Alcotest.(check int) "all distinct" (List.length fps) (List.length distinct);
  Alcotest.(check string) "stable for equal requests"
    (Batch.fingerprint (Solve.problem ~tasks:5 platform))
    (List.hd fps)

(* [shard] prints each physically distinct platform once; its keys must
   still be [fingerprint]'s, whether the platforms are shared, equal
   copies, or different. *)
let shard_fingerprints_match () =
  let text = "chain\n2 3\n3 5\n" in
  let parse text =
    match Msts.Platform_format.of_string text with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let shared = parse text in
  let copy = parse text in
  Alcotest.(check bool) "copies are physically distinct" true (shared != copy);
  let others =
    [|
      parse "fork\n1 4\n2 2\n";
      parse "spider\nleg\n1 2\n2 3\nleg\n4 1\n";
      parse "tree\n1 2 0\n2 3 1\n1 1 1\n";
      parse "chain\n2 3\n3 6\n";
    |]
  in
  let requests =
    Array.concat
      [
        [|
          Solve.problem ~tasks:5 shared;
          Solve.problem ~tasks:5 copy;
          Solve.problem ~tasks:5 shared;
          Solve.problem ~deadline:9 shared;
          Solve.problem ~tasks:5 ~deadline:9 copy;
          Solve.problem shared;
        |];
        Array.map (Solve.problem ~tasks:3) others;
        Array.map (Solve.problem ~tasks:3) others;
      ]
  in
  let plan = Batch.shard requests in
  Alcotest.(check (array string)) "shard keys = fingerprint"
    (Array.map Batch.fingerprint requests)
    (Batch.fingerprints plan);
  (* equal copies dedupe like shared values: 4 objectives on the figure-2
     chain plus the 4 other platforms *)
  Alcotest.(check int) "distinct keys solved once" 8 (Batch.shard_count plan)

let shard_fingerprints_match_random =
  let pool =
    Array.init 4 (fun seed ->
        Msts.Platform_format.Chain_platform
          (Msts.Generator.chain (Msts.Prng.create seed)
             Msts.Generator.default_profile ~p:(1 + seed)))
  in
  let copy platform =
    match
      Msts.Platform_format.of_string (Msts.Platform_format.platform_to_string platform)
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  to_alcotest
    (QCheck.Test.make ~count:200 ~name:"shard keys = fingerprint on shared and copied platforms"
       QCheck.(
         list_of_size Gen.(int_range 0 40)
           (triple (int_bound 3) bool (option (int_bound 6))))
       (fun picks ->
         let requests =
           Array.of_list
             (List.map
                (fun (k, fresh, tasks) ->
                  let platform = if fresh then copy pool.(k) else pool.(k) in
                  { Batch.platform; tasks; deadline = None })
                picks)
         in
         Batch.fingerprints (Batch.shard requests)
         = Array.map Batch.fingerprint requests))

(* A cache too small for the batch still returns correct results and never
   exceeds its bound — eviction under pressure. *)
let tiny_cache_under_pressure () =
  let problems = Array.sub (campaign_instances ()) 0 30 in
  let cache = Batch.cache ~capacity:3 in
  let sequential = Array.map Solve.solve problems in
  let outcomes, _ = Batch.run ~jobs:4 ~cache ~solve:Solve.solve problems in
  Alcotest.(check bool) "bound held" true (Batch.cache_length cache <= 3);
  Array.iteri
    (fun i o ->
      if not (outcome_equal sequential.(i) o) then
        Alcotest.failf "instance %d wrong under eviction pressure" i)
    outcomes

(* ---------- the pool itself ---------- *)

let pool_map_preserves_order () =
  Msts.Pool.with_pool ~jobs:4 (fun pool ->
      let items = Array.init 101 Fun.id in
      let got = Msts.Pool.map pool (fun i -> i * i) items in
      Alcotest.(check (array int)) "squares in order"
        (Array.map (fun i -> i * i) items)
        got)

let pool_reuse_across_batches () =
  Msts.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Msts.Pool.jobs pool);
      for round = 1 to 5 do
        let items = Array.init (10 * round) Fun.id in
        let got = Msts.Pool.map pool (fun i -> i + round) items in
        Alcotest.(check int) "length" (Array.length items) (Array.length got);
        Array.iteri
          (fun i v -> Alcotest.(check int) "value" (i + round) v)
          got
      done)

let pool_propagates_exceptions () =
  Msts.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "first error resurfaces" (Failure "boom") (fun () ->
          ignore
            (Msts.Pool.map pool
               (fun i -> if i = 7 then failwith "boom" else i)
               (Array.init 16 Fun.id))))

let pool_batch_through_shared_pool () =
  let problems = Array.sub (campaign_instances ()) 0 20 in
  let sequential = Array.map Solve.solve problems in
  Msts.Pool.with_pool ~jobs:4 (fun pool ->
      let outcomes = Solve.solve_batch ~pool problems in
      Array.iteri
        (fun i o ->
          if not (outcome_equal sequential.(i) o) then
            Alcotest.failf "instance %d differs through shared pool" i)
        outcomes)

(* ---------- asynchronous submission ---------- *)

let tickets_complete_in_any_order () =
  Msts.Pool.with_pool ~jobs:3 (fun pool ->
      let tickets =
        List.init 20 (fun i -> (i, Msts.Pool.submit pool (fun () -> i * i)))
      in
      List.iter
        (fun (i, ticket) ->
          match Msts.Pool.await pool ticket with
          | Ok v -> Alcotest.(check int) "ticket value" (i * i) v
          | Error e -> raise e)
        (List.rev tickets))

let ticket_captures_exceptions () =
  Msts.Pool.with_pool ~jobs:2 (fun pool ->
      let t = Msts.Pool.submit pool (fun () -> failwith "ticket boom") in
      match Msts.Pool.await pool t with
      | Error (Failure msg) -> Alcotest.(check string) "payload" "ticket boom" msg
      | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "the thunk must fail")

let inline_pool_completes_on_submit () =
  Msts.Pool.with_pool ~jobs:1 (fun pool ->
      let t = Msts.Pool.submit pool (fun () -> 41 + 1) in
      (match Msts.Pool.poll t with
      | Some (Ok 42) -> ()
      | _ -> Alcotest.fail "inline submit must complete before returning");
      Alcotest.(check int) "inline completion counted" 1
        (Msts.Pool.drain_completions pool))

let completion_pipe_wakes_a_select_loop () =
  Msts.Pool.with_pool ~jobs:2 (fun pool ->
      let fd = Msts.Pool.completion_fd pool in
      let tickets =
        Array.init 5 (fun i -> Msts.Pool.submit pool (fun () -> i))
      in
      Array.iter (fun t -> ignore (Msts.Pool.await pool t)) tickets;
      let readable, _, _ = Unix.select [ fd ] [] [] 1.0 in
      Alcotest.(check bool) "pipe turned readable" true (readable <> []);
      Alcotest.(check int) "drain counts every completion" 5
        (Msts.Pool.drain_completions pool);
      Alcotest.(check int) "drain is idempotent" 0
        (Msts.Pool.drain_completions pool);
      (* drained pipe no longer readable *)
      let readable, _, _ = Unix.select [ fd ] [] [] 0.0 in
      Alcotest.(check bool) "pipe drained" true (readable = []))

(* A submission wakes one idle worker.  Were a wake-up ever lost, a
   task would sit queued while every worker sleeps and its [await] would
   never return: 10 000 tiny submissions, awaited one by one and then in
   bursts of 64, must all complete, at 2, 3 and 4 workers, before a
   watchdog domain ends the run. *)
let one_wakeup_per_task_loses_none () =
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 60.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          prerr_endline "pool stress: a submission was never run within 60 s";
          Unix._exit 1
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    (fun () ->
      List.iter
        (fun jobs ->
          Msts.Pool.with_pool ~jobs (fun pool ->
              let sum = ref 0 in
              for i = 1 to 10_000 do
                match Msts.Pool.await pool (Msts.Pool.submit pool (fun () -> i land 7)) with
                | Ok v -> sum := !sum + v
                | Error e -> raise e
              done;
              let burst = 64 in
              for b = 0 to (10_000 / burst) - 1 do
                let tickets =
                  Array.init burst (fun k ->
                      let i = (b * burst) + k + 1 in
                      Msts.Pool.submit pool (fun () -> i land 7))
                in
                Array.iter
                  (fun ticket ->
                    match Msts.Pool.await pool ticket with
                    | Ok v -> sum := !sum + v
                    | Error e -> raise e)
                  tickets
              done;
              (* i land 7 over 1..10 000, then over the 156 bursts' 9 984 *)
              Alcotest.(check int) (Printf.sprintf "jobs %d: every task ran" jobs)
                (35_000 + 34_944) !sum))
        [ 2; 3; 4 ])

(* ---------- sharded execution ---------- *)

(* shard / solve-in-any-order / assemble must reproduce run's bytes:
   same outcomes, same hit/miss accounting, same cache content. *)
let shard_assemble_equals_run () =
  let problems = Array.sub (campaign_instances ()) 0 30 in
  let ref_cache = Batch.cache ~capacity:16 in
  let reference, ref_stats =
    Batch.run ~jobs:1 ~cache:ref_cache ~solve:Solve.solve problems
  in
  let cache = Batch.cache ~capacity:16 in
  let plan = Batch.shard ~cache problems in
  let k = Batch.shard_count plan in
  Alcotest.(check int) "shards = misses" ref_stats.Batch.cache_misses k;
  (* solve the slots in reverse, proving completion order is irrelevant *)
  let solved = Array.make k (Error "pending") in
  for slot = k - 1 downto 0 do
    solved.(slot) <- Solve.solve (Batch.shard_request plan slot)
  done;
  let outcomes, stats =
    Batch.assemble plan ~jobs:1 ~solved ~wait_us:(Array.make k 0)
      ~busy_us:(Array.make k 0)
  in
  Array.iteri
    (fun i o ->
      if not (outcome_equal reference.(i) o) then
        Alcotest.failf "instance %d differs from run" i)
    outcomes;
  Alcotest.(check int) "hits agree" ref_stats.Batch.cache_hits
    stats.Batch.cache_hits;
  Alcotest.(check int) "misses agree" ref_stats.Batch.cache_misses
    stats.Batch.cache_misses;
  Alcotest.(check int) "same cache occupancy"
    (Batch.cache_length ref_cache) (Batch.cache_length cache)

let assemble_rejects_mis_sized_solved () =
  let problems = Array.sub (campaign_instances ()) 0 6 in
  let plan = Batch.shard problems in
  Alcotest.check_raises "mis-sized solved array"
    (Invalid_argument "Msts.Batch.assemble: solved array does not match the plan")
    (fun () ->
      ignore
        (Batch.assemble plan ~jobs:1
           ~solved:(Array.make (Batch.shard_count plan + 1) (Error "x"))
           ~wait_us:[||] ~busy_us:[||]))

(* ---------- by-value sharding against the fingerprint-keyed oracle ---------- *)

let parse_platform text =
  match Msts.Platform_format.of_string text with
  | Ok p -> p
  | Error e -> failwith e

let oracle_texts =
  [| "chain\n2 3\n3 5\n"; "fork\n1 4\n2 2\n"; "spider\nleg\n1 2\n2 3\nleg\n4 1\n" |]

(* Each pick is (platform, how, tasks, deadline): [how] 0 builds a new
   problem on the shared platform value, 1 on a freshly parsed copy of
   it, and 2 reuses the problem value of an earlier pick (if any).  Both
   coordinators start from caches warmed alike, so probes hit, miss and
   evict in step. *)
let shard_matches_reference =
  let shared = Array.map parse_platform oracle_texts in
  let objective = QCheck.(option (int_range 1 4)) in
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"shard = fingerprint-keyed reference: keys, slots, probes, outcomes"
       QCheck.(
         pair
           (list_of_size Gen.(int_range 0 40)
              (quad (int_bound 2) (int_bound 2) objective
                 (option (int_range 8 30))))
           (list_of_size Gen.(int_range 0 6) (pair (int_bound 2) objective)))
       (fun (picks, warm) ->
         let built = ref [] in
         let requests =
           Array.of_list
             (List.map
                (fun (k, how, tasks, deadline) ->
                  let problem =
                    match (how, !built) with
                    | 2, (_ :: _ as earlier) ->
                        List.nth earlier (List.length earlier * (k + 1) / 4)
                    | 1, _ ->
                        { Batch.platform = parse_platform oracle_texts.(k); tasks; deadline }
                    | _ -> { Batch.platform = shared.(k); tasks; deadline }
                  in
                  built := problem :: !built;
                  problem)
                picks)
         in
         let cache = Batch.cache ~capacity:8 in
         let ref_cache = Msts.Lru.create ~capacity:8 in
         let warm =
           Array.of_list
             (List.map
                (fun (k, tasks) -> { Batch.platform = shared.(k); tasks; deadline = None })
                warm)
         in
         ignore (Batch.run ~jobs:1 ~cache ~solve:Solve.solve warm);
         (let rplan = Batch_reference.shard ref_cache warm in
          ignore
            (Batch_reference.assemble rplan
               ~solved:
                 (Array.init (Batch_reference.shard_count rplan) (fun slot ->
                      Solve.solve (Batch_reference.shard_request rplan slot)))));
         let plan = Batch.shard ~cache requests in
         let rplan = Batch_reference.shard ref_cache requests in
         let k = Batch.shard_count plan in
         let solved =
           Array.init k (fun slot -> Solve.solve (Batch.shard_request plan slot))
         in
         let outcomes, stats =
           Batch.assemble plan ~jobs:1 ~solved ~wait_us:(Array.make k 0)
             ~busy_us:(Array.make k 0)
         in
         let ref_outcomes, (hits, misses) = Batch_reference.assemble rplan ~solved in
         Batch.fingerprints plan = rplan.Batch_reference.fingerprints
         && Batch.firsts plan
            = Array.mapi
                (fun i -> function Batch_reference.Duplicate j -> j | Cached _ | Fresh _ -> i)
                rplan.Batch_reference.resolutions
         && k = Batch_reference.shard_count rplan
         && List.for_all
              (fun slot ->
                Batch.shard_request plan slot == Batch_reference.shard_request rplan slot)
              (List.init k Fun.id)
         && Array.for_all2 outcome_equal outcomes ref_outcomes
         && stats.Batch.cache_hits = hits
         && stats.Batch.cache_misses = misses
         && Batch.cache_length cache = Msts.Lru.length ref_cache))

(* A decoded batch's problems are those of decoding each element alone,
   and two of them are one value exactly when their platform text, tasks
   and deadline are equal. *)
let decoded_batch_shares_equal_problems =
  let api_request op = { Msts.Api.id = None; trace = None; op } in
  let objective = QCheck.(option (int_range 1 3)) in
  to_alcotest
    (QCheck.Test.make ~count:200 ~name:"decoded batch: element-wise values, shared iff equal"
       QCheck.(
         list_of_size Gen.(int_range 0 30) (triple (int_bound 2) objective objective))
       (fun picks ->
         let problems =
           Array.of_list
             (List.map
                (fun (k, tasks, deadline) ->
                  { Batch.platform = parse_platform oracle_texts.(k); tasks; deadline })
                picks)
         in
         let decode op =
           match Msts.Api.request_of_line (Msts.Api.request_to_line (api_request op)) with
           | Ok { Msts.Api.op; _ } -> op
           | Error e -> failwith e.Msts.Api.message
         in
         let decoded =
           match decode (Msts.Api.Batch problems) with
           | Msts.Api.Batch decoded -> decoded
           | _ -> failwith "not a batch"
         in
         let alone =
           Array.map
             (fun p ->
               match decode (Msts.Api.Schedule p) with
               | Msts.Api.Schedule q -> q
               | _ -> failwith "not a schedule")
             problems
         in
         let picks = Array.of_list picks in
         decoded = alone
         && Array.for_all Fun.id
              (Array.mapi
                 (fun i p ->
                   Array.for_all Fun.id
                     (Array.mapi (fun j q -> (p == q) = (picks.(i) = picks.(j))) decoded))
                 decoded)))

(* ---------- the repeat map under hostile batches ---------- *)

(* Chains that agree on their first 15 values (c all 1, w 1 but the
   last): [Hashtbl.hash] reads no further, so the identity tables file
   them all in one bucket. *)
let colliding_chain i =
  let w = Array.make 8 1 in
  w.(7) <- i + 1;
  Msts.Platform_format.Chain_platform (Msts.Chain.make ~c:(Array.make 8 1) ~w)

(* 16000 distinct colliding chains, then every fourth repeated: the
   shard dedupes them exactly, and its identity tables compare at most 8
   values per lookup, so the work is linear (the decoder's memo, at most
   8 elements and 8 problems per element).  With the decoder's repeat
   map only the distinct problems' platform texts are looked up (<= 8 per
   element); without one, each element is also looked up once to derive
   the map (<= 16 per element). *)
let hostile_batch_shards_linearly () =
  let distinct = 16_000 in
  let unique = Array.init distinct (fun i -> Solve.problem ~tasks:1 (colliding_chain i)) in
  let problems = Array.append unique (Array.init (distinct / 4) (fun k -> unique.(4 * k))) in
  let n = Array.length problems in
  let counted f =
    let mem = Msts.Obs.Memory.create () in
    let plan = Msts.Obs.with_sink (Msts.Obs.Memory.sink mem) f in
    (plan, Msts.Obs.Memory.counter mem)
  in
  let check_plan what plan decoded =
    Alcotest.(check int) (what ^ ": one slot per distinct problem") distinct
      (Batch.shard_count plan);
    let firsts = Batch.firsts plan in
    Array.iteri
      (fun i j ->
        let want = if i < distinct then i else 4 * (i - distinct) in
        if j <> want then Alcotest.failf "%s: firsts.(%d) = %d, not %d" what i j want)
      firsts;
    let fingerprints = Batch.fingerprints plan in
    List.iter
      (fun i ->
        Alcotest.(check string) (what ^ ": fingerprint") (Batch.fingerprint decoded.(i))
          fingerprints.(i))
      [ 0; 1; 7; 8; 9; distinct - 1; distinct; n - 1 ]
  in
  let line =
    Msts.Api.request_to_line { Msts.Api.id = None; trace = None; op = Msts.Api.Batch problems }
  in
  let (decoded, plan), counter =
    counted (fun () ->
        match Msts.Api.request_or_rejection line with
        | Ok ({ Msts.Api.op = Msts.Api.Batch decoded; _ }, repeats) ->
            (decoded, Batch.shard ~repeats decoded)
        | _ -> Alcotest.fail "the hostile frame did not decode")
  in
  check_plan "decoder map" plan decoded;
  let bounded what compared bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d compares for %d elements, at most %d" what compared n bound)
      true (compared <= bound)
  in
  bounded "decoder memo" (counter "api.batch_memo_candidates") (16 * n);
  bounded "shard over the decoder map" (counter "pool.identity_candidates") (8 * n);
  let plan, counter = counted (fun () -> Batch.shard problems) in
  check_plan "derived map" plan problems;
  bounded "bare shard" (counter "pool.identity_candidates") (16 * n)

let shard_rejects_a_false_map () =
  let p = Solve.problem ~tasks:1 (colliding_chain 0) in
  let q = Solve.problem ~tasks:2 (colliding_chain 0) in
  List.iter
    (fun repeats ->
      Alcotest.check_raises "not a repeat map"
        (Invalid_argument "Msts.Batch.shard: repeats is not a repeat map of the requests")
        (fun () -> ignore (Batch.shard ~repeats [| p; q; p |])))
    [ [| 0; 1 |]; [| 0; 0; 0 |]; [| 0; 2; 2 |]; [| 1; 1; 0 |]; [| 0; 1; -1 |]; [| 0; 1; 3 |] ];
  Alcotest.(check (array int)) "a true map" [| 0; 1; 0 |]
    (Batch.firsts (Batch.shard ~repeats:[| 0; 1; 0 |] [| p; q; p |]))

let suites =
  [
    ( "batch.differential",
      [
        case "200-instance campaign: parallel = sequential" differential_campaign;
        case "jobs 1/2/3/4 all agree" jobs_sweep_agrees;
        case "errors keep their slot" errors_keep_their_slot;
      ] );
    ( "batch.cache",
      [
        case "stats invariants and warm pass" stats_invariants;
        case "hit returns the identical plan" cache_hit_returns_identical_plan;
        case "within-batch duplicates" duplicates_inside_one_batch;
        case "fingerprints separate close requests" fingerprint_separates;
        case "shard keys = fingerprint, shared or copied platforms"
          shard_fingerprints_match;
        shard_fingerprints_match_random;
        case "tiny cache under eviction pressure" tiny_cache_under_pressure;
      ] );
    ( "batch.pool",
      [
        case "map preserves order" pool_map_preserves_order;
        case "pool survives many batches" pool_reuse_across_batches;
        case "exceptions propagate" pool_propagates_exceptions;
        case "facade over a shared pool" pool_batch_through_shared_pool;
      ] );
    ( "batch.tickets",
      [
        case "tickets complete in any order" tickets_complete_in_any_order;
        case "exceptions are captured, not thrown" ticket_captures_exceptions;
        case "inline pool completes on submit" inline_pool_completes_on_submit;
        case "completion pipe wakes a select loop"
          completion_pipe_wakes_a_select_loop;
        case "one wake-up per task loses no task" one_wakeup_per_task_loses_none;
      ] );
    ( "batch.sharding",
      [
        case "shard + assemble = run, any completion order"
          shard_assemble_equals_run;
        case "assemble rejects a mis-sized solved array"
          assemble_rejects_mis_sized_solved;
        shard_matches_reference;
        decoded_batch_shares_equal_problems;
        case "a hostile batch shards in linear work" hostile_batch_shards_linearly;
        case "shard rejects a false repeat map" shard_rejects_a_false_map;
      ] );
  ]
