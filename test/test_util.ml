(* Unit and property tests for Msts_util: PRNG, stats, intx, table. *)

open Helpers

(* ---------- Prng ---------- *)

(* The top 62 bits of the next raw output. *)
let draw t = Msts.Prng.int t max_int

let prng_deterministic () =
  let a = Msts.Prng.create 123 and b = Msts.Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let prng_seed_sensitivity () =
  let a = Msts.Prng.create 1 and b = Msts.Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if draw a <> draw b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let prng_int_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Prng.int stays in [0, bound)"
       QCheck.(pair (int_range 1 1000) small_int)
       (fun (bound, seed) ->
         let rng = Msts.Prng.create seed in
         let v = Msts.Prng.int rng bound in
         v >= 0 && v < bound))

let prng_int_in_bounds =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Prng.int_in stays in [lo, hi]"
       QCheck.(triple (int_range (-50) 50) (int_range 0 100) small_int)
       (fun (lo, span, seed) ->
         let hi = lo + span in
         let rng = Msts.Prng.create seed in
         let v = Msts.Prng.int_in rng lo hi in
         v >= lo && v <= hi))

let prng_int_rejects_nonpositive () =
  let rng = Msts.Prng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Msts.Prng.int rng 0))

let prng_permutation_is_permutation =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Prng.permutation is a permutation"
       QCheck.(pair (int_range 0 50) small_int)
       (fun (n, seed) ->
         let rng = Msts.Prng.create seed in
         let perm = Msts.Prng.permutation rng n in
         let sorted = Array.copy perm in
         Array.sort compare sorted;
         sorted = Array.init n (fun i -> i)))

let prng_shuffle_preserves_elements =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Prng.shuffle preserves the multiset"
       QCheck.(pair (list small_int) small_int)
       (fun (xs, seed) ->
         let rng = Msts.Prng.create seed in
         let a = Array.of_list xs in
         Msts.Prng.shuffle rng a;
         List.sort compare (Array.to_list a) = List.sort compare xs))

let prng_choice_uniformish () =
  let rng = Msts.Prng.create 3 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let v = Msts.Prng.choice rng [| 0; 1; 2; 3 |] in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

(* ---------- Stats ---------- *)

let feq = Alcotest.float 1e-9

let stats_mean () =
  Alcotest.check feq "mean" 2.5 (Msts.Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check feq "empty mean" 0.0 (Msts.Stats.mean [||])

let stats_min_max () =
  let lo, hi = Msts.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  Alcotest.check feq "min" (-1.0) lo;
  Alcotest.check feq "max" 7.0 hi

(* Error messages carry the repo-wide [Msts.<Module>.<fn>: ...] prefix —
   Api.error_of_solve_failure classifies on it, so it is load-bearing. *)
let stats_error_prefix_pinned () =
  Alcotest.check_raises "empty min_max"
    (Invalid_argument "Msts.Stats.min_max: empty array") (fun () ->
      ignore (Msts.Stats.min_max [||]))

let stats_geometric_mean () =
  Alcotest.check feq "geo" 2.0 (Msts.Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

(* ---------- Intx ---------- *)

let intx_ceil_div () =
  Alcotest.(check int) "exact" 3 (Msts.Intx.ceil_div 9 3);
  Alcotest.(check int) "round up" 4 (Msts.Intx.ceil_div 10 3);
  Alcotest.(check int) "zero" 0 (Msts.Intx.ceil_div 0 5)

let intx_range () =
  Alcotest.(check (list int)) "basic" [ 2; 3; 4 ] (Msts.Intx.range 2 4);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Msts.Intx.range 7 7);
  Alcotest.(check (list int)) "empty" [] (Msts.Intx.range 3 2)

let intx_argmin () =
  Alcotest.(check int) "argmin" 1 (Msts.Intx.argmin [| 4; 1; 3; 1 |])

let intx_binary_search =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"binary_search_least finds the threshold"
       QCheck.(pair (int_range 0 100) (int_range 0 120))
       (fun (threshold, hi) ->
         let p x = x >= threshold in
         match Msts.Intx.binary_search_least ~lo:0 ~hi p with
         | Some x -> x = threshold && threshold <= hi
         | None -> threshold > hi))

let intx_binary_search_empty () =
  Alcotest.(check (option int)) "lo > hi" None
    (Msts.Intx.binary_search_least ~lo:5 ~hi:3 (fun _ -> true))

(* ---------- Table ---------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let index_of ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then -1 else if String.sub s i m = sub then i else at (i + 1)
  in
  at 0

let table_render () =
  let t = Msts.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Msts.Table.add_row t [ "1"; "hello" ];
  Msts.Table.add_row t [ "22"; "333" ];
  let rendered = Msts.Table.render t in
  Alcotest.(check bool) "contains title" true (contains ~sub:"demo" rendered)

let table_arity () =
  let t = Msts.Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Msts.Table.add_row t [ "only-one" ])

let table_csv () =
  let t = Msts.Table.create ~title:"t" ~columns:[ "name"; "value" ] in
  Msts.Table.add_row t [ "plain"; "1" ];
  Msts.Table.add_row t [ "with,comma"; "quote\"inside" ];
  let csv = Msts.Table.to_csv t in
  Alcotest.(check string) "csv"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"" csv

let table_rows_in_order () =
  let t = Msts.Table.create ~title:"t" ~columns:[ "i" ] in
  List.iter (fun i -> Msts.Table.add_row t [ string_of_int i ]) [ 1; 2; 3 ];
  let rendered = Msts.Table.render t in
  let pos s = index_of ~sub:s rendered in
  Alcotest.(check bool) "ordered" true
    (pos "| 1" < pos "| 2" && pos "| 2" < pos "| 3")

(* ---------- Lru ---------- *)

let lru_case msg expected got = Alcotest.(check int) msg expected got

let lru_basics () =
  let c = Msts.Lru.create ~capacity:2 in
  Msts.Lru.add c "a" 1;
  Msts.Lru.add c "b" 2;
  lru_case "two bindings" 2 (Msts.Lru.length c);
  Alcotest.(check (option int)) "hit a" (Some 1) (Msts.Lru.find c "a");
  Msts.Lru.add c "c" 3;
  (* "a" was just promoted, so "b" is the eviction victim *)
  Alcotest.(check (option int)) "b evicted" None (Msts.Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Msts.Lru.find c "a");
  Alcotest.(check (list (pair string int))) "MRU order"
    [ ("a", 1); ("c", 3) ] (Msts.Lru.to_list c)

let lru_rejects_zero_capacity () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Msts.Lru.create ~capacity:0))

(* The model-based property: an LRU of capacity k behaves exactly like the
   obvious list model, and a lookup only ever returns the value bound to
   that very key — a colliding hash bucket (many keys, small table) can
   never serve a poisoned entry.  Ops: add / find over a small key space so
   collisions, duplicates and evictions all actually happen. *)
let lru_matches_model =
  let open QCheck in
  to_alcotest
    (Test.make ~count:300 ~name:"lru agrees with a list model"
       (pair (int_range 1 6)
          (list (pair (int_range 0 11) (option (int_range 0 999)))))
       (fun (capacity, ops) ->
         let c = Msts.Lru.create ~capacity in
         (* model: assoc list, MRU first *)
         let model = ref [] in
         List.for_all
           (fun (key, op) ->
             match op with
             | Some v ->
                 Msts.Lru.add c key v;
                 model := (key, v) :: List.remove_assoc key !model;
                 if List.length !model > capacity then
                   model := List.filteri (fun i _ -> i < capacity) !model;
                 Msts.Lru.length c = List.length !model
                 && Msts.Lru.to_list c
                    = List.map (fun (k, v) -> (k, v)) !model
             | None -> (
                 let expected = List.assoc_opt key !model in
                 (match expected with
                 | Some _ ->
                     model :=
                       (key, Option.get expected)
                       :: List.remove_assoc key !model
                 | None -> ());
                 Msts.Lru.find c key = expected
                 && Msts.Lru.length c <= capacity))
           ops))

(* A hit must hand back the physically identical value — the batch cache
   relies on this to return the very same plan, not a reconstruction. *)
let lru_hit_is_physical () =
  let c = Msts.Lru.create ~capacity:4 in
  let value = Array.init 32 Fun.id in
  Msts.Lru.add c "k" value;
  (match Msts.Lru.find c "k" with
  | Some v -> Alcotest.(check bool) "physically equal" true (v == value)
  | None -> Alcotest.fail "lost binding");
  (* still the same object after being churned by other keys *)
  Msts.Lru.add c "x" [| 0 |];
  Msts.Lru.add c "y" [| 1 |];
  match Msts.Lru.find c "k" with
  | Some v -> Alcotest.(check bool) "still physically equal" true (v == value)
  | None -> Alcotest.fail "binding churned away"

let suites =
  [
    ( "util.prng",
      [
        case "deterministic from seed" prng_deterministic;
        case "different seeds differ" prng_seed_sensitivity;
        prng_int_bounds;
        prng_int_in_bounds;
        case "int rejects non-positive bound" prng_int_rejects_nonpositive;
        prng_permutation_is_permutation;
        prng_shuffle_preserves_elements;
        case "choice is roughly uniform" prng_choice_uniformish;
      ] );
    ( "util.stats",
      [
        case "mean" stats_mean;
        case "min_max" stats_min_max;
        case "error messages carry the Msts. prefix" stats_error_prefix_pinned;
        case "geometric mean" stats_geometric_mean;
      ] );
    ( "util.intx",
      [
        case "ceil_div" intx_ceil_div;
        case "range" intx_range;
        case "argmin" intx_argmin;
        intx_binary_search;
        case "binary search on empty range" intx_binary_search_empty;
      ] );
    ( "util.table",
      [
        case "render contains title" table_render;
        case "arity mismatch raises" table_arity;
        case "csv escaping" table_csv;
        case "rows keep insertion order" table_rows_in_order;
      ] );
    ( "util.lru",
      [
        case "basics: hit, evict, order, clear" lru_basics;
        case "capacity must be positive" lru_rejects_zero_capacity;
        case "hits are physically identical" lru_hit_is_physical;
        lru_matches_model;
      ] );
  ]
