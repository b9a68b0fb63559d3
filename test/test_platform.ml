(* Tests for Msts_platform: chains, forks, spiders, trees, generators,
   the textual format and DOT export. *)

open Helpers

(* ---------- Chain ---------- *)

let chain_accessors () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5); (1, 7) ] in
  Alcotest.(check int) "length" 3 (Msts.Chain.length chain);
  Alcotest.(check int) "c1" 2 (Msts.Chain.latency chain 1);
  Alcotest.(check int) "c3" 1 (Msts.Chain.latency chain 3);
  Alcotest.(check int) "w2" 5 (Msts.Chain.work chain 2);
  Alcotest.(check int) "path 1" 2 (Msts.Chain.path_latency chain 1);
  Alcotest.(check int) "path 3" 6 (Msts.Chain.path_latency chain 3)

let chain_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Msts.Chain.make: empty chain")
    (fun () -> ignore (Msts.Chain.make ~c:[||] ~w:[||]));
  Alcotest.check_raises "mismatch" (Invalid_argument "Msts.Chain.make: c/w length mismatch")
    (fun () -> ignore (Msts.Chain.make ~c:[| 1 |] ~w:[| 1; 2 |]));
  Alcotest.check_raises "zero latency"
    (Invalid_argument "Msts.Chain.make: non-positive latency") (fun () ->
      ignore (Msts.Chain.make ~c:[| 0 |] ~w:[| 1 |]));
  Alcotest.check_raises "zero work"
    (Invalid_argument "Msts.Chain.make: non-positive work time") (fun () ->
      ignore (Msts.Chain.make ~c:[| 1 |] ~w:[| 0 |]))

let chain_out_of_range () =
  let chain = figure2_chain in
  Alcotest.check_raises "latency 0"
    (Invalid_argument "Msts.Chain.latency: processor 0 outside 1..2") (fun () ->
      ignore (Msts.Chain.latency chain 0));
  Alcotest.check_raises "work 3"
    (Invalid_argument "Msts.Chain.work: processor 3 outside 1..2") (fun () ->
      ignore (Msts.Chain.work chain 3))

let chain_drop_first () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5); (1, 7) ] in
  let sub = Msts.Chain.drop_first chain in
  Alcotest.(check bool) "drop" true
    (Msts.Chain.equal sub (Msts.Chain.of_pairs [ (3, 5); (1, 7) ]));
  Alcotest.check_raises "drop singleton"
    (Invalid_argument "Msts.Chain.drop_first: chain of length 1") (fun () ->
      ignore (Msts.Chain.drop_first (Msts.Chain.of_pairs [ (1, 1) ])))

let chain_prefix () =
  let chain = Msts.Chain.of_pairs [ (2, 3); (3, 5); (1, 7) ] in
  Alcotest.(check bool) "prefix 2" true
    (Msts.Chain.equal (Msts.Chain.prefix chain 2) (Msts.Chain.of_pairs [ (2, 3); (3, 5) ]))

let chain_pairs_roundtrip =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Msts.Chain.of_pairs/to_pairs round-trip"
       (chain_arb ~max_p:6 ())
       (fun chain ->
         Msts.Chain.equal chain (Msts.Chain.of_pairs (Msts.Chain.to_pairs chain))))

let chain_master_only () =
  (* T-inf of the paper's Figure 2 instance with n=5: 2 + 4*3 + 3 = 17 *)
  Alcotest.(check int) "figure 2 horizon" 17
    (Msts.Chain.master_only_makespan figure2_chain 5);
  Alcotest.(check int) "n=0" 0 (Msts.Chain.master_only_makespan figure2_chain 0);
  Alcotest.(check int) "n=1" 5 (Msts.Chain.master_only_makespan figure2_chain 1);
  (* communication-bound first processor: gaps of max(w1,c1)=c1 *)
  let comm_bound = Msts.Chain.of_pairs [ (4, 2) ] in
  Alcotest.(check int) "comm bound" (4 + (2 * 4) + 2)
    (Msts.Chain.master_only_makespan comm_bound 3)

(* ---------- Fork ---------- *)

let fork_accessors () =
  let fork = Msts.Fork.of_pairs [ (1, 2); (3, 4) ] in
  Alcotest.(check int) "slaves" 2 (Msts.Fork.slave_count fork);
  Alcotest.(check int) "c2" 3 (Msts.Fork.latency fork 2);
  Alcotest.(check int) "w1" 2 (Msts.Fork.work fork 1)

let fork_as_chains () =
  let fork = Msts.Fork.of_pairs [ (1, 2); (3, 4) ] in
  let chains = Msts.Fork.as_chains fork in
  Alcotest.(check int) "two legs" 2 (Array.length chains);
  Alcotest.(check bool) "leg 2" true
    (Msts.Chain.equal chains.(1) (Msts.Chain.of_pairs [ (3, 4) ]))

let fork_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Fork.make: no slaves")
    (fun () -> ignore (Msts.Fork.make [||]))

(* ---------- Spider ---------- *)

let spider_addresses () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 1) ] ]
  in
  Alcotest.(check int) "legs" 2 (Msts.Spider.legs spider);
  Alcotest.(check int) "processors" 3 (Msts.Spider.processor_count spider);
  Alcotest.(check int) "addresses" 3 (List.length (Msts.Spider.addresses spider));
  let a = { Msts.Spider.leg = 1; depth = 2 } in
  Alcotest.(check int) "latency" 3 (spider_latency spider a);
  Alcotest.(check int) "work" 5 (Msts.Spider.work spider a)

let spider_of_chain_fork () =
  let spider = Msts.Spider.of_chain figure2_chain in
  Alcotest.(check int) "one leg" 1 (Msts.Spider.legs spider);
  let fork = Msts.Fork.of_pairs [ (1, 2); (3, 4); (5, 6) ] in
  let as_spider = Msts.Spider.of_fork fork in
  Alcotest.(check int) "three legs" 3 (Msts.Spider.legs as_spider);
  for l = 1 to 3 do
    Alcotest.(check int) "depth 1" 1 (Msts.Chain.length (Msts.Spider.leg_chain as_spider l))
  done

let spider_scale () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ]
  in
  let target = { Msts.Spider.leg = 1; depth = 2 } in
  let scaled = Msts.Spider.scale ~latency_factor:2 ~work_factor:3 spider target in
  Alcotest.(check int) "latency scaled" 6 (spider_latency scaled target);
  Alcotest.(check int) "work scaled" 15 (Msts.Spider.work scaled target);
  Alcotest.(check int) "shallower node untouched" 2
    (spider_latency scaled { Msts.Spider.leg = 1; depth = 1 });
  Alcotest.(check int) "other leg untouched" 4
    (Msts.Spider.work scaled { Msts.Spider.leg = 2; depth = 1 });
  Alcotest.(check bool) "original unchanged" true
    (Msts.Spider.work spider target = 5);
  Alcotest.check_raises "factor < 1 rejected"
    (Invalid_argument "Msts.Chain.scale: work_factor must be >= 1") (fun () ->
      ignore (Msts.Spider.scale ~work_factor:0 spider target))

let spider_restrict () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 4) ] ]
  in
  (match Msts.Spider.restrict spider ~depths:[| 1; 0 |] with
  | None -> Alcotest.fail "leg 1 survives"
  | Some (r, leg_map) ->
      Alcotest.(check int) "one leg" 1 (Msts.Spider.legs r);
      Alcotest.(check (array int)) "leg map" [| 1 |] leg_map;
      Alcotest.(check int) "prefix kept" 1
        (Msts.Chain.length (Msts.Spider.leg_chain r 1));
      Alcotest.(check int) "values preserved" 3
        (Msts.Spider.work r { Msts.Spider.leg = 1; depth = 1 }));
  (match Msts.Spider.restrict spider ~depths:[| 2; 1 |] with
  | None -> Alcotest.fail "everything survives"
  | Some (r, leg_map) ->
      Alcotest.(check bool) "full depths reproduce the spider" true
        (Msts.Spider.equal r spider);
      Alcotest.(check (array int)) "identity map" [| 1; 2 |] leg_map);
  Alcotest.(check bool) "all dead" true
    (Msts.Spider.restrict spider ~depths:[| 0; 0 |] = None);
  Alcotest.(check bool) "wrong length rejected" true
    (match Msts.Spider.restrict spider ~depths:[| 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "depth beyond the leg rejected" true
    (match Msts.Spider.restrict spider ~depths:[| 3; 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Tree ---------- *)

let leaf ~latency ~work = Msts.Tree.node ~latency ~work ()

let sample_tree =
  (* master -> a(b, c(d)), e : only node a branches *)
  Msts.Tree.make
    [
      Msts.Tree.node ~latency:1 ~work:2
        ~children:
          [
            leaf ~latency:2 ~work:3;
            Msts.Tree.node ~latency:1 ~work:4
              ~children:[ leaf ~latency:3 ~work:1 ] ();
          ]
        ();
      leaf ~latency:5 ~work:6;
    ]

let tree_shape () =
  Alcotest.(check int) "count" 5 (Msts.Tree.processor_count sample_tree);
  Alcotest.(check int) "depth" 3 (Msts.Tree.depth sample_tree);
  Alcotest.(check bool) "not spider" true (Msts.Tree.to_spider sample_tree = None)

let tree_spider_detection () =
  let spiderish =
    Msts.Tree.make
      [
        Msts.Tree.node ~latency:1 ~work:2 ~children:[ leaf ~latency:2 ~work:3 ] ();
        leaf ~latency:4 ~work:5;
      ]
  in
  match Msts.Tree.to_spider spiderish with
  | None -> Alcotest.fail "expected conversion"
  | Some spider ->
      Alcotest.(check int) "legs" 2 (Msts.Spider.legs spider);
      Alcotest.(check int) "procs" 3 (Msts.Spider.processor_count spider)

let tree_extract_policies () =
  let check_policy policy =
    let spider = Msts.Tree.extract_spider policy sample_tree in
    Alcotest.(check int) "two legs" 2 (Msts.Spider.legs spider)
  in
  List.iter check_policy
    [ Msts.Tree.Fastest_processor; Msts.Tree.Cheapest_link; Msts.Tree.Best_rate ];
  (* fastest processor at the branch picks w=3 leaf -> leg depth 2 *)
  let fast = Msts.Tree.extract_spider Msts.Tree.Fastest_processor sample_tree in
  Alcotest.(check bool) "fastest keeps (2,3)" true
    (Msts.Chain.equal (Msts.Spider.leg_chain fast 1)
       (Msts.Chain.of_pairs [ (1, 2); (2, 3) ]));
  (* cheapest link picks the c=1 child -> continues to its child *)
  let cheap = Msts.Tree.extract_spider Msts.Tree.Cheapest_link sample_tree in
  Alcotest.(check bool) "cheapest keeps (1,4)->(3,1)" true
    (Msts.Chain.equal (Msts.Spider.leg_chain cheap 1)
       (Msts.Chain.of_pairs [ (1, 2); (1, 4); (3, 1) ]))

let tree_validation () =
  Alcotest.check_raises "empty tree" (Invalid_argument "Tree.make: empty tree")
    (fun () -> ignore (Msts.Tree.make []));
  Alcotest.check_raises "bad latency" (Invalid_argument "Tree: non-positive latency")
    (fun () -> ignore (Msts.Tree.node ~latency:0 ~work:1 ()))

(* ---------- Generator ---------- *)

let generator_respects_profile =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"generated chains respect the profile"
       QCheck.(pair small_int (int_range 1 8))
       (fun (seed, p) ->
         let rng = Msts.Prng.create seed in
         let profile = Msts.Generator.comm_bound_profile in
         let chain = Msts.Generator.chain rng profile ~p in
         List.for_all
           (fun (c, w) ->
             c >= profile.latency_min && c <= profile.latency_max
             && w >= profile.work_min && w <= profile.work_max)
           (Msts.Chain.to_pairs chain)))

let generator_deterministic () =
  let make seed =
    Msts.Generator.spider (Msts.Prng.create seed) Msts.Generator.default_profile
      ~legs:3 ~max_depth:3
  in
  Alcotest.(check bool) "same seed same platform" true
    (Msts.Spider.equal (make 42) (make 42));
  Alcotest.(check bool) "seeds differ" false (Msts.Spider.equal (make 1) (make 2))

let generator_tree_size =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"generated trees have the requested size"
       QCheck.(pair small_int (int_range 1 20))
       (fun (seed, nodes) ->
         let rng = Msts.Prng.create seed in
         let tree =
           Msts.Generator.tree rng Msts.Generator.default_profile ~nodes
             ~max_children:3
         in
         Msts.Tree.processor_count tree = nodes))

(* ---------- Parse ---------- *)

let platform_eq a b =
  match (a, b) with
  | Msts.Platform_format.Chain_platform x, Msts.Platform_format.Chain_platform y ->
      Msts.Chain.equal x y
  | Msts.Platform_format.Fork_platform x, Msts.Platform_format.Fork_platform y ->
      Msts.Fork.to_pairs x = Msts.Fork.to_pairs y
  | Msts.Platform_format.Spider_platform x, Msts.Platform_format.Spider_platform y ->
      Msts.Spider.equal x y
  | _ -> false

let parse_roundtrip_chain =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"platform format round-trip (chain)"
       (chain_arb ~max_p:6 ())
       (fun chain ->
         let p = Msts.Platform_format.Chain_platform chain in
         match Msts.Platform_format.of_string (Msts.Platform_format.platform_to_string p) with
         | Ok parsed -> platform_eq p parsed
         | Error _ -> false))

let parse_roundtrip_spider =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"platform format round-trip (spider)"
       (spider_arb ~max_legs:4 ~max_depth:3 ())
       (fun spider ->
         let p = Msts.Platform_format.Spider_platform spider in
         match Msts.Platform_format.of_string (Msts.Platform_format.platform_to_string p) with
         | Ok parsed -> platform_eq p parsed
         | Error _ -> false))

let parse_roundtrip_tree =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"platform format round-trip (tree)"
       (QCheck.make ~print:(fun t -> Msts.Tree.to_string t)
          QCheck.Gen.(
            pair small_int (int_range 1 12) |> map (fun (seed, nodes) ->
                Msts.Generator.tree (Msts.Prng.create seed)
                  Msts.Generator.default_profile ~nodes ~max_children:3)))
       (fun tree ->
         let p = Msts.Platform_format.Tree_platform tree in
         match
           Msts.Platform_format.of_string (Msts.Platform_format.platform_to_string p)
         with
         | Ok (Msts.Platform_format.Tree_platform parsed) ->
             (* structural equality via the canonical rendering *)
             Msts.Tree.to_string parsed = Msts.Tree.to_string tree
         | _ -> false))

let parse_tree_errors () =
  let expect_error text =
    match Msts.Platform_format.of_string text with
    | Ok _ -> Alcotest.fail ("parsed: " ^ text)
    | Error _ -> ()
  in
  expect_error "tree\n";
  expect_error "tree\n1 2\n";
  expect_error "tree\n1 2 5\n" (* forward parent reference *);
  expect_error "tree\n1 2 0\n1 2 2\n" (* self/forward parent *);
  expect_error "tree\n0 2 0\n"

(* A platform as a spider, promoted as the solver does. *)
let spider_of_string text =
  Result.bind (Msts.Platform_format.of_string text) Msts.Solve.as_spider

let parse_tree_spider_promotion () =
  (* a tree that only branches at the master is accepted as a spider *)
  let text = "tree\n2 3 0\n3 5 1\n1 4 0\n" in
  match spider_of_string text with
  | Ok spider ->
      Alcotest.(check int) "two legs" 2 (Msts.Spider.legs spider);
      Alcotest.(check bool) "leg 1 is the figure-2 chain" true
        (Msts.Chain.equal (Msts.Spider.leg_chain spider 1) figure2_chain)
  | Error e -> Alcotest.fail e

let parse_tree_spider_rejection () =
  (* branching below the master cannot be promoted *)
  let text = "tree\n1 2 0\n1 2 1\n1 2 1\n" in
  match spider_of_string text with
  | Ok _ -> Alcotest.fail "promoted a branching tree"
  | Error _ -> ()

let parse_errors () =
  let expect_error text =
    match Msts.Platform_format.of_string text with
    | Ok _ -> Alcotest.fail ("parsed: " ^ text)
    | Error _ -> ()
  in
  expect_error "";
  expect_error "volcano\n1 2\n";
  expect_error "chain\n1\n";
  expect_error "chain\n1 x\n";
  expect_error "chain\n0 2\n";
  expect_error "chain\n";
  expect_error "spider\n1 2\n";
  expect_error "spider\nleg\n";
  expect_error "chain\nleg\n1 2\n"

let parse_comments_blanks () =
  let text = "# a comment\n\nchain\n# inner\n2 3\n\n3 5\n" in
  match Msts.Platform_format.of_string text with
  | Ok (Msts.Platform_format.Chain_platform chain) ->
      Alcotest.(check bool) "parsed" true (Msts.Chain.equal chain figure2_chain)
  | Ok _ -> Alcotest.fail "expected a chain platform"
  | Error e -> Alcotest.fail e

let parse_promotion () =
  let fork_text = "fork\n1 2\n3 4\n" in
  match spider_of_string fork_text with
  | Ok spider -> Alcotest.(check int) "fork promoted" 2 (Msts.Spider.legs spider)
  | Error e -> Alcotest.fail e

(* ---------- Dot ---------- *)

let dot_mentions_everything () =
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 9) ] ]
  in
  let dot = Msts.Dot.of_spider spider in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (let n = String.length dot and m = String.length needle in
         let rec at i = i + m <= n && (String.sub dot i m = needle || at (i + 1)) in
         at 0))
    [ "master"; "w=3"; "w=5"; "w=9"; "c=2"; "c=3"; "c=1"; "digraph" ]

let sample_tree () =
  Msts.Tree.make
    [
      Msts.Tree.node ~latency:1 ~work:2
        ~children:
          [ Msts.Tree.node ~latency:3 ~work:4 (); Msts.Tree.node ~latency:5 ~work:6 () ]
        ();
      Msts.Tree.node ~latency:7 ~work:8 ();
    ]

(* Forks and trees have no exporter of their own: [of_platform] draws
   them, one node per slave or tree node, edges from their parents. *)
let dot_draws_forks_and_trees () =
  let has dot needle =
    let n = String.length dot and m = String.length needle in
    let rec at i = i + m <= n && (String.sub dot i m = needle || at (i + 1)) in
    at 0
  in
  let fork =
    Msts.Dot.of_platform
      (Msts.Platform_format.Fork_platform (Msts.Fork.of_pairs [ (1, 2); (3, 4) ]))
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (has fork needle))
    [ "digraph"; "master -> s1 [label=\"c=1\"]"; "s2 [shape=circle, label=\"w=4\"]" ];
  let tree = Msts.Dot.of_platform (Msts.Platform_format.Tree_platform (sample_tree ())) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (has tree needle))
    [ "master -> t1 [label=\"c=1\"]"; "t1 -> t3 [label=\"c=5\"]"; "master -> t4 [label=\"c=7\"]" ]

(* The one-line text forms QCheck counterexamples print. *)
let text_forms () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 9) ] ] in
  Alcotest.(check string) "spider" "spider{chain[(c=2,w=3); (c=3,w=5)]; chain[(c=1,w=9)]}"
    (Msts.Spider.to_string spider);
  Alcotest.(check string) "tree" "tree{(c=1,w=2 -> (c=3,w=4), (c=5,w=6)); (c=7,w=8)}"
    (Msts.Tree.to_string (sample_tree ()))

let suites =
  [
    ( "platform.chain",
      [
        case "accessors" chain_accessors;
        case "validation" chain_validation;
        case "out-of-range indices" chain_out_of_range;
        case "drop_first" chain_drop_first;
        case "prefix" chain_prefix;
        chain_pairs_roundtrip;
        case "master-only makespan (T-inf)" chain_master_only;
      ] );
    ( "platform.fork",
      [
        case "accessors" fork_accessors;
        case "as_chains" fork_as_chains;
        case "validation" fork_validation;
      ] );
    ( "platform.spider",
      [
        case "addresses and lookups" spider_addresses;
        case "chain/fork promotion" spider_of_chain_fork;
        case "scale (fault surgery)" spider_scale;
        case "restrict (residual platforms)" spider_restrict;
      ] );
    ( "platform.tree",
      [
        case "shape predicates" tree_shape;
        case "spider detection and conversion" tree_spider_detection;
        case "extraction policies" tree_extract_policies;
        case "validation" tree_validation;
      ] );
    ( "platform.generator",
      [
        generator_respects_profile;
        case "deterministic from seed" generator_deterministic;
        generator_tree_size;
      ] );
    ( "platform.format",
      [
        parse_roundtrip_chain;
        parse_roundtrip_spider;
        parse_roundtrip_tree;
        case "tree parse errors" parse_tree_errors;
        case "spider-shaped tree promoted" parse_tree_spider_promotion;
        case "branching tree not promoted" parse_tree_spider_rejection;
        case "errors are reported" parse_errors;
        case "comments and blanks ignored" parse_comments_blanks;
        case "fork promoted to spider" parse_promotion;
      ] );
    ( "platform.dot",
      [
        case "dot export mentions everything" dot_mentions_everything;
        case "forks and trees are drawn through of_platform" dot_draws_forks_and_trees;
        case "spiders and trees print on one line" text_forms;
      ] );
  ]
