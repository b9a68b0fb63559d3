(* Shared generators and Alcotest plumbing for the test suite. *)

module Gen = QCheck.Gen

let case name f = Alcotest.test_case name `Quick f

(* All property tests share one fixed random state so runs are reproducible
   (a flaky failure in CI is useless as an oracle). *)
let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed; 2003 |]) test

(* ---------- generators ---------- *)

let pair_gen ~max_val =
  Gen.map2 (fun c w -> (c, w)) (Gen.int_range 1 max_val) (Gen.int_range 1 max_val)

let chain_gen ?(min_p = 1) ?(max_p = 4) ?(max_val = 10) () =
  Gen.(int_range min_p max_p >>= fun p ->
       Gen.map Msts.Chain.of_pairs (Gen.list_size (Gen.return p) (pair_gen ~max_val)))

(* Shrinker: drop the last processor, then halve any latency/work > 1 —
   failures get reported on the smallest chain still exhibiting them. *)
let chain_shrink chain yield =
  let pairs = Msts.Chain.to_pairs chain in
  let len = List.length pairs in
  if len > 1 then
    yield (Msts.Chain.of_pairs (List.filteri (fun i _ -> i < len - 1) pairs));
  List.iteri
    (fun target (c, w) ->
      let rebuild f =
        Msts.Chain.of_pairs
          (List.mapi (fun i pair -> if i = target then f pair else pair) pairs)
      in
      if c > 1 then yield (rebuild (fun (c, w) -> (c / 2, w)));
      if w > 1 then yield (rebuild (fun (c, w) -> (c, w / 2))))
    pairs

let chain_arb ?min_p ?max_p ?max_val () =
  QCheck.make ~print:Msts.Chain.to_string ~shrink:chain_shrink
    (chain_gen ?min_p ?max_p ?max_val ())

let fork_gen ?(max_slaves = 4) ?(max_val = 10) () =
  Gen.(int_range 1 max_slaves >>= fun m ->
       Gen.map Msts.Fork.of_pairs (Gen.list_size (Gen.return m) (pair_gen ~max_val)))

let fork_to_string fork =
  "fork["
  ^ String.concat "; "
      (List.map (fun (c, w) -> Printf.sprintf "(c=%d,w=%d)" c w) (Msts.Fork.to_pairs fork))
  ^ "]"

let fork_arb ?max_slaves ?max_val () =
  QCheck.make ~print:fork_to_string (fork_gen ?max_slaves ?max_val ())

let spider_gen ?(max_legs = 3) ?(max_depth = 2) ?(max_val = 10) () =
  Gen.(int_range 1 max_legs >>= fun legs ->
       Gen.map Msts.Spider.of_legs
         (Gen.list_size (Gen.return legs)
            (chain_gen ~min_p:1 ~max_p:max_depth ~max_val ())))

let spider_arb ?max_legs ?max_depth ?max_val () =
  QCheck.make ~print:Msts.Spider.to_string (spider_gen ?max_legs ?max_depth ?max_val ())

(* Small instances with a task count, for oracle comparisons. *)
let chain_with_n_shrink (chain, n) yield =
  if n > 0 then yield (chain, n - 1);
  chain_shrink chain (fun smaller -> yield (smaller, n))

let chain_with_n_arb ?(max_p = 4) ?(max_n = 7) ?(max_val = 10) () =
  QCheck.make
    ~print:(fun (chain, n) -> Printf.sprintf "%s, n=%d" (Msts.Chain.to_string chain) n)
    ~shrink:chain_with_n_shrink
    (Gen.pair (chain_gen ~max_p ~max_val ()) (Gen.int_range 0 max_n))

let spider_with_n_arb ?(max_legs = 3) ?(max_depth = 2) ?(max_n = 5) ?(max_val = 8) () =
  QCheck.make
    ~print:(fun (spider, n) ->
      Printf.sprintf "%s, n=%d" (Msts.Spider.to_string spider) n)
    (Gen.pair (spider_gen ~max_legs ~max_depth ~max_val ()) (Gen.int_range 0 max_n))

(* ---------- chains and spiders as trees ---------- *)

(* A chain is the one-leg spider, a spider the tree [Tree.of_spider]; node
   k of that tree is the k-th address of the spider, so processor k of a
   chain. *)
let chain_tree chain = Msts.Tree.of_spider (Msts.Spider.of_chain chain)

let chain_of_tree_schedule chain s =
  Msts.Spider_schedule.leg_schedule
    (Msts.Tree_schedule.to_spider (Msts.Spider.of_chain chain) s)
    1

(* ASAP timing of a chain destination sequence (processor indices). *)
let chain_asap chain seq =
  chain_of_tree_schedule chain
    (Msts.Asap.of_sequence (Msts.Tree_flat.of_tree (chain_tree chain)) seq)

(* ASAP timing of a spider destination sequence (addresses). *)
let spider_asap spider seq =
  let addresses = Msts.Spider.addresses spider in
  let node address =
    let rec find k = function
      | [] -> invalid_arg "spider_asap: unknown address"
      | a :: rest -> if a = address then k else find (k + 1) rest
    in
    find 1 addresses
  in
  Msts.Tree_schedule.to_spider spider
    (Msts.Asap.of_sequence
       (Msts.Tree_flat.of_tree (Msts.Tree.of_spider spider))
       (Array.map node seq))

let chain_heuristic policy chain n =
  chain_of_tree_schedule chain
    (Msts.Tree_heuristics.schedule policy (chain_tree chain) n)

let chain_heuristic_makespan policy chain n =
  Msts.Tree_heuristics.makespan policy (chain_tree chain) n

(* The paper's Figure 2 instance: chain (c,w) = (2,3),(3,5). *)
let figure2_chain = Msts.Chain.of_pairs [ (2, 3); (3, 5) ]

(* [s] with every date moved [d] earlier. *)
let shift_schedule d s =
  Schedule_reference.chain_plan (Msts.Schedule.chain s)
    (Array.map
       (fun (e : Schedule_reference.Schedule.entry) ->
         { e with start = e.start - d; comms = Msts.Comm_vector.shift d e.comms })
       (Schedule_reference.chain_rows s))

let spider_latency spider { Msts.Spider.leg; depth } =
  Msts.Chain.latency (Msts.Spider.leg_chain spider leg) depth

(* A virtual node as QCheck counterexamples print it. *)
let vnode_to_string (v : Msts.Fork_expansion.vnode) =
  Printf.sprintf "vnode(slave=%d, rank=%d, c=%d, W=%d)" v.slave v.rank v.comm v.work

(* The fork allocator on a list of virtual nodes: [Msts.Fork_allocator.sweep]
   over them in allocation order, answered as the frozen insertion loop
   ([Kernel_reference.allocate]) answers: the accepted nodes in emission
   order, transfers back-to-back from time 0. *)
let allocate nodes ~deadline ~budget =
  let nodes = Array.of_list (Kernel_reference.allocation_order nodes) in
  let accepted =
    Msts.Fork_allocator.sweep
      ~comm:(Array.map (fun (v : Msts.Fork_expansion.vnode) -> v.comm) nodes)
      ~work:(Array.map (fun (v : Msts.Fork_expansion.vnode) -> v.work) nodes)
      ~deadline ~budget
  in
  let rows = ref [] and emission = ref 0 in
  Array.iteri
    (fun position i ->
      let node = nodes.(i) in
      rows := { Kernel_reference.node; emission = !emission; position } :: !rows;
      emission := !emission + node.comm)
    accepted;
  List.rev !rows

(* [allocate] on a fork's expansion, [budget] virtual nodes per slave. *)
let fork_allocate fork ~deadline ~budget =
  allocate (Msts.Fork_expansion.expand fork ~count:budget) ~deadline ~budget

let fork_max_tasks fork ~deadline ~budget =
  List.length (fork_allocate fork ~deadline ~budget)

let check_feasible ?(require_nonnegative = true) sched =
  match Feasibility_oracle.check ~require_nonnegative sched with
  | [] -> true
  | violations ->
      QCheck.Test.fail_reportf "infeasible: %s"
        (String.concat "; " (List.map Feasibility_oracle.violation_to_string violations))

let check_spider_feasible ?(require_nonnegative = true) sched =
  match Msts.Spider_schedule.check ~require_nonnegative sched with
  | [] -> true
  | violations ->
      QCheck.Test.fail_reportf "infeasible: %s" (String.concat "; " violations)

(* The serve engine answers with wire frames; tests that inspect a
   result decode the frame back. *)
let response_of_frame line =
  match Msts.Api.response_of_line line with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable reply %S: %s" line e.Msts.Api.message

(* Admit [request] on a serve engine as the socket loop does: as one
   wire frame. *)
let engine_submit engine ?conn ~reply request =
  Msts_serve.Engine.handle_line engine ?conn ~reply (Msts.Api.request_to_line request)

(* A serve engine's [stats] payload, asked for over the wire (control
   operations are answered synchronously). *)
let serve_stats engine =
  let got = ref None in
  engine_submit engine
    ~reply:(fun line -> got := Some (response_of_frame line))
    { Msts.Api.id = None; trace = None; op = Msts.Api.Stats };
  match !got with
  | Some { Msts.Api.result = Ok json; _ } -> json
  | _ -> Alcotest.fail "no stats payload"

(* A trace violation in one line, as [Trace.report] heads it. *)
let explain (v : Msts.Trace.violation) =
  Printf.sprintf "%s violated: %s" v.invariant v.message

(* A trace segment holding [events], emitted in list order through a
   recorder: it numbers them ([seq]) in that order and sorts them into the
   canonical order. *)
let segment events =
  let r = Msts.Trace.Recorder.create () in
  Msts.Trace.with_recorder r (fun () ->
      List.iter
        (fun { Msts.Trace.time; task; kind; _ } -> Msts.Trace.emit ~time ~task kind)
        events);
  Msts.Trace.recorded r

(* ---------- schedule views the paper's claims are stated in ---------- *)

let first_emission_keyed s =
  List.init (Msts.Schedule.task_count s) (fun idx ->
      (Msts.Schedule.emission s (idx + 1) 1, idx + 1))

(* Tasks sorted by first-link emission date: the paper numbers tasks in
   this order. *)
let emission_order s = List.map snd (List.sort compare (first_emission_keyed s))

(* The earliest first-link emission date: 0 after the paper's final
   shift. *)
let start_time s = List.fold_left (fun acc (c, _) -> min acc c) max_int (first_emission_keyed s)
