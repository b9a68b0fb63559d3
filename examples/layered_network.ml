(* Layered networks reduced to heterogeneous chains (Li [7], cited in the
   paper's related work): a homogeneous grid traversed layer by layer
   behaves, from the master's point of view, like a heterogeneous chain in
   which layer k aggregates more processors (smaller effective work time)
   but sits behind k hops of latency.

   This example builds that reduction synthetically and asks the questions
   a deployment would: how deep into the network is it still worth sending
   tasks, and how does that depth grow with the batch size n?

   Run with: dune exec examples/layered_network.exe *)

(* Layer k of a W-wide grid: one hop of latency [hop] to cross, and an
   effective per-task work time of [ceil (w / min(k*fanout, W))] since the
   layer's machines drain tasks in parallel. *)
let layered_chain ~layers ~hop ~base_work ~fanout ~max_width =
  Msts.Chain.of_pairs
    (List.map
       (fun k ->
         let width = min (k * fanout) max_width in
         (hop, max 1 (Msts.Intx.ceil_div base_work width)))
       (Msts.Intx.range 1 layers))

let () =
  let layers = 8 in
  let chain = layered_chain ~layers ~hop:3 ~base_work:24 ~fanout:2 ~max_width:10 in
  Printf.printf "Reduced chain: %s\n\n" (Msts.Chain.to_string chain);

  let table =
    Msts.Table.create ~title:"how deep the batch reaches into the grid"
      ~columns:[ "n"; "makespan"; "deepest layer used"; "tasks per layer" ]
  in
  List.iter
    (fun n ->
      let sched = Msts.Chain_algorithm.schedule chain n in
      assert (Msts.Plan.check ~require_nonnegative:true (Msts.Plan.Chain sched) = []);
      let per_layer =
        String.concat "/"
          (List.map string_of_int
             (Array.to_list (Msts.Chain_analysis.tasks_per_processor chain n)))
      in
      Msts.Table.add_row table
        [
          string_of_int n;
          string_of_int (Msts.Schedule.makespan sched);
          string_of_int (Msts.Chain_analysis.used_depth chain n);
          per_layer;
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Msts.Table.print table;

  print_newline ();
  print_endline
    "Small batches stay shallow: the 3-unit hop dominates and remote layers";
  print_endline
    "cannot amortise their path latency.  As n grows, the first link's";
  print_endline
    "one-port rule saturates and the optimal schedule pushes work deeper --";
  print_endline
    "exactly the bandwidth-centric behaviour the steady-state analysis";
  Printf.printf
    "predicts (chain absorbs %.3f tasks/unit in the limit; saturation at link 1: %.3f).\n"
    (Msts.Steady_state.chain_throughput chain)
    (1.0 /. float_of_int (Msts.Chain.latency chain 1));

  (* Where the crossover happens for deep layers as the hop latency grows. *)
  let table2 =
    Msts.Table.create ~title:"hop latency vs useful depth (n = 32)"
      ~columns:[ "hop"; "makespan"; "deepest layer used" ]
  in
  List.iter
    (fun hop ->
      let chain = layered_chain ~layers ~hop ~base_work:24 ~fanout:2 ~max_width:10 in
      let sched = Msts.Chain_algorithm.schedule chain 32 in
      Msts.Table.add_row table2
        [
          string_of_int hop;
          string_of_int (Msts.Schedule.makespan sched);
          string_of_int (Msts.Chain_analysis.used_depth chain 32);
        ])
    [ 1; 2; 3; 5; 8; 12 ];
  Msts.Table.print table2
