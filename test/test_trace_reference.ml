(* Differential suite: the flat trace pipeline (int columns, array-state
   checker) and the one-pass feasibility check against the list-based
   originals frozen in trace_reference.ml.  Traces come from every Netsim
   entry point, with and without faults, from plans (feasible and
   corrupted), and from mutants of both: events dropped, duplicated,
   emitted in another order or moved in time.  Each pair must agree on
   the event list, on the violations of [check] (with and without the
   non-negativity rule), of [check_segment] and of a threaded check over
   two halves — invariant, message and witness — on projections, and on
   the feasibility messages. *)

open Helpers
module Trace = Msts.Trace
module Ref = Trace_reference

let small_spider = spider_gen ~max_legs:3 ~max_depth:3 ~max_val:4 ()

(* The emission order of a recorded trace: [seq] numbers it. *)
let emission_order tr =
  List.sort (fun a b -> Int.compare a.Trace.seq b.Trace.seq) (Trace.events tr)

let show_events evs = String.concat "\n" (List.map Trace.event_to_string evs)

let show_violations vs =
  String.concat "\n"
    (List.map
       (fun v ->
         explain v ^ "\n  witness: "
         ^ String.concat "; " (List.map Trace.event_to_string v.Trace.witness))
       vs)

let same ~what show got want =
  if got <> want then
    QCheck.Test.fail_reportf "%s differs\ngot:\n%s\nreference:\n%s" what (show got)
      (show want)

(* [tr] against the reference's view of the same events, [evs] (in
   canonical order). *)
let agree_on_trace tr evs =
  same ~what:"event list" show_events (Trace.events tr) evs;
  List.iter
    (fun require_nonnegative ->
      same
        ~what:(Printf.sprintf "check (nonnegative %b)" require_nonnegative)
        show_violations
        (Trace.check ~require_nonnegative tr)
        (Ref.check ~require_nonnegative evs))
    [ false; true ];
  same ~what:"check_segment" show_violations (Trace.check_segment tr)
    (Ref.check_segment evs);
  (* a threaded check over the two halves of a cut, and the halves *)
  let times = List.map (fun e -> e.Trace.time) evs in
  let at = match times with [] -> 0 | t :: _ -> t + ((List.fold_left max t times - t) / 2) in
  let a, b = Trace.split tr ~at and ra, rb = Ref.split evs ~at in
  same ~what:"split" show_events (Trace.events a @ Trace.events b) (ra @ rb);
  let st = Trace.Check.strict () and rst = Ref.Check.strict () in
  let got = Trace.Check.segment st a @ Trace.Check.segment st b in
  let want = Ref.Check.segment rst ra @ Ref.Check.segment rst rb in
  same ~what:"threaded check" show_violations got want;
  List.iter
    (fun sel ->
      same ~what:"projection" show_events (Trace.events (Trace.project tr sel))
        (Ref.project evs sel))
    [ Trace.On_resource Trace.Port; Trace.On_task 1; Trace.On_leg 1 ];
  true

(* A recorded trace against the reference's canonical order of the same
   emissions. *)
let agree_recorded tr = agree_on_trace tr (Ref.recorded (emission_order tr))

let record f =
  let r = Trace.Recorder.create () in
  (try ignore (Trace.with_recorder r f) with Invalid_argument _ | Failure _ -> ());
  Trace.recorded r

(* ---------- recorded traces, every entry point ---------- *)

type entry =
  | Execute
  | Routing of int option
  | Pull of int
  | Faulty_replay of int
  | Faulty_pull of int

let entry_gen =
  Gen.oneof
    [
      Gen.return Execute;
      Gen.map (fun b -> Routing b) (Gen.opt (Gen.int_range 1 3));
      Gen.map (fun b -> Pull b) (Gen.int_range 1 3);
      Gen.map (fun e -> Faulty_replay e) (Gen.int_range 0 6);
      Gen.map (fun e -> Faulty_pull e) (Gen.int_range 0 6);
    ]

let run_entry spider n seed = function
  | Execute ->
      ignore
        (Msts.Netsim.execute
           (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n)))
  | Routing buffer ->
      ignore
        (Msts.Netsim.replay_routing ?buffer
           (Msts.Spider_algorithm.schedule_tasks spider n))
  | Pull buffer -> ignore (Msts.Netsim.pull_policy ~buffer spider ~tasks:n)
  | Faulty_replay events ->
      let plan = Msts.Spider_algorithm.schedule_tasks spider n in
      let trace =
        Msts.Fault.random (Msts.Prng.create seed) spider ~events
          ~horizon:(Msts.Spider_schedule.makespan plan + 5)
      in
      ignore (Msts.Netsim.replay_under_faults ~max_events:100_000 ~trace plan)
  | Faulty_pull events ->
      let trace = Msts.Fault.random (Msts.Prng.create seed) spider ~events ~horizon:30 in
      ignore (Msts.Netsim.pull_under_faults ~max_events:100_000 ~trace spider ~tasks:n)

let recorded_agree =
  to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"recorded traces of every Netsim entry point = list pipeline"
       (QCheck.make
          ~print:(fun (spider, n, _, _) ->
            Printf.sprintf "%s, n=%d" (Msts.Spider.to_string spider) n)
          Gen.(
            quad small_spider (int_range 0 10) small_nat entry_gen))
       (fun (spider, n, seed, entry) ->
         agree_recorded (record (fun () -> run_entry spider n seed entry))))

(* ---------- planned traces and feasibility ---------- *)

(* A solver plan, possibly corrupted: one date of one task moved by a
   small amount, which may break any rule of Definition 1 or make a date
   negative. *)
let plan_gen =
  Gen.(
    small_spider >>= fun spider ->
    int_range 1 8 >>= fun n ->
    let plan = Msts.Spider_algorithm.schedule_tasks spider n in
    let entries =
      Array.map
        (fun (e : Schedule_reference.Spider_schedule.entry) -> { e with comms = Array.copy e.comms })
        (Schedule_reference.spider_rows plan)
    in
    oneof
      [
        return plan;
        map3
          (fun idx which delta ->
            let e = entries.(idx mod n) in
            let hops = Array.length e.comms in
            (if which mod (hops + 1) = hops then
               entries.(idx mod n) <- { e with Schedule_reference.Spider_schedule.start = e.start + delta }
             else
               let j = which mod (hops + 1) in
               e.comms.(j) <- e.comms.(j) + delta);
            Schedule_reference.spider_plan spider entries)
          (int_range 0 7) (int_range 0 3) (int_range (-6) 6);
      ])

let planned_agree =
  to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"planned traces and feasibility messages = list pipeline"
       (QCheck.make ~print:Msts.Spider_schedule.to_string plan_gen)
       (fun plan ->
         List.iter
           (fun require_nonnegative ->
             same ~what:"feasibility" (String.concat "\n")
               (Msts.Spider_schedule.check ~require_nonnegative plan)
               (Ref.spider_check ~require_nonnegative plan))
           [ false; true ];
         agree_on_trace (Trace.of_plan (Msts.Plan.Spider plan)) (Ref.of_spider_schedule plan)))

(* ---------- mutants ---------- *)

type mutation = Drop of int | Duplicate of int | Shuffle of int | Move of int * int

let mutation_gen =
  Gen.(
    oneof
      [
        map (fun i -> Drop i) small_nat;
        map (fun i -> Duplicate i) small_nat;
        map (fun s -> Shuffle s) small_nat;
        map2 (fun i d -> Move (i, d)) small_nat (int_range (-4) 4);
      ])

let mutate evs = function
  | _ when evs = [] -> evs
  | Drop i ->
      let k = i mod List.length evs in
      List.filteri (fun j _ -> j <> k) evs
  | Duplicate i ->
      let k = i mod List.length evs in
      List.concat (List.mapi (fun j e -> if j = k then [ e; e ] else [ e ]) evs)
  | Shuffle seed ->
      let a = Array.of_list evs in
      Msts.Prng.shuffle (Msts.Prng.create seed) a;
      Array.to_list a
  | Move (i, d) ->
      let k = i mod List.length evs in
      List.mapi (fun j e -> if j = k then { e with Trace.time = e.Trace.time + d } else e) evs

(* The mutated emissions through the recorder (which renumbers and orders
   them) against the reference's ordering of the same emissions. *)
let mutants_agree =
  to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"dropped, duplicated, reordered and moved events = list pipeline"
       (QCheck.make
          ~print:(fun (spider, n, _, _, _) ->
            Printf.sprintf "%s, n=%d" (Msts.Spider.to_string spider) n)
          Gen.(
            small_spider >>= fun spider ->
            map
              (fun (n, seed, entry, ms) -> (spider, n, seed, entry, ms))
              (quad (int_range 1 8) small_nat (opt entry_gen)
                 (list_size (int_range 1 3) mutation_gen))))
       (fun (spider, n, seed, entry, mutations) ->
         let source =
           match entry with
           | Some entry -> emission_order (record (fun () -> run_entry spider n seed entry))
           | None ->
               Trace.events
                 (Trace.of_plan
                    (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n)))
         in
         let emitted = List.fold_left mutate source mutations in
         agree_on_trace (segment emitted) (Ref.recorded emitted)))

let suites =
  [ ("trace.reference", [ recorded_agree; planned_agree; mutants_agree ]) ]
