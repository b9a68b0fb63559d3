(* Tests for the observability layer: span nesting under a deterministic
   clock, counter totals, Chrome-trace well-formedness, and — crucially —
   that the default null sink changes no output at all. *)

open Helpers
module Obs = Msts.Obs
module Json = Msts.Json

(* Install a deterministic clock ticking [step] microseconds per read and
   run [f] with a fresh memory sink; restores the wall clock afterwards. *)
let with_ticking_clock ?(step = 10) f =
  let t = ref 0 in
  Obs.set_clock
    (Some
       (fun () ->
         let now = !t in
         t := now + step;
         now));
  Fun.protect
    ~finally:(fun () -> Obs.set_clock None)
    (fun () ->
      let mem = Obs.Memory.create () in
      Obs.with_sink (Obs.Memory.sink mem) (fun () -> f ());
      mem)

(* Span begins minus span ends in a sink's log: 0 after a balanced run. *)
let open_spans mem =
  List.fold_left
    (fun depth -> function
      | Obs.Span_begin _ -> depth + 1 | Obs.Span_end _ -> depth - 1 | _ -> depth)
    0 (Obs.Memory.events mem)

(* One field of a histogram's JSON summary. *)
let hist_field h key =
  match Json.member key (Obs.Histogram.to_json h) with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "histogram summary lacks %s" key

(* ---------- spans ---------- *)

let span_nesting () =
  let mem =
    with_ticking_clock (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ());
            Obs.span "inner" (fun () -> ())))
  in
  Alcotest.(check int) "balanced" 0 (open_spans mem);
  let stats = Obs.Memory.spans mem in
  let stat name = List.assoc name stats in
  Alcotest.(check int) "inner calls" 2 (stat "inner").Obs.Memory.calls;
  Alcotest.(check int) "outer calls" 1 (stat "outer").Obs.Memory.calls;
  (* clock ticks once per event: outer B, inner B, inner E, inner B,
     inner E, outer E at ts 0,10,20,30,40,50 *)
  Alcotest.(check int) "outer total" 50 (stat "outer").Obs.Memory.total_us;
  Alcotest.(check int) "inner total" 20 (stat "inner").Obs.Memory.total_us;
  Alcotest.(check int) "inner max" 10 (stat "inner").Obs.Memory.max_us

let span_survives_exception () =
  let mem =
    with_ticking_clock (fun () ->
        try Obs.span "risky" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  Alcotest.(check int) "end emitted on raise" 0 (open_spans mem);
  Alcotest.(check int) "one completed call" 1
    (List.assoc "risky" (Obs.Memory.spans mem)).Obs.Memory.calls

let span_returns_value () =
  Alcotest.(check int) "pass-through without a sink" 42
    (Obs.span "x" (fun () -> 42));
  let mem = Obs.Memory.create () in
  let v = Obs.with_sink (Obs.Memory.sink mem) (fun () -> Obs.span "x" (fun () -> 7)) in
  Alcotest.(check int) "pass-through with a sink" 7 v

(* ---------- counters ---------- *)

let counter_totals () =
  let mem =
    with_ticking_clock (fun () ->
        Obs.count "a";
        Obs.count ~n:4 "b";
        Obs.count ~n:2 "a";
        Obs.count "b")
  in
  Alcotest.(check (list (pair string int)))
    "sorted totals"
    [ ("a", 3); ("b", 5) ]
    (Obs.Memory.counters mem);
  Alcotest.(check int) "single lookup" 3 (Obs.Memory.counter mem "a");
  Alcotest.(check int) "missing is zero" 0 (Obs.Memory.counter mem "zzz")

let counter_rows_match () =
  let mem =
    with_ticking_clock (fun () ->
        Obs.count ~n:3 "x";
        Obs.count "y")
  in
  Alcotest.(check (list (list string)))
    "table rows"
    [ [ "x"; "3" ]; [ "y"; "1" ] ]
    (Obs.Memory.counter_rows mem)

(* ---------- null sink: no behavioural change ---------- *)

let null_sink_is_default () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  (* count/span with no sink must be pure no-ops *)
  Obs.count ~n:1000 "ghost";
  Obs.span "ghost" (fun () -> ());
  let mem = with_ticking_clock (fun () -> ()) in
  Alcotest.(check (list (pair string int)))
    "nothing leaked into later sinks" [] (Obs.Memory.counters mem)

let null_sink_identical_outputs () =
  let chain = figure2_chain in
  let quiet = Msts.Chain_algorithm.schedule chain 5 in
  let mem = Obs.Memory.create () in
  let observed =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Chain_algorithm.schedule chain 5)
  in
  Alcotest.(check string)
    "schedule text identical with and without a sink"
    (Msts.Schedule.to_string quiet)
    (Msts.Schedule.to_string observed);
  Alcotest.(check bool)
    "and the sink did observe work" true
    (Obs.Memory.counter mem "chain.tasks_placed" > 0)

let with_sink_restores () =
  let outer = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink outer) (fun () ->
      let inner = Obs.Memory.create () in
      (try
         Obs.with_sink (Obs.Memory.sink inner) (fun () -> failwith "boom")
       with Failure _ -> ());
      Obs.count "after");
  Alcotest.(check bool) "no sink after with_sink" false (Obs.enabled ());
  Alcotest.(check int) "outer sink restored after inner raised" 1
    (Obs.Memory.counter outer "after")

(* ---------- Chrome trace export ---------- *)

let chrome_trace_wellformed () =
  let mem =
    with_ticking_clock (fun () ->
        Obs.span "phase" ~args:[ ("n", "5") ] (fun () -> Obs.count ~n:2 "work");
        Obs.count "work")
  in
  let text = Json.to_string ~pretty:true (Obs.Memory.chrome_trace mem) in
  match Json.parse text with
  | Error msg -> Alcotest.failf "emitted trace does not re-parse: %s" msg
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check int) "B + E + two counter samples" 4
            (List.length events);
          let phases =
            List.filter_map
              (fun ev ->
                match Json.member "ph" ev with
                | Some (Json.String ph) -> Some ph
                | _ -> None)
              events
          in
          Alcotest.(check (list string)) "phases" [ "B"; "C"; "E"; "C" ] phases;
          (* counter samples carry running totals *)
          let totals =
            List.filter_map
              (fun ev ->
                match (Json.member "ph" ev, Json.member "args" ev) with
                | Some (Json.String "C"), Some (Json.Obj [ (_, Json.Int v) ]) ->
                    Some v
                | _ -> None)
              events
          in
          Alcotest.(check (list int)) "running totals" [ 2; 3 ] totals
      | _ -> Alcotest.fail "traceEvents missing or not a list")

(* ---------- histograms ---------- *)

let hist_exact_small () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check int) "count" 8 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 31 (Obs.Histogram.sum h);
  Alcotest.(check int) "min" 1 (hist_field h "min");
  Alcotest.(check int) "max" 9 (hist_field h "max");
  (* sorted: 1 1 2 3 4 5 6 9 — values below 16 are exact *)
  Alcotest.(check int) "p0 = min" 1 (Obs.Histogram.quantile h 0.0);
  Alcotest.(check int) "p50" 3 (Obs.Histogram.quantile h 0.5);
  Alcotest.(check int) "p90" 9 (Obs.Histogram.quantile h 0.9);
  Alcotest.(check int) "p100 = max" 9 (Obs.Histogram.quantile h 1.0);
  Obs.Histogram.add h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (hist_field h "min");
  let empty = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count empty);
  Alcotest.(check int) "empty quantile" 0 (Obs.Histogram.quantile empty 0.5)

let hist_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  for v = 1 to 10 do
    Obs.Histogram.add a v
  done;
  for v = 100 to 110 do
    Obs.Histogram.add b v
  done;
  Obs.Histogram.merge_into ~into:a b;
  Alcotest.(check int) "count" 21 (Obs.Histogram.count a);
  Alcotest.(check int) "sum" (55 + 1155) (Obs.Histogram.sum a);
  Alcotest.(check int) "min" 1 (hist_field a "min");
  Alcotest.(check int) "max" 110 (hist_field a "max");
  (* rank 11 of 21 is the first of b's samples; 100 is a bucket lower
     bound, so it reports exactly *)
  Alcotest.(check int) "p50 across the merge" 100 (Obs.Histogram.quantile a 0.5)

(* Against a naive sorted-array oracle: the log-bucketed quantile never
   overshoots and undershoots by at most 1/16 of the exact value. *)
let hist_quantile_error_bound =
  QCheck.Test.make ~name:"histogram quantile within 1/16 of exact" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun values ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.add h) values;
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank =
            max 1 (min n (int_of_float (ceil (q *. float_of_int n))))
          in
          let exact = sorted.(rank - 1) in
          let approx = Obs.Histogram.quantile h q in
          approx <= exact && exact - approx <= exact / 16)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let record_feeds_histograms () =
  let mem =
    with_ticking_clock (fun () ->
        List.iter (fun v -> Obs.record "lat" v) [ 1; 2; 3; 100 ])
  in
  (match List.assoc_opt "lat" (Obs.Memory.histograms mem) with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
      Alcotest.(check int) "max" 100 (hist_field h "max"));
  Alcotest.(check (list (list string)))
    "table rows"
    [ [ "lat"; "4"; "2"; "100"; "100"; "100" ] ]
    (Obs.Memory.histogram_rows mem);
  Alcotest.(check bool) "absent name" true
    (List.assoc_opt "zzz" (Obs.Memory.histograms mem) = None)

let span_duration_histograms () =
  (* ticking clock: every event advances 10us, so each call lasts 10us *)
  let mem =
    with_ticking_clock (fun () ->
        for _ = 1 to 3 do
          Obs.span "work" (fun () -> ())
        done)
  in
  Alcotest.(check (list (list string)))
    "calls and duration quantiles" [ [ "work"; "3"; "30"; "10"; "10"; "10" ] ]
    (Obs.Memory.span_rows mem)

(* ---------- bounded raw log ---------- *)

let memory_cap_bounds_log () =
  let mem = Obs.Memory.create ~max_events:8 () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      for _ = 1 to 100 do
        Obs.count "n"
      done;
      Obs.record "v" 5);
  Alcotest.(check int) "dropped" 93 (Obs.Memory.dropped_events mem);
  Alcotest.(check int) "log holds the cap" 8 (List.length (Obs.Memory.events mem));
  (* aggregates are exact past the cap *)
  Alcotest.(check int) "counter exact" 100 (Obs.Memory.counter mem "n");
  (match List.assoc_opt "v" (Obs.Memory.histograms mem) with
  | Some h -> Alcotest.(check int) "histogram exact" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "histogram missing");
  (* the newest events are the ones retained *)
  match List.rev (Obs.Memory.events mem) with
  | Obs.Value { name = "v"; value = 5; _ } :: _ -> ()
  | _ -> Alcotest.fail "newest event not retained"

(* A log-less sink (the daemon's metrics sink) stores no event at all but
   still counts each one as dropped, and its aggregates stay exact. *)
let memory_without_log () =
  let mem = Obs.Memory.create ~max_events:0 () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      Obs.Scope.with_scope (Obs.Scope.fresh ()) (fun () ->
          for _ = 1 to 10 do
            Obs.count "n"
          done;
          Obs.record "v" 5));
  Alcotest.(check int) "nothing stored" 0 (List.length (Obs.Memory.events mem));
  Alcotest.(check int) "every event dropped" 11 (Obs.Memory.dropped_events mem);
  Alcotest.(check int) "counter exact" 10 (Obs.Memory.counter mem "n");
  match List.assoc_opt "v" (Obs.Memory.histograms mem) with
  | Some h -> Alcotest.(check int) "histogram exact" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "histogram missing"

(* ---------- streaming sink ---------- *)

let streaming_sink_bounded () =
  let path = Filename.temp_file "msts_stream" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let st = Obs.Streaming.create ~flush_every:8 oc in
  Obs.with_sink (Obs.Streaming.sink st) (fun () ->
      for i = 1 to 50 do
        Obs.record "v" i
      done;
      Obs.count "c";
      Obs.span "s" ~args:[ ("k", "x") ] (fun () -> ()));
  Obs.Streaming.flush st;
  close_out oc;
  Alcotest.(check bool) "buffer high-water bounded by flush_every" true
    (Obs.Streaming.max_buffered st <= 8);
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one JSON line per event" 53 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "bad JSONL line %s: %s" line msg
      | Ok json -> (
          match Json.member "ev" json with
          | Some (Json.String ("B" | "E" | "C" | "V")) -> ()
          | _ -> Alcotest.failf "line lacks an event tag: %s" line))
    lines

let streaming_rejects_bad_flush_every () =
  let oc = open_out Filename.null in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  match Obs.Streaming.create ~flush_every:0 oc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flush_every 0 accepted"

(* ---------- ring sink ---------- *)

let ring_keeps_last_n () =
  let r = Obs.Ring.create ~capacity:4 () in
  Obs.with_sink (Obs.Ring.sink r) (fun () ->
      for i = 1 to 10 do
        Obs.record "v" i
      done);
  let values =
    List.map
      (function Obs.Value { value; _ } -> value | _ -> -1)
      (Obs.Ring.events r)
  in
  Alcotest.(check (list int)) "newest 4, oldest first" [ 7; 8; 9; 10 ] values;
  let lines =
    Obs.Ring.to_jsonl r |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "jsonl lines" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "bad ring line %s: %s" line msg)
    lines

let tee_fans_out () =
  let mem = Obs.Memory.create () in
  let r = Obs.Ring.create ~capacity:2 () in
  Obs.with_sink (Obs.tee [ Obs.Memory.sink mem; Obs.Ring.sink r ]) (fun () ->
      Obs.count "a";
      Obs.count "a";
      Obs.count "b");
  Alcotest.(check int) "memory saw the counts" 2 (Obs.Memory.counter mem "a");
  Alcotest.(check (list string)) "ring kept the last two" [ "a"; "b" ]
    (List.map (function Obs.Count { name; _ } -> name | _ -> "?") (Obs.Ring.events r))

(* ---------- request scopes ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let scope_attribution () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      Obs.count "plain";
      Obs.Scope.with_scope 5 (fun () ->
          Obs.count "hits";
          Obs.count ~n:2 "hits";
          Obs.record "lat" 10);
      Obs.Scope.with_scope 9 (fun () ->
          Obs.count "hits";
          Obs.record "lat" 100));
  (* global aggregates see everything *)
  Alcotest.(check int) "global counter" 4 (Obs.Memory.counter mem "hits");
  (* each event carries the scope it was emitted under *)
  Alcotest.(check (list (pair string int)))
    "events stamped with their scope"
    [ ("plain", 0); ("hits", 5); ("hits", 5); ("lat", 5); ("hits", 9); ("lat", 9) ]
    (List.map
       (function
         | Obs.Count { name; scope; _ } | Obs.Value { name; scope; _ } -> (name, scope)
         | _ -> Alcotest.fail "unexpected event")
       (Obs.Memory.events mem))

let scope_stamped_in_json () =
  let r = Obs.Ring.create ~capacity:8 () in
  Obs.with_sink (Obs.Ring.sink r) (fun () ->
      Obs.count "plain";
      Obs.Scope.with_scope 5 (fun () -> Obs.count "scoped"));
  match
    Obs.Ring.to_jsonl r |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  with
  | [ plain; scoped ] ->
      Alcotest.(check bool) "unscoped event carries no sc field" false
        (contains plain "\"sc\"");
      Alcotest.(check bool) "scoped event stamped sc:5" true
        (contains scoped "\"sc\":5")
  | lines -> Alcotest.failf "expected 2 events, got %d" (List.length lines)

let scope_nesting_and_exceptions () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      Obs.Scope.with_scope 3 (fun () ->
          Alcotest.(check int) "inside" 3 (Obs.Scope.current ());
          Obs.Scope.with_scope 4 (fun () ->
              Alcotest.(check int) "nested" 4 (Obs.Scope.current ()));
          Alcotest.(check int) "restored after nesting" 3 (Obs.Scope.current ());
          (try Obs.Scope.with_scope 8 (fun () -> failwith "boom")
           with Failure _ -> ());
          Alcotest.(check int) "restored after exception" 3
            (Obs.Scope.current ()));
      Alcotest.(check int) "back to none" Obs.Scope.none (Obs.Scope.current ()))

(* The memory sink aggregates globally only: the words it allocates per
   event are the same whether the events come from 10 scopes or from
   1000. *)
let memory_cost_independent_of_scopes () =
  let words_per_event scopes =
    let mem = Obs.Memory.create () in
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        let before = Gc.minor_words () in
        for i = 0 to 999 do
          Obs.Scope.with_scope (1 + (i mod scopes)) (fun () ->
              Obs.count "n";
              Obs.record "v" i)
        done;
        (Gc.minor_words () -. before) /. 2000.)
  in
  Alcotest.(check (float 0.))
    "minor words per event" (words_per_event 10) (words_per_event 1000)

let scope_fresh_monotone () =
  let a = Obs.Scope.fresh () in
  let b = Obs.Scope.fresh () in
  Alcotest.(check bool) "fresh scopes are distinct and nonzero" true
    (a <> b && a <> Obs.Scope.none && b <> Obs.Scope.none)

(* With no sink installed the scope machinery must stay entirely off the
   hot path: [with_scope] runs the thunk directly, allocating nothing. *)
let calibrate () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let disabled_scope_path_allocation_free () =
  Alcotest.(check bool) "no sink installed" false (Obs.enabled ());
  let tick = ref 0 in
  (* allocate the thunk once — a literal [fun () -> incr tick] at the call
     site would heap-allocate its closure on every iteration and drown the
     measurement *)
  let thunk () = incr tick in
  let work () = Obs.Scope.with_scope 42 thunk in
  work () (* warm-up *);
  let baseline = calibrate () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    work ()
  done;
  let after = Gc.minor_words () in
  let extra = after -. before -. baseline in
  Alcotest.(check bool)
    (Printf.sprintf "1000 disabled with_scope calls allocated %.0f minor words"
       extra)
    true (extra <= 0.5);
  Alcotest.(check int) "thunks all ran" 1001 !tick

let scope_propagates_to_pool_workers () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) @@ fun () ->
  Msts.Pool.with_pool ~jobs:2 @@ fun pool ->
  Obs.Scope.with_scope 7 @@ fun () ->
  let seen =
    Msts.Pool.map pool (fun _ -> Obs.Scope.current ()) (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun i sc ->
      Alcotest.(check int) (Printf.sprintf "item %d ran under scope 7" i) 7 sc)
    seen;
  (* the worker resets its scope after each item *)
  let cleared =
    Obs.Scope.with_scope Obs.Scope.none (fun () ->
        Msts.Pool.map pool (fun _ -> Obs.Scope.current ()) (Array.init 4 Fun.id))
  in
  Array.iter
    (fun sc -> Alcotest.(check int) "scope cleared between batches" 0 sc)
    cleared

(* ---------- sinks under exceptions ---------- *)

let tee_isolates_failing_sinks () =
  let mem = Obs.Memory.create () in
  let deliveries = ref 0 in
  let failing _ =
    incr deliveries;
    failwith "sink died"
  in
  Obs.with_sink
    (Obs.tee [ failing; Obs.Memory.sink mem ])
    (fun () ->
      Obs.count "a";
      Obs.count "a");
  Alcotest.(check int) "failing sink was offered every event" 2 !deliveries;
  Alcotest.(check int) "surviving sink saw every event" 2
    (Obs.Memory.counter mem "a")

let streaming_no_partial_line_on_exception () =
  let path = Filename.temp_file "msts_stream_exn" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let st = Obs.Streaming.create ~flush_every:4 oc in
  (try
     Obs.with_sink (Obs.Streaming.sink st) (fun () ->
         for i = 1 to 10 do
           Obs.record "v" i
         done;
         Obs.span "dies" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Obs.Streaming.flush st;
  close_out oc;
  Alcotest.(check bool) "sink restored after the raise" false (Obs.enabled ());
  let text = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check bool) "file ends on a newline" true
    (text <> "" && text.[String.length text - 1] = '\n');
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (* 10 records + span B and E (span re-raises after emitting its end) *)
  Alcotest.(check int) "every buffered event flushed whole" 12
    (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "partial JSONL line %S: %s" line msg)
    lines

(* ---------- Chrome trace of a real workload ---------- *)

(* Parse the exported trace and verify the structural invariants viewers
   rely on: B/E balanced per name (LIFO), timestamps non-decreasing. *)
let chrome_trace_execution_valid () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      let spider =
        Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ]
      in
      let problem =
        Msts.Solve.problem ~tasks:6 (Msts.Platform_format.Spider_platform spider)
      in
      match Msts.Solve.solve problem with
      | Error msg -> Alcotest.fail msg
      | Ok plan -> ignore (Msts.Netsim.execute plan));
  let text = Json.to_string ~pretty:true (Obs.Memory.chrome_trace mem) in
  match Json.parse text with
  | Error msg -> Alcotest.failf "trace does not re-parse: %s" msg
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check bool) "non-empty" true (List.length events > 0);
          let stacks : (string, int) Hashtbl.t = Hashtbl.create 16 in
          let last_ts = ref min_int in
          let opened = ref 0 in
          List.iter
            (fun ev ->
              let name =
                match Json.member "name" ev with
                | Some (Json.String s) -> s
                | _ -> Alcotest.fail "event without a name"
              in
              (match Json.member "ts" ev with
              | Some (Json.Int ts) ->
                  if ts < !last_ts then
                    Alcotest.failf "timestamps decrease at %s" name;
                  last_ts := ts
              | _ -> ());
              match Json.member "ph" ev with
              | Some (Json.String "B") ->
                  incr opened;
                  Hashtbl.replace stacks name
                    (1 + Option.value ~default:0 (Hashtbl.find_opt stacks name))
              | Some (Json.String "E") ->
                  let depth =
                    Option.value ~default:0 (Hashtbl.find_opt stacks name)
                  in
                  if depth <= 0 then Alcotest.failf "E without B for %s" name;
                  Hashtbl.replace stacks name (depth - 1)
              | Some (Json.String "C") | None -> ()
              | Some other ->
                  Alcotest.failf "unexpected phase %s" (Json.to_string other))
            events;
          Alcotest.(check bool) "spans were exported" true (!opened > 0);
          Hashtbl.iter
            (fun name depth ->
              if depth <> 0 then Alcotest.failf "unbalanced span %s" name)
            stacks
      | _ -> Alcotest.fail "traceEvents missing")

(* ---------- tallied counters: one event per run ---------- *)

(* The counter events [f] emits, in order, as (name, delta) pairs. *)
let counter_events f =
  let seen = ref [] in
  let sink = function
    | Obs.Count { name; delta; _ } -> seen := (name, delta) :: !seen
    | _ -> ()
  in
  let result = Obs.with_sink sink f in
  (result, List.rev !seen)

(* Each counter name [f] emits appears in exactly one event: the hot
   loops tally and emit once per call.  Returns [name]'s total. *)
let once label events name =
  List.iter
    (fun (n, _) ->
      let k = List.length (List.filter (fun (m, _) -> m = n) events) in
      if k <> 1 then Alcotest.failf "%s: %d %s events, want 1" label k n)
    events;
  match List.assoc_opt name events with
  | Some total -> total
  | None -> Alcotest.failf "%s: no %s event" label name

(* Every event [f] emits, in order. *)
let all_events f =
  let seen = ref [] in
  let result = Obs.with_sink (fun ev -> seen := ev :: !seen) f in
  (result, List.rev !seen)

let counter_total events name =
  List.fold_left
    (fun acc -> function
      | Obs.Count { name = n; delta; _ } when n = name -> acc + delta
      | _ -> acc)
    0 events

(* The single [Samples] event of [name] among [events], checked for its
   documented shape, as (sample count, sample sum).  A per-sample [Value]
   of that name fails. *)
let samples_once label events name =
  let found =
    List.filter_map
      (function
        | Obs.Samples { name = n; values; counts; _ } when n = name ->
            Some (values, counts)
        | Obs.Value { name = n; _ } when n = name ->
            Alcotest.failf "%s: a per-sample %s event" label name
        | _ -> None)
      events
  in
  match found with
  | [ (values, counts) ] ->
      Array.iteri
        (fun i v ->
          if v < 0 || (i > 0 && values.(i - 1) >= v) || counts.(i) < 1 then
            Alcotest.failf "%s: %s is not an ascending multiset" label name)
        values;
      let count = Array.fold_left ( + ) 0 counts in
      let sum = ref 0 in
      Array.iteri (fun i v -> sum := !sum + (v * counts.(i))) values;
      (count, !sum)
  | l -> Alcotest.failf "%s: %d %s events, want 1" label (List.length l) name

(* One simulator run's invariants: one event per histogram, one gap per
   executed event, gaps telescoping to the final clock (when [clock] is
   known; otherwise at least [at_least]) and, without faults, one transfer
   sample per transfer. *)
let check_gaps label ?clock ?(at_least = 0) events =
  let gaps, gap_sum = samples_once label events "engine.event_gap_us" in
  Alcotest.(check int)
    (label ^ ": gap count = engine.events")
    (counter_total events "engine.events")
    gaps;
  match clock with
  | Some c -> Alcotest.(check int) (label ^ ": gaps sum to the final clock") c gap_sum
  | None ->
      if gap_sum < at_least then
        Alcotest.failf "%s: gaps sum to %d < %d" label gap_sum at_least

let check_run label ?clock ?at_least ?(faults = false) events =
  check_gaps label ?clock ?at_least events;
  let transfers, _ = samples_once label events "netsim.transfer_us" in
  if not faults then
    Alcotest.(check int)
      (label ^ ": transfer count = netsim.transfers")
      (counter_total events "netsim.transfers")
      transfers

let tallied_once n () =
  let label call = Printf.sprintf "%s, n=%d" call n in
  let chain = figure2_chain in
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ]
  in
  let plan = Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n) in
  let placed call f =
    let _, evs = counter_events f in
    Alcotest.(check int) (label call) n
      (once (label call) evs "chain.tasks_placed");
    List.iter
      (fun name -> ignore (once (label call) evs name))
      [
        "chain.candidate_scans";
        "chain.hull_updates";
        "chain.kernel.fast_placements";
      ]
  in
  placed "Algorithm.schedule" (fun () ->
      ignore (Msts.Chain_algorithm.schedule chain n));
  placed "Algorithm.makespan" (fun () ->
      ignore (Msts.Chain_algorithm.makespan chain n));
  placed "Incremental.fill" (fun () ->
      let horizon = Msts.Chain.master_only_makespan chain n in
      let inc = Msts.Chain_incremental.create chain ~horizon in
      Alcotest.(check int) "fill places n" n
        (Msts.Chain_incremental.fill inc ~max_tasks:n ()));
  let inc =
    Msts.Chain_incremental.create chain
      ~horizon:(Msts.Chain.master_only_makespan chain n)
  in
  for _ = 1 to n do
    let _, evs =
      counter_events (fun () -> Msts.Chain_incremental.add_task inc)
    in
    Alcotest.(check int) (label "Incremental.add_task") 1
      (once (label "Incremental.add_task") evs "chain.tasks_placed")
  done;
  let accepted, evs =
    counter_events (fun () ->
        fork_allocate (Msts.Fork.of_pairs [ (1, 2); (2, 3) ]) ~deadline:(3 * n) ~budget:n)
  in
  ignore (once (label "Allocator.sweep") evs "fork.insert_probes");
  Alcotest.(check int) (label "Allocator.sweep") (List.length accepted)
    (once (label "Allocator.sweep") evs "fork.nodes_accepted");
  let _, evs = counter_events (fun () -> Msts.Netsim.execute plan) in
  ignore (once (label "Netsim.execute") evs "engine.events");
  let _, evs =
    counter_events (fun () -> Msts.Netsim.pull_policy spider ~tasks:n)
  in
  ignore (once (label "Netsim.pull_policy") evs "engine.events");
  let r = Msts.Trace.Recorder.create () in
  let _, evs =
    counter_events (fun () ->
        Msts.Trace.with_recorder r (fun () -> Msts.Netsim.execute plan))
  in
  Alcotest.(check int) (label "Trace.with_recorder")
    (Msts.Trace.length (Msts.Trace.recorded r))
    (once (label "Trace.with_recorder") evs "trace.events");
  let e = Msts.Engine.create () in
  for time = 1 to n do
    Msts.Engine.schedule_at e time 0
  done;
  let (), evs = counter_events (fun () -> Msts.Engine.run e ignore) in
  Alcotest.(check int) (label "Engine.run") n
    (once (label "Engine.run") evs "engine.events")

(* A run that exhausts its budget still reports the events it ran (and
   their gaps), and a later run on the same engine reports only its own;
   a simulation that exhausts its budget still reports every netsim
   tally. *)
let engine_budget_tallied () =
  let e = Msts.Engine.create () in
  let tick _ = Msts.Engine.schedule_at e (Msts.Engine.now e + 1) 0 in
  Msts.Engine.schedule_at e 0 0;
  let (), evs =
    all_events (fun () ->
        match Msts.Engine.run ~max_events:7 e tick with
        | () -> Alcotest.fail "the budget should run out"
        | exception Failure _ -> ())
  in
  Alcotest.(check (list (pair string int)))
    "one tally of the budget" [ ("engine.events", 7) ]
    (List.filter_map
       (function Obs.Count { name; delta; _ } -> Some (name, delta) | _ -> None)
       evs);
  check_gaps "Engine.run, budget 7" ~clock:(Msts.Engine.now e) evs;
  let (), evs =
    counter_events (fun () ->
        try Msts.Engine.run ~max_events:3 e tick with Failure _ -> ())
  in
  Alcotest.(check (list (pair string int)))
    "the second run counts its own events" [ ("engine.events", 3) ] evs;
  (* a simulation: every netsim tally and both histograms survive *)
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ]
  in
  let plan = Msts.Spider_algorithm.schedule_tasks spider 30 in
  let (), evs =
    all_events (fun () ->
        match Msts.Netsim.replay_under_faults ~max_events:40 plan with
        | _ -> Alcotest.fail "the budget should run out"
        | exception Failure _ -> ())
  in
  Alcotest.(check int) "netsim engine.events" 40 (counter_total evs "engine.events");
  List.iter
    (fun name ->
      if counter_total evs name = 0 then Alcotest.failf "%s lost" name)
    [ "netsim.transfers"; "netsim.executions" ];
  check_run "replay_under_faults, budget 40" evs

(* ---------- simulated-time samples: one event per histogram per run ---------- *)

let last_fault trace = List.fold_left (fun m e -> max m e.Msts.Fault.at) 0 trace

let samples_per_run =
  QCheck.Test.make ~name:"one histogram event per name per run, exact counts"
    ~count:150
    QCheck.(pair (spider_with_n_arb ~max_legs:3 ~max_depth:3 ~max_n:12 ()) small_nat)
    (fun ((spider, n), seed) ->
      let plan = Msts.Spider_algorithm.schedule_tasks spider n in
      let makespan = Msts.Spider_schedule.makespan in
      if n > 0 then begin
        let r, evs = all_events (fun () -> Msts.Netsim.execute (Msts.Plan.Spider plan)) in
        check_run "execute" ~clock:r.Msts.Netsim.realized_makespan evs;
        let r, evs =
          all_events (fun () -> Msts.Netsim.replay_routing ~buffer:(1 + (seed mod 3)) plan)
        in
        check_run "replay_routing" ~clock:r.Msts.Netsim.realized_makespan evs;
        let s, evs =
          all_events (fun () -> Msts.Netsim.pull_policy ~buffer:2 spider ~tasks:n)
        in
        check_run "pull_policy" ~clock:(makespan s) evs;
        let trace =
          Msts.Fault.random (Msts.Prng.create seed) spider ~events:3
            ~horizon:(max 1 (makespan plan))
        in
        (match all_events (fun () -> Msts.Netsim.replay_under_faults ~trace plan) with
        | r, evs ->
            check_run "replay_under_faults" ~faults:true
              ~at_least:(max r.Msts.Netsim.observed_makespan (last_fault trace))
              evs
        | exception Invalid_argument _ -> ());
        match
          all_events (fun () -> Msts.Netsim.pull_under_faults ~trace spider ~tasks:n)
        with
        | r, evs ->
            check_run "pull_under_faults" ~faults:true
              ~at_least:(max r.Msts.Netsim.observed_makespan (last_fault trace))
              evs
        | exception Invalid_argument _ -> ()
      end;
      let e = Msts.Engine.create () in
      for i = 1 to n do
        Msts.Engine.schedule_at e (i * (seed + i)) 0
      done;
      let (), evs = all_events (fun () -> Msts.Engine.run e ignore) in
      if n > 0 then check_gaps "Engine.run" ~clock:(Msts.Engine.now e) evs
      else if evs <> [] then Alcotest.fail "an empty run emitted events";
      true)

(* A tally hands over exactly the multiset it was given, once. *)
let tally_exact =
  QCheck.Test.make ~name:"a tally emits the exact multiset, then empties" ~count:300
    QCheck.(list (int_range (-3) 5000))
    (fun samples ->
      let t = Msts_sim.Tally.create () in
      List.iter (Msts_sim.Tally.add t) samples;
      let (), evs = all_events (fun () -> Msts_sim.Tally.emit t "x") in
      let (), again = all_events (fun () -> Msts_sim.Tally.emit t "x") in
      let expected =
        List.map (max 0) samples |> List.sort compare
        |> List.fold_left
             (fun acc v ->
               match acc with
               | (w, k) :: rest when w = v -> (w, k + 1) :: rest
               | _ -> (v, 1) :: acc)
             []
        |> List.rev
      in
      let got =
        match evs with
        | [] -> []
        | [ Obs.Samples { name = "x"; values; counts; _ } ] ->
            List.combine (Array.to_list values) (Array.to_list counts)
        | _ -> QCheck.Test.fail_report "not one Samples event"
      in
      got = expected && again = [])

(* [n] copies through [add_many] leave exactly the state of [n] [add]s. *)
let hist_add_many_exact =
  QCheck.Test.make ~name:"add_many = repeated add" ~count:300
    QCheck.(list (pair (int_range (-10) 1_000_000) (int_range (-1) 40)))
    (fun pairs ->
      let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
      List.iter
        (fun (v, n) ->
          Obs.Histogram.add_many a v ~n;
          for _ = 1 to n do
            Obs.Histogram.add b v
          done)
        pairs;
      let state h =
        (Obs.Histogram.buckets h, Json.to_string (Obs.Histogram.to_json h))
      in
      state a = state b)

(* Every reader of a Memory sink -- its histograms, the JSON and table
   views, the Prometheus exposition -- sees a Samples event exactly as the
   Values it summarises. *)
let samples_read_as_values () =
  let scope = Obs.Scope.fresh () in
  let values = [| 0; 3; 17; 250 |] and counts = [| 2; 1; 5; 1 |] in
  let feed emit =
    let mem = Obs.Memory.create () in
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Obs.Scope.with_scope scope emit);
    mem
  in
  let by_values =
    feed (fun () ->
        Array.iteri
          (fun i v ->
            for _ = 1 to counts.(i) do
              Obs.record "h" v
            done)
          values)
  in
  let by_samples = feed (fun () -> Obs.samples "h" ~values ~counts) in
  let views mem =
    let hist = function
      | Some h -> (Obs.Histogram.buckets h, Json.to_string (Obs.Histogram.to_json h))
      | None -> Alcotest.fail "histogram missing"
    in
    ( hist (List.assoc_opt "h" (Obs.Memory.histograms mem)),
      Json.to_string (Obs.Memory.to_json mem),
      Obs.Memory.histogram_rows mem,
      Obs.Prometheus.of_memory mem )
  in
  Alcotest.(check bool) "identical views" true (views by_values = views by_samples);
  Alcotest.(check int) "one event" 1 (List.length (Obs.Memory.events by_samples))

(* One line, one ring slot and one Chrome counter point per event. *)
let samples_event_shapes () =
  let r = Obs.Ring.create () in
  let mem = Obs.Memory.create () in
  Obs.set_clock (Some (fun () -> 7));
  Fun.protect ~finally:(fun () -> Obs.set_clock None) (fun () ->
      Obs.with_sink
        (Obs.tee [ Obs.Ring.sink r; Obs.Memory.sink mem ])
        (fun () -> Obs.samples "g" ~values:[| 1; 4 |] ~counts:[| 3; 2 |]));
  Alcotest.(check string) "JSONL line"
    "{\"ev\":\"S\",\"name\":\"g\",\"values\":[1,4],\"counts\":[3,2],\"ts\":7}\n"
    (Obs.Ring.to_jsonl r);
  match Json.member "traceEvents" (Obs.Memory.chrome_trace mem) with
  | Some (Json.List [ point ]) ->
      Alcotest.(check (option string)) "counter phase" (Some "\"C\"")
        (Option.map Json.to_string (Json.member "ph" point));
      Alcotest.(check (option string)) "count and sum"
        (Some "{\"count\":5,\"sum\":11}")
        (Option.map Json.to_string (Json.member "args" point))
  | _ -> Alcotest.fail "want exactly one trace event"

(* With no sink installed no tally exists: a run allocates the same minor
   words whether its samples take one value or many.  With a sink, the
   many-valued run's tally tables are larger, so the measurement sees
   them. *)
let no_sink_no_tally () =
  Alcotest.(check bool) "no sink installed" false (Obs.enabled ());
  let words f =
    let baseline = calibrate () in
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before -. baseline
  in
  let engine_run gap =
    let e = Msts.Engine.create () in
    for i = 1 to 200 do
      Msts.Engine.schedule_at e (gap i) 0
    done;
    words (fun () -> Msts.Engine.run e ignore)
  in
  let flat i = i and spread i = i * i in
  Alcotest.(check (float 0.))
    "Engine.run" (engine_run flat) (engine_run spread);
  let fork latency =
    Msts.Spider.of_legs
      (List.init 40 (fun i -> Msts.Chain.of_pairs [ (latency (i + 1), 10_000) ]))
  in
  let seq = Array.init 40 (fun i -> { Msts.Spider.leg = i + 1; depth = 1 }) in
  let netsim latency =
    let spider = fork latency in
    words (fun () -> ignore (Eager.spider_schedule spider seq))
  in
  let same _ = 3 and distinct l = l in
  Alcotest.(check (float 0.))
    "Netsim.replay_routing" (netsim same) (netsim distinct);
  Obs.with_sink ignore (fun () ->
      Alcotest.(check bool)
        "with a sink the tables show" true
        (engine_run spread > engine_run flat && netsim distinct > netsim same))

(* ---------- metric-name drift guard ---------- *)

(* A corpus touching every instrumented subsystem: chain and spider
   solves, the deadline variant, event-driven execution, the pull
   baseline, faults with replanning, and a pooled batch. *)
let corpus () =
  let chain_platform = Msts.Platform_format.Chain_platform figure2_chain in
  let spider =
    Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ]
  in
  let spider_platform = Msts.Platform_format.Spider_platform spider in
  let solve problem =
    match Msts.Solve.solve problem with
    | Ok plan -> plan
    | Error msg -> Alcotest.fail msg
  in
  ignore (Msts.Netsim.execute (solve (Msts.Solve.problem ~tasks:5 chain_platform)));
  ignore (Msts.Netsim.execute (solve (Msts.Solve.problem ~tasks:6 spider_platform)));
  ignore (solve (Msts.Solve.problem ~deadline:30 chain_platform));
  ignore (Msts.Netsim.pull_policy spider ~tasks:4);
  let plan = Msts.Spider_algorithm.schedule_tasks spider 5 in
  let horizon = Msts.Spider_schedule.makespan plan in
  let trace = Msts.Fault.random (Msts.Prng.create 3) spider ~events:3 ~horizon in
  ignore (Msts.Replan.replay ~trace plan);
  ignore (Msts.Netsim.replay_under_faults ~trace plan);
  (let r = Msts.Trace.Recorder.create () in
   Msts.Trace.with_recorder r (fun () ->
       ignore (Msts.Netsim.execute (Msts.Plan.Spider plan)));
   ignore (Msts.Trace.check (Msts.Trace.recorded r));
   (* a dirty planned trace, so trace.violations is exercised too *)
   let dirty =
     segment
       [
         { Msts.Trace.time = 0; seq = 0; task = 1;
           kind = Msts.Trace.Start (Msts.Trace.Transfer { leg = 1; hop = 1 }) };
         { Msts.Trace.time = 0; seq = 1; task = 2;
           kind = Msts.Trace.Start (Msts.Trace.Transfer { leg = 1; hop = 1 }) };
       ]
   in
   ignore (Msts.Trace.check dirty));
  ignore
    (Msts.Batch.run ~jobs:1 ~solve:Msts.Solve.solve
       [|
         Msts.Solve.problem ~tasks:4 chain_platform;
         Msts.Solve.problem ~tasks:4 chain_platform;
       |]);
  (* a batch frame with a repeat: the decoder's element memo *)
  ignore
    (Msts.Api.request_of_line
       (Msts.Api.request_to_line
          {
            Msts.Api.id = None;
            trace = None;
            op =
              Msts.Api.Batch
                (Array.make 3 (Msts.Solve.problem ~tasks:4 chain_platform));
          }));
  (* The online anytime scheduler: one session with arrivals, a deadline
     extension (displacements) and an adopted degradation (replan); a
     second session exercising rejection and freezing. *)
  (let o = Msts_online.Online.create figure2_chain ~deadline:40 in
   ignore (Msts_online.Online.submit o 6);
   (match Msts_online.Online.extend o ~deadline:60 with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
   match Msts_online.Online.degrade o ~at:1 ~work_factor:2 with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  (let o = Msts_online.Online.create figure2_chain ~deadline:14 in
   ignore (Msts_online.Online.submit o 9) (* only 5 fit: rejections *);
   ignore (Msts_online.Online.advance o ~time:14) (* freeze them all *));
  (* The serve engine, under a deterministic clock so the queue-wait
     timeout path fires without sleeping: two requests age past the
     10us deadline, a third lands on a full queue (overloaded), a
     malformed frame exercises the rejection counters, and a final
     dispatch at a frozen clock solves live. *)
  let clock = ref 0 in
  Msts.Obs.set_clock (Some (fun () -> !clock));
  Fun.protect ~finally:(fun () -> Msts.Obs.set_clock None) @@ fun () ->
  let engine =
    Msts_serve.Engine.create
      {
        Msts_serve.Engine.default_config with
        cache_capacity = 4;
        queue_cap = 2;
        timeout_us = 10;
      }
  in
  let sink _ = () in
  let ask op =
    Msts_serve.Engine.handle_line engine ~reply:sink
      (Msts.Api.request_to_line { Msts.Api.id = None; trace = None; op })
  in
  let schedule = Msts.Api.Schedule (Msts.Solve.problem ~tasks:4 chain_platform) in
  ask schedule;
  ask schedule;
  ask schedule (* queue_cap 2: rejected as overloaded *);
  ask Msts.Api.Ping (* control fast path *);
  Msts_serve.Engine.handle_line engine ~reply:sink "{not json" (* bad frame *);
  clock := 1000;
  ignore (Msts_serve.Engine.dispatch engine) (* both queued solves time out *);
  ask schedule;
  ignore (Msts_serve.Engine.dispatch engine) (* live solve at wait 0 *);
  (let gone = Msts_serve.Engine.open_conn engine in
   Msts_serve.Engine.handle_line engine ~conn:gone ~reply:sink
     (Msts.Api.request_to_line { Msts.Api.id = None; trace = None; op = schedule });
   Msts_serve.Engine.close_conn engine gone (* its queued solve is purged *));
  Msts_serve.Engine.shutdown engine

(* Backticked lowercase dotted tokens of docs/OBSERVABILITY.md (the test
   rule copies the file next to the runner). *)
let documented_names () =
  let text =
    In_channel.with_open_text "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  let is_name s =
    s <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.')
         s
  in
  String.split_on_char '`' text
  |> List.filteri (fun i _ -> i land 1 = 1)
  |> List.filter is_name |> List.sort_uniq compare

let emitted_names () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) corpus;
  List.map fst (Obs.Memory.counters mem)
  @ List.map fst (Obs.Memory.spans mem)
  @ List.map fst (Obs.Memory.histograms mem)
  |> List.sort_uniq compare

(* Every name the corpus emits must appear in docs/OBSERVABILITY.md, and a
   curated core set must both be emitted and be documented — so neither
   the code nor the catalogue can drift silently. *)
let metric_names_documented () =
  let documented = documented_names () in
  let emitted = emitted_names () in
  Alcotest.(check (list string))
    "emitted but undocumented names" []
    (List.filter (fun n -> not (List.mem n documented)) emitted);
  let core =
    [
      "solve";
      "chain.candidate_scans";
      "chain.tasks_placed";
      "chain.kernel.fast_placements";
      "spider.leg_reuses";
      "engine.events";
      "engine.event_gap_us";
      "netsim.execute";
      "netsim.executions";
      "netsim.transfers";
      "netsim.transfer_us";
      "spider.search_probes";
      "spider.probe_nodes";
      "pool.requests";
      "pool.queue_wait_us";
      "api.batch_elements";
      "api.batch_memo_hits";
      "api.batch_memo_candidates";
      "serve.requests";
      "serve.accepted";
      "serve.rejected";
      "serve.timeouts";
      "serve.responses";
      "serve.errors";
      "serve.purged";
      "serve.queue_wait_us";
      "serve.batch_size";
      "serve.inflight";
      "serve.fairness.deficit";
      "pool.completion_wait_us";
      "serve.request";
      "request.queue_wait_us";
      "request.solve_us";
      "request.encode_us";
      "trace.events";
      "trace.segments_checked";
      "trace.violations";
      "trace.check";
      "online.sessions";
      "online.arrivals";
      "online.placed";
      "online.rejected";
      "online.frozen";
      "online.displaced";
      "online.extends";
      "online.replans";
      "online.place_us";
    ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " emitted by the corpus") true
        (List.mem name emitted);
      Alcotest.(check bool) (name ^ " documented") true
        (List.mem name documented))
    core

(* ---------- Prometheus text exposition ---------- *)

let prometheus_mangle () =
  let exposed name = Obs.Prometheus.render ~gauges:[ (name, 1) ] () in
  Alcotest.(check bool)
    "dots and dashes become underscores" true
    (contains (exposed "serve.queue-wait.us") "msts_serve_queue_wait_us 1");
  Alcotest.(check bool)
    "already-clean names only gain the prefix" true
    (contains (exposed "requests") "msts_requests 1")

let prometheus_render_wellformed () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add h) [ 1; 2; 3; 1000 ];
  let text =
    Obs.Prometheus.render
      ~counters:[ ("serve.requests", 5) ]
      ~gauges:[ ("serve.queue_depth", 2) ]
      ~histograms:[ ("request.solve_us", h) ]
      ()
  in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let has line = List.mem line lines in
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE msts_serve_requests_total counter");
  Alcotest.(check bool) "counter sample" true (has "msts_serve_requests_total 5");
  Alcotest.(check bool) "gauge TYPE line" true
    (has "# TYPE msts_serve_queue_depth gauge");
  Alcotest.(check bool) "gauge sample" true (has "msts_serve_queue_depth 2");
  Alcotest.(check bool) "histogram TYPE line" true
    (has "# TYPE msts_request_solve_us histogram");
  Alcotest.(check bool) "every family has a HELP line" true
    (List.exists
       (String.starts_with ~prefix:"# HELP msts_request_solve_us ")
       lines);
  (* cumulative buckets: non-decreasing, closed by +Inf = count *)
  let bucket_counts =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:"msts_request_solve_us_bucket{le=" line
        then
          match String.rindex_opt line ' ' with
          | Some sp ->
              Some
                (int_of_string
                   (String.sub line (sp + 1) (String.length line - sp - 1)))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "at least one bucket plus +Inf" true
    (List.length bucket_counts >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true
    (monotone bucket_counts);
  Alcotest.(check bool) "+Inf bucket equals the count" true
    (has "msts_request_solve_us_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "sum line" true (has "msts_request_solve_us_sum 1006");
  Alcotest.(check bool) "count line" true (has "msts_request_solve_us_count 4")

let prometheus_of_memory () =
  let mem = Obs.Memory.create () in
  Obs.with_sink (Obs.Memory.sink mem) (fun () ->
      Obs.count ~n:3 "hits";
      Obs.record "lat" 7);
  let text = Obs.Prometheus.of_memory mem in
  Alcotest.(check bool) "counter family present" true
    (contains text "msts_hits_total 3");
  Alcotest.(check bool) "histogram family present" true
    (contains text "msts_lat_count 1")

(* ---------- the shared JSON encoder ---------- *)

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 31.3);
        ("b", Json.Bool true);
        ("null", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty doc) with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip pretty=%b" pretty)
            true (parsed = doc)
      | Error msg -> Alcotest.failf "roundtrip failed: %s" msg)
    [ false; true ]

let json_rejects_garbage () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated" ]

let suites =
  [
    ( "obs.spans",
      [
        case "nesting and totals" span_nesting;
        case "end emitted on exception" span_survives_exception;
        case "returns the body's value" span_returns_value;
      ] );
    ( "obs.counters",
      [
        case "totals and lookup" counter_totals;
        case "table rows" counter_rows_match;
      ] );
    ( "obs.sink",
      [
        case "null sink is the default" null_sink_is_default;
        case "outputs identical with and without a sink"
          null_sink_identical_outputs;
        case "with_sink restores on exceptions" with_sink_restores;
      ] );
    ( "obs.histograms",
      [
        case "small values are exact" hist_exact_small;
        case "merge combines buckets and extremes" hist_merge;
        to_alcotest hist_quantile_error_bound;
        case "record feeds memory histograms" record_feeds_histograms;
        case "span durations feed histograms" span_duration_histograms;
        to_alcotest hist_add_many_exact;
        case "samples read exactly as values" samples_read_as_values;
        case "samples: one JSONL line, one ring slot, one trace point"
          samples_event_shapes;
      ] );
    ( "obs.bounded",
      [
        case "raw log capped, aggregates exact" memory_cap_bounds_log;
        case "log-less memory sink stores nothing" memory_without_log;
        case "streaming sink bounded buffer + JSONL" streaming_sink_bounded;
        case "streaming rejects flush_every < 1" streaming_rejects_bad_flush_every;
        case "ring keeps the newest N" ring_keeps_last_n;
        case "tee fans out to several sinks" tee_fans_out;
        case "tee isolates a failing sink" tee_isolates_failing_sinks;
        case "streaming flushes whole lines despite exceptions"
          streaming_no_partial_line_on_exception;
      ] );
    ( "obs.scopes",
      [
        case "scope ids on events next to global aggregates" scope_attribution;
        case "scope id stamped into event JSON" scope_stamped_in_json;
        case "with_scope nests and restores on exceptions"
          scope_nesting_and_exceptions;
        case "memory sink cost does not depend on scopes"
          memory_cost_independent_of_scopes;
        case "fresh scopes are distinct" scope_fresh_monotone;
        case "disabled path allocates nothing"
          disabled_scope_path_allocation_free;
        case "scopes ride onto pool workers" scope_propagates_to_pool_workers;
      ] );
    ( "obs.prometheus",
      [
        case "name mangling" prometheus_mangle;
        case "render emits HELP/TYPE and monotone cumulative buckets"
          prometheus_render_wellformed;
        case "of_memory renders both families" prometheus_of_memory;
      ] );
    ( "obs.export",
      [
        case "chrome trace is well-formed" chrome_trace_wellformed;
        case "chrome trace of an execution validates" chrome_trace_execution_valid;
        case "json roundtrip" json_roundtrip;
        case "json rejects garbage" json_rejects_garbage;
      ] );
    ( "obs.tallies",
      [
        case "one counter event per call, n=5" (tallied_once 5);
        case "one counter event per call, n=500" (tallied_once 500);
        case "exhausted engine budget still tallied" engine_budget_tallied;
        to_alcotest tally_exact;
        to_alcotest samples_per_run;
        case "no sink, no tally" no_sink_no_tally;
      ] );
    ( "obs.drift",
      [ case "metric names match docs/OBSERVABILITY.md" metric_names_documented ] );
  ]
