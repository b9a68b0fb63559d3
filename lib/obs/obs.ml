type event =
  | Span_begin of {
      name : string;
      ts : int;
      args : (string * string) list;
      scope : int;
    }
  | Span_end of { name : string; ts : int; scope : int }
  | Count of { name : string; delta : int; ts : int; scope : int }
  | Value of { name : string; value : int; ts : int; scope : int }
  | Samples of {
      name : string;
      values : int array;
      counts : int array;
      ts : int;
      scope : int;
    }

type sink = event -> unit

(* ---------- domain-local sink ----------

   The sink (and the clock override below) lives in domain-local storage,
   not a shared ref: a freshly spawned domain starts with the null sink, so
   worker domains (Msts_pool.Pool) never race on a caller's sink and emit
   nothing.  Coordinators aggregate worker-side counters and emit the
   totals from their own domain. *)

let the_sink : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let set_sink s = Domain.DLS.set the_sink s
let current_sink () = Domain.DLS.get the_sink
let enabled () = Option.is_some (Domain.DLS.get the_sink)

let with_sink s f =
  let saved = Domain.DLS.get the_sink in
  Domain.DLS.set the_sink (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set the_sink saved) f

(* A failing sink must not poison the event stream: every remaining sink
   still sees the event (in list order) and the instrumented computation
   never observes a sink's exception. *)
let tee sinks ev = List.iter (fun sink -> try sink ev with _ -> ()) sinks

(* ---------- request scopes ----------

   A scope is a plain integer carried on every event; 0 ([Scope.none])
   means "unscoped" and serialises to nothing, so unscoped event streams
   are byte-identical to pre-scope ones.  Like the sink, the current scope
   is domain-local; [Msts_pool.Pool.map] forwards the submitting domain's
   scope into its workers explicitly. *)

module Scope = struct
  let none = 0
  let next = Atomic.make 0
  let the_scope : int Domain.DLS.key = Domain.DLS.new_key (fun () -> none)
  let fresh () = 1 + Atomic.fetch_and_add next 1
  let current () = Domain.DLS.get the_scope
  let set scope = Domain.DLS.set the_scope scope

  let with_scope scope f =
    (* Scopes only matter when events are being emitted: with the null
       sink installed this is the same load-and-branch as [span]/[count],
       so the disabled path allocates nothing (no closure, no protect). *)
    match Domain.DLS.get the_sink with
    | None -> f ()
    | Some _ ->
        let saved = Domain.DLS.get the_scope in
        Domain.DLS.set the_scope scope;
        Fun.protect ~finally:(fun () -> Domain.DLS.set the_scope saved) f
end

(* ---------- clock ---------- *)

let wall_us () = int_of_float (Unix.gettimeofday () *. 1e6)
let the_clock : (unit -> int) Domain.DLS.key = Domain.DLS.new_key (fun () -> wall_us)
let last_ts : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_clock f =
  (* A new clock source starts a new timeline: drop the monotonising floor
     so a deterministic clock installed after wall-clock readings is not
     clamped to the (much larger) old timestamps. *)
  Domain.DLS.set last_ts 0;
  match f with
  | Some f -> Domain.DLS.set the_clock f
  | None -> Domain.DLS.set the_clock wall_us

(* Monotonised: wall clocks can step backwards (NTP); span durations and
   trace viewers both assume time never decreases. *)
let now_us () =
  let t = (Domain.DLS.get the_clock) () in
  if t > Domain.DLS.get last_ts then Domain.DLS.set last_ts t;
  Domain.DLS.get last_ts

(* ---------- instrumentation points ---------- *)

let span ?(args = []) name f =
  match Domain.DLS.get the_sink with
  | None -> f ()
  | Some sink ->
      let scope = Domain.DLS.get Scope.the_scope in
      sink (Span_begin { name; ts = now_us (); args; scope });
      Fun.protect
        ~finally:(fun () -> sink (Span_end { name; ts = now_us (); scope }))
        f

let count ?(n = 1) name =
  match Domain.DLS.get the_sink with
  | None -> ()
  | Some sink ->
      sink
        (Count
           { name; delta = n; ts = now_us (); scope = Domain.DLS.get Scope.the_scope })

let record name value =
  match Domain.DLS.get the_sink with
  | None -> ()
  | Some sink ->
      sink
        (Value { name; value; ts = now_us (); scope = Domain.DLS.get Scope.the_scope })

let samples name ~values ~counts =
  match Domain.DLS.get the_sink with
  | None -> ()
  | Some sink ->
      sink
        (Samples
           {
             name;
             values;
             counts;
             ts = now_us ();
             scope = Domain.DLS.get Scope.the_scope;
           })

(* ---------- event serialisation (JSONL sinks, post-mortem dumps) ---------- *)

(* Unscoped events omit the "sc" member entirely, keeping unscoped JSONL
   streams byte-identical to pre-scope ones. *)
let scope_field scope fields =
  if scope = Scope.none then fields else fields @ [ ("sc", Json.Int scope) ]

let event_to_json = function
  | Span_begin { name; ts; args; scope } ->
      let fields =
        [ ("ev", Json.String "B"); ("name", Json.String name); ("ts", Json.Int ts) ]
      in
      let fields =
        match args with
        | [] -> fields
        | args ->
            fields
            @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)) ]
      in
      Json.Obj (scope_field scope fields)
  | Span_end { name; ts; scope } ->
      Json.Obj
        (scope_field scope
           [ ("ev", Json.String "E"); ("name", Json.String name); ("ts", Json.Int ts) ])
  | Count { name; delta; ts; scope } ->
      Json.Obj
        (scope_field scope
           [
             ("ev", Json.String "C");
             ("name", Json.String name);
             ("delta", Json.Int delta);
             ("ts", Json.Int ts);
           ])
  | Value { name; value; ts; scope } ->
      Json.Obj
        (scope_field scope
           [
             ("ev", Json.String "V");
             ("name", Json.String name);
             ("value", Json.Int value);
             ("ts", Json.Int ts);
           ])
  | Samples { name; values; counts; ts; scope } ->
      let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a)) in
      Json.Obj
        (scope_field scope
           [
             ("ev", Json.String "S");
             ("name", Json.String name);
             ("values", ints values);
             ("counts", ints counts);
             ("ts", Json.Int ts);
           ])

(* ---------- histograms ---------- *)

module Histogram = struct
  (* Log-bucketed (HDR-style): values below 16 get one bucket each (exact);
     above, each power of two splits into 16 sub-buckets, so any recorded
     value is reconstructed with < 1/16 relative error.  63-bit values fit
     in under 960 buckets, so a histogram is one small int array — constant
     memory regardless of how many samples it absorbs. *)

  let bucket_count = 960

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { buckets = Array.make bucket_count 0; count = 0; sum = 0; min_v = 0; max_v = 0 }

  let msb v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let bucket_of v =
    if v < 16 then v
    else
      let m = msb v in
      ((m - 4) * 16) + (v lsr (m - 4))

  (* Lower bound of the bucket's value range — the deterministic
     representative reported by [quantile]. *)
  let bucket_value idx =
    if idx < 16 then idx
    else
      let g = (idx / 16) - 1 in
      (idx - (g * 16)) lsl g

  (* [n] samples of one value leave exactly the state [n] single adds
     would: every field is a sum, a min or a max. *)
  let add_many t v ~n =
    if n > 0 then begin
      let v = max 0 v in
      let b = bucket_of v in
      t.buckets.(b) <- t.buckets.(b) + n;
      if t.count = 0 then begin
        t.min_v <- v;
        t.max_v <- v
      end
      else begin
        if v < t.min_v then t.min_v <- v;
        if v > t.max_v then t.max_v <- v
      end;
      t.count <- t.count + n;
      t.sum <- t.sum + (v * n)
    end

  let add t v = add_many t v ~n:1

  let count t = t.count
  let sum t = t.sum
  let max_value t = t.max_v

  let quantile t q =
    if t.count = 0 then 0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = max 1 (min t.count (int_of_float (ceil (q *. float_of_int t.count)))) in
      let idx = ref 0 and seen = ref 0 in
      (try
         for i = 0 to bucket_count - 1 do
           seen := !seen + t.buckets.(i);
           if !seen >= rank then begin
             idx := i;
             raise Exit
           end
         done
       with Exit -> ());
      max t.min_v (min t.max_v (bucket_value !idx))
    end

  let merge_into ~into t =
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) t.buckets;
    if t.count > 0 then begin
      if into.count = 0 then begin
        into.min_v <- t.min_v;
        into.max_v <- t.max_v
      end
      else begin
        if t.min_v < into.min_v then into.min_v <- t.min_v;
        if t.max_v > into.max_v then into.max_v <- t.max_v
      end;
      into.count <- into.count + t.count;
      into.sum <- into.sum + t.sum
    end

  (* Non-empty buckets as (inclusive upper bound, count), ascending — the
     raw material for cumulative exports (Prometheus [le] boundaries).  A
     bucket covering [bucket_value i, bucket_value (i+1) - 1] reports the
     top of that range; the last representable bucket is open-ended. *)
  let buckets t =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if t.buckets.(i) > 0 then begin
        let upper =
          if i + 1 >= bucket_count then max_int else bucket_value (i + 1) - 1
        in
        acc := (upper, t.buckets.(i)) :: !acc
      end
    done;
    !acc

  let to_json t =
    Json.Obj
      [
        ("count", Json.Int t.count);
        ("sum", Json.Int t.sum);
        ("min", Json.Int t.min_v);
        ("max", Json.Int t.max_v);
        ("p50", Json.Int (quantile t 0.50));
        ("p90", Json.Int (quantile t 0.90));
        ("p99", Json.Int (quantile t 0.99));
      ]
end

(* ---------- memory sink ---------- *)

module Memory = struct
  type span_stat = { calls : int; total_us : int; max_us : int }

  let default_max_events = 100_000

  type t = {
    log : event Queue.t; (* oldest first, capped at [max_events] *)
    max_events : int;
    mutable dropped : int;
    counters : (string, int) Hashtbl.t;
    stats : (string, span_stat) Hashtbl.t;
    hists : (string, Histogram.t) Hashtbl.t; (* Value recordings *)
    span_hists : (string, Histogram.t) Hashtbl.t; (* span durations, µs *)
    mutable stack : (string * int) list; (* open spans, innermost first *)
  }

  let create ?(max_events = default_max_events) ?max_scopes:_ () =
    {
      log = Queue.create ();
      max_events = max 0 max_events;
      dropped = 0;
      counters = Hashtbl.create 32;
      stats = Hashtbl.create 32;
      hists = Hashtbl.create 16;
      span_hists = Hashtbl.create 16;
      stack = [];
    }

  let hist_in tbl name =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add tbl name h;
        h

  let record t ev =
    (* The raw log is bounded (oldest events drop out); every aggregate
       below stays exact because it is updated incrementally here, never
       recomputed from the log. *)
    if t.max_events = 0 then t.dropped <- t.dropped + 1
    else begin
      Queue.push ev t.log;
      if Queue.length t.log > t.max_events then begin
        ignore (Queue.pop t.log);
        t.dropped <- t.dropped + 1
      end
    end;
    match ev with
    | Count { name; delta; _ } ->
        let current = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
        Hashtbl.replace t.counters name (current + delta)
    | Value { name; value; _ } -> Histogram.add (hist_in t.hists name) value
    | Samples { name; values; counts; _ } ->
        let h = hist_in t.hists name in
        Array.iteri (fun i v -> Histogram.add_many h v ~n:counts.(i)) values
    | Span_begin { name; ts; _ } -> t.stack <- (name, ts) :: t.stack
    | Span_end { name; ts; _ } -> (
        (* An end closes the innermost open span of that name; out-of-order
           ends (possible only through hand-fed sinks) are dropped. *)
        match t.stack with
        | (open_name, began) :: rest when open_name = name ->
            t.stack <- rest;
            let d = ts - began in
            Histogram.add (hist_in t.span_hists name) d;
            let prev =
              Option.value
                ~default:{ calls = 0; total_us = 0; max_us = 0 }
                (Hashtbl.find_opt t.stats name)
            in
            Hashtbl.replace t.stats name
              {
                calls = prev.calls + 1;
                total_us = prev.total_us + d;
                max_us = max prev.max_us d;
              }
        | _ -> ())

  let sink t = record t

  let sorted_bindings tbl =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let counters t = sorted_bindings t.counters
  let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
  let spans t = sorted_bindings t.stats
  let histograms t = sorted_bindings t.hists
  let span_histogram t name = Hashtbl.find_opt t.span_hists name
  let events t = List.of_seq (Queue.to_seq t.log)
  let dropped_events t = t.dropped

  let counter_rows t =
    List.map (fun (name, total) -> [ name; string_of_int total ]) (counters t)

  let span_rows t =
    List.map
      (fun (name, { calls; total_us; max_us }) ->
        let p q =
          match span_histogram t name with
          | Some h -> string_of_int (Histogram.quantile h q)
          | None -> "0"
        in
        [
          name;
          string_of_int calls;
          string_of_int total_us;
          string_of_int max_us;
          p 0.50;
          p 0.99;
        ])
      (spans t)

  let histogram_rows t =
    List.map
      (fun (name, h) ->
        [
          name;
          string_of_int (Histogram.count h);
          string_of_int (Histogram.quantile h 0.50);
          string_of_int (Histogram.quantile h 0.90);
          string_of_int (Histogram.quantile h 0.99);
          string_of_int (Histogram.max_value h);
        ])
      (histograms t)

  let to_json t =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
        ( "spans",
          Json.Obj
            (List.map
               (fun (k, { calls; total_us; max_us }) ->
                 let quant q =
                   match span_histogram t k with
                   | Some h -> Histogram.quantile h q
                   | None -> 0
                 in
                 ( k,
                   Json.Obj
                     [
                       ("calls", Json.Int calls);
                       ("total_us", Json.Int total_us);
                       ("max_us", Json.Int max_us);
                       ("p50_us", Json.Int (quant 0.50));
                       ("p99_us", Json.Int (quant 0.99));
                     ] ))
               (spans t)) );
        ( "histograms",
          Json.Obj (List.map (fun (k, h) -> (k, Histogram.to_json h)) (histograms t))
        );
      ]

  let chrome_trace ?(process_name = "msts") t =
    (* Scoped events render on their own track so per-request timelines
       separate visually; unscoped events keep the historical tid 1. *)
    let common ts scope =
      let tid = if scope = Scope.none then 1 else scope + 1 in
      [ ("ts", Json.Int ts); ("pid", Json.Int 1); ("tid", Json.Int tid) ]
    in
    let running = Hashtbl.create 16 in
    let trace_event = function
      | Span_begin { name; ts; args; scope } ->
          let fields =
            [
              ("name", Json.String name);
              ("cat", Json.String "msts");
              ("ph", Json.String "B");
            ]
            @ common ts scope
          in
          let fields =
            match args with
            | [] -> fields
            | args ->
                fields
                @ [
                    ( "args",
                      Json.Obj
                        (List.map (fun (k, v) -> (k, Json.String v)) args) );
                  ]
          in
          Json.Obj fields
      | Span_end { name; ts; scope } ->
          Json.Obj
            ([
               ("name", Json.String name);
               ("cat", Json.String "msts");
               ("ph", Json.String "E");
             ]
            @ common ts scope)
      | Count { name; delta; ts; scope } ->
          let total =
            delta + Option.value ~default:0 (Hashtbl.find_opt running name)
          in
          Hashtbl.replace running name total;
          Json.Obj
            ([
               ("name", Json.String name);
               ("cat", Json.String "msts");
               ("ph", Json.String "C");
             ]
            @ common ts scope
            @ [ ("args", Json.Obj [ ("value", Json.Int total) ]) ])
      | Value { name; value; ts; scope } ->
          (* raw samples become their own counter track, so distributions
             are visible on the timeline *)
          Json.Obj
            ([
               ("name", Json.String name);
               ("cat", Json.String "msts");
               ("ph", Json.String "C");
             ]
            @ common ts scope
            @ [ ("args", Json.Obj [ ("value", Json.Int value) ]) ])
      | Samples { name; values; counts; ts; scope } ->
          (* a run's samples: one point carrying their count and sum *)
          let count = Array.fold_left ( + ) 0 counts in
          let sum = ref 0 in
          Array.iteri (fun i v -> sum := !sum + (v * counts.(i))) values;
          Json.Obj
            ([
               ("name", Json.String name);
               ("cat", Json.String "msts");
               ("ph", Json.String "C");
             ]
            @ common ts scope
            @ [
                ( "args",
                  Json.Obj [ ("count", Json.Int count); ("sum", Json.Int !sum) ] );
              ])
    in
    let metadata =
      [ ("process_name", Json.String process_name) ]
      @ if t.dropped > 0 then [ ("dropped_events", Json.Int t.dropped) ] else []
    in
    Json.Obj
      [
        ("traceEvents", Json.List (List.map trace_event (events t)));
        ("displayTimeUnit", Json.String "ms");
        ("metadata", Json.Obj metadata);
      ]
end

(* ---------- streaming JSONL sink ---------- *)

module Streaming = struct
  type t = {
    oc : out_channel;
    buf : Buffer.t;
    flush_every : int;
    mutable buffered : int;
    mutable high_water : int;
  }

  let create ?(flush_every = 4096) oc =
    if flush_every < 1 then invalid_arg "Obs.Streaming.create: flush_every must be >= 1";
    { oc; buf = Buffer.create 4096; flush_every; buffered = 0; high_water = 0 }

  let flush t =
    if t.buffered > 0 then begin
      Buffer.output_buffer t.oc t.buf;
      Buffer.clear t.buf;
      t.buffered <- 0
    end;
    Out_channel.flush t.oc

  let record t ev =
    Buffer.add_string t.buf (Json.to_string (event_to_json ev));
    Buffer.add_char t.buf '\n';
    t.buffered <- t.buffered + 1;
    if t.buffered > t.high_water then t.high_water <- t.buffered;
    if t.buffered >= t.flush_every then flush t

  let sink t = record t
  let max_buffered t = t.high_water
end

(* ---------- ring-buffer sink ---------- *)

module Ring = struct
  type t = { slots : event option array; mutable seen : int }

  let create ?(capacity = 1024) () =
    if capacity < 1 then invalid_arg "Obs.Ring.create: capacity must be >= 1";
    { slots = Array.make capacity None; seen = 0 }

  let record t ev =
    t.slots.(t.seen mod Array.length t.slots) <- Some ev;
    t.seen <- t.seen + 1

  let sink t = record t

  let events t =
    let cap = Array.length t.slots in
    let n = min t.seen cap in
    List.init n (fun i ->
        match t.slots.((t.seen - n + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)

  let to_jsonl t =
    String.concat ""
      (List.map (fun ev -> Json.to_string (event_to_json ev) ^ "\n") (events t))
end
