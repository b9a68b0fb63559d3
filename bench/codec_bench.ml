(* Wire-codec costs on the serve benchmark's bulk-frames shapes: a batch
   of 1200 problems over 16 distinct ones (four small platforms, four task
   counts each) and a p=4 chain schedule of 1000 tasks.  Per frame it
   measures wall time and minor words for

     decode   Api.request_of_line on the ~68 KB batch frame
     decode_distinct
              the same on a batch of 1200 distinct problems, where the
              decoder's element memo finds no repeat
     decode_schedule
              Api.request_of_line on a cold-solve frame: one heavy
              spider and a task count, ~140 B
     shard    Batch.shard on the decoded batch (fingerprints, dedupe,
              cache probes), deriving the repeat map itself
     shard_engine
              the same as the daemon's engine runs it, with the repeat
              map the decoder gave (Api.request_or_rejection)
     shard_colliding, shard_colliding_engine
              both on a batch of 16000 distinct chains whose first 15
              values agree, so [Hashtbl.hash] files them all in one
              bucket: the identity tables' cap keeps the work linear
     encode   Json.to_string of the batch reply and of the schedule
              reply
     write    Api.response_line of the batch reply and of the schedule
              reply: the whole wire frame, written without a tree; the
              batch reply is assembled through Batch.shard, as the
              daemon's engine does, so repeated results are copied
     write_distinct
              the same on the distinct batch's reply
     framing  Framing.feed splitting the batch frame out of 64 KiB reads
              from one reused chunk, as the daemon's select loop does

   and writes them to BENCH_codec.json.  Only the word counts are gated,
   because they do not depend on the host: each must stay a fixed factor
   below the count the codec allocated before the per-frame platform
   memo, the identity-keyed fingerprints and the allocation-light
   scanner and printer (constants measured with this file on that code,
   OCaml 5.1.1).  The write stages' "before" is building the reply tree
   and printing its frame (Api.json_of_reply, then Api.response_to_line)
   on the Buffer-based printer.  decode_schedule's "before" is the count
   of the tree decoder (Json.parse, then a walk of the tree) that the
   pull reader replaced, and its gate only keeps small frames from
   allocating more than they did then.  The two distinct stages' "before"
   is their count on the code before the element memo and the copying
   batch writer, and their gate lets them allocate at most 1.25 times
   that: batches without repeats must not pay for the memo.  The
   engine-path and colliding shard stages' "before" is the count of
   Batch.shard before it took the decoder's repeat map (the engine
   called it with none), with no cap on its identity tables.  The framing
   stage counts every
   word it allocates, minor or major (a frame-sized string goes straight
   to the major heap): its "before" is the splitter that copied the whole
   input buffer on every read, and its gate is one copy of the frame.
   Wall time is reported, not asserted. *)

type stage = {
  name : string;
  before_words : float;  (** per frame, before the rewrite *)
  gate : float;  (** required reduction factor of the word count *)
  major : bool;  (** count major-heap allocations too *)
  run : unit -> unit;
}

let small_platforms () =
  let profile = Msts.Generator.default_profile in
  [|
    Msts.Platform_format.Chain_platform
      (Msts.Generator.chain (Msts.Prng.create 11) profile ~p:3);
    Msts.Platform_format.Chain_platform
      (Msts.Generator.chain (Msts.Prng.create 12) profile ~p:4);
    Msts.Platform_format.Spider_platform
      (Msts.Generator.spider (Msts.Prng.create 13) profile ~legs:3 ~max_depth:2);
    Msts.Platform_format.Fork_platform
      (Msts.Generator.fork (Msts.Prng.create 14) profile ~slaves:3);
  |]

let batch_problems () =
  let platforms = small_platforms () in
  let distinct =
    Array.init 16 (fun i ->
        Msts.Solve.problem ~tasks:(4 + (i / 4)) platforms.(i mod 4))
  in
  let problems = Array.init 1200 (fun i -> distinct.(i mod 16)) in
  Msts.Prng.shuffle (Msts.Prng.create 1) problems;
  problems

(* The same shape with no repeats: 300 task counts on each of the four
   platforms, so every element misses the decoder's element memo and
   fills its buckets. *)
let distinct_problems () =
  let platforms = small_platforms () in
  let problems =
    Array.init 1200 (fun i -> Msts.Solve.problem ~tasks:(1 + (i / 4)) platforms.(i mod 4))
  in
  Msts.Prng.shuffle (Msts.Prng.create 2) problems;
  problems

let schedule_problem () =
  let chain =
    Msts.Generator.chain (Msts.Prng.create 200) Msts.Generator.default_profile ~p:4
  in
  Msts.Solve.problem ~tasks:1000 (Msts.Platform_format.Chain_platform chain)

(* The cold-solve frame shape: one heavy spider (the compute-bound
   profile, 4 legs, depth <= 3) and a task count. *)
let cold_problem () =
  let spider =
    Msts.Generator.spider (Msts.Prng.create 100) Msts.Generator.compute_bound_profile
      ~legs:4 ~max_depth:3
  in
  Msts.Solve.problem ~tasks:200 (Msts.Platform_format.Spider_platform spider)

(* Chains that agree on their first 15 values (c all 1, w 1 but the
   last), which [Hashtbl.hash] does not read past. *)
let colliding_problems n =
  Array.init n (fun i ->
      let w = Array.make 8 1 in
      w.(7) <- i + 1;
      Msts.Solve.problem ~tasks:1
        (Msts.Platform_format.Chain_platform (Msts.Chain.make ~c:(Array.make 8 1) ~w)))

let request op = { Msts.Api.id = Some 1; trace = None; op }

(* A batch frame's problems and repeat map, decoded as the engine
   decodes them. *)
let decode_batch name line =
  match Msts.Api.request_or_rejection line with
  | Ok ({ Msts.Api.op = Msts.Api.Batch problems; _ }, repeats) -> (problems, repeats)
  | _ -> failwith ("codec-scaling: the " ^ name ^ " frame did not decode")

(* A reply frame's tree, as a client reads it. *)
let reply_json op =
  match
    Msts.Json.parse
      (Msts.Api.response_to_line
         (Msts.Api.respond ~solver:Msts.Api.direct_solver (request op)))
  with
  | Ok json -> json
  | Error msg -> failwith ("codec-scaling: a reply frame does not parse: " ^ msg)

(* A reply and its frame writer, checked once against the reference
   encoder so the stage times the bytes the daemon sends. *)
let frame_writer name result =
  let write () = Msts.Api.response_line ~id:(Some 1) ~trace:None result in
  let reference =
    Msts.Api.response_to_line
      { Msts.Api.id = Some 1; trace = None; result = Result.map Msts.Api.json_of_reply result }
  in
  if write () <> reference then failwith ("codec-scaling: the written " ^ name ^ " frame differs");
  fun () -> ignore (write ())

(* A batch reply as the daemon's engine assembles it: sharded, so each
   element knows the first one it repeats. *)
let batched problems =
  let plan = Msts.Batch.shard problems in
  let k = Msts.Batch.shard_count plan in
  let solved =
    Array.init k (fun slot -> Msts.Api.guarded_solve (Msts.Batch.shard_request plan slot))
  in
  let outcomes, stats =
    Msts.Batch.assemble plan ~jobs:1 ~solved ~wait_us:(Array.make k 0)
      ~busy_us:(Array.make k 0)
  in
  Ok
    (Msts.Api.Batched
       { problems; outcomes; firsts = Msts.Batch.firsts plan; stats; cache_capacity = 256 })

(* Words allocated so far: minor only, or every word (minor, plus major
   allocations, minus the minor words promoted into the major heap).
   [Gc.counters] credits minor words only when a minor collection runs,
   so one is run first: the count then holds every word allocated before
   the read and none of a later one's. *)
let allocated ~major =
  if major then begin
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  end
  else Gc.minor_words ()

(* Mean wall time (us) and words of one call, uninstrumented as a
   serving daemon runs, after one warm-up call.  A full major collection
   first empties both heaps, so a stage's count does not depend on what
   the stages measured before it left behind. *)
let measure s =
  s.run ();
  let sink = Msts.Obs.current_sink () in
  Msts.Obs.set_sink None;
  Fun.protect ~finally:(fun () -> Msts.Obs.set_sink sink) @@ fun () ->
  Gc.full_major ();
  let iters = 30 in
  let words = allocated ~major:s.major in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    s.run ()
  done;
  let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int iters in
  (us, (allocated ~major:s.major -. words) /. float_of_int iters)

(* The batch frame split out of 64 KiB reads of one reused chunk; checked
   once to come out whole. *)
let framing line =
  let chunk = Bytes.create 65536 in
  let input = Msts_serve.Framing.input () in
  let frames = ref 0 in
  let push () =
    let n = String.length line in
    let from = ref 0 in
    while !from < n do
      let k = min (Bytes.length chunk) (n - !from) in
      Bytes.blit_string line !from chunk 0 k;
      Msts_serve.Framing.feed input chunk 0 k (fun frame ->
          incr frames;
          if !frames = 1 && frame ^ "\n" <> line then
            failwith "codec-scaling: the framed batch frame differs");
      from := !from + k
    done
  in
  push ();
  if !frames <> 1 then failwith "codec-scaling: the batch frame was not framed once";
  push

let codec_scaling () =
  let batch_line = Msts.Api.request_to_line (request (Msts.Api.Batch (batch_problems ()))) in
  let schedule_line = Msts.Api.request_to_line (request (Msts.Api.Schedule (cold_problem ()))) in
  (match Msts.Api.request_of_line schedule_line with
  | Ok { Msts.Api.op = Msts.Api.Schedule _; _ } -> ()
  | _ -> failwith "codec-scaling: the schedule frame did not decode");
  let decoded, repeats = decode_batch "batch" batch_line in
  let colliding_line =
    Msts.Api.request_to_line (request (Msts.Api.Batch (colliding_problems 16_000)))
  in
  let colliding, colliding_repeats = decode_batch "colliding batch" colliding_line in
  let distinct_line =
    Msts.Api.request_to_line (request (Msts.Api.Batch (distinct_problems ())))
  in
  let distinct =
    match Msts.Api.request_of_line distinct_line with
    | Ok { Msts.Api.op = Msts.Api.Batch problems; _ } -> problems
    | _ -> failwith "codec-scaling: the distinct batch frame did not decode"
  in
  let cache = Msts.Batch.cache ~capacity:256 in
  let batch_reply = reply_json (Msts.Api.Batch decoded) in
  let schedule_reply = reply_json (Msts.Api.Schedule (schedule_problem ())) in
  let write_batch = frame_writer "batch" (batched decoded) in
  let write_distinct = frame_writer "distinct batch" (batched distinct) in
  let write_schedule =
    let op = Msts.Api.Schedule (schedule_problem ()) in
    frame_writer "schedule" (Msts.Api.exec ~solver:Msts.Api.direct_solver op)
  in
  (* One copy of the frame (the string's words and its header), plus the
     closures of the two reads. *)
  let frame_copy_words = float_of_int ((String.length batch_line / 8) + 2 + 16) in
  let framing_before = 25172. in
  let stages =
    [
      {
        name = "decode";
        before_words = 607018.;
        gate = 40.0;
        major = false;
        run = (fun () -> ignore (Msts.Api.request_of_line batch_line));
      };
      {
        name = "decode_distinct";
        before_words = 21635.;
        gate = 0.8;
        major = false;
        run = (fun () -> ignore (Msts.Api.request_of_line distinct_line));
      };
      {
        name = "decode_schedule";
        before_words = 1014.;
        gate = 1.0;
        major = false;
        run = (fun () -> ignore (Msts.Api.request_of_line schedule_line));
      };
      {
        name = "shard";
        before_words = 392955.;
        gate = 40.0;
        major = false;
        run = (fun () -> ignore (Msts.Batch.shard ~cache decoded));
      };
      {
        name = "shard_engine";
        before_words = 6458.;
        gate = 3.0;
        major = false;
        run = (fun () -> ignore (Msts.Batch.shard ~cache ~repeats decoded));
      };
      {
        name = "shard_colliding";
        before_words = 9369234.;
        gate = 1.0;
        major = false;
        run = (fun () -> ignore (Msts.Batch.shard ~cache colliding));
      };
      {
        name = "shard_colliding_engine";
        before_words = 9369234.;
        gate = 1.0;
        major = false;
        run =
          (fun () -> ignore (Msts.Batch.shard ~cache ~repeats:colliding_repeats colliding));
      };
      {
        name = "encode";
        before_words = 42359.;
        gate = 2.0;
        major = false;
        run = (fun () -> ignore (Msts.Json.to_string batch_reply));
      };
      {
        name = "encode_schedule";
        before_words = 41339.;
        gate = 2.0;
        major = false;
        run = (fun () -> ignore (Msts.Json.to_string schedule_reply));
      };
      { name = "write"; before_words = 50788.; gate = 5.0; major = false; run = write_batch };
      {
        name = "write_distinct";
        before_words = 6010.;
        gate = 0.8;
        major = false;
        run = write_distinct;
      };
      {
        name = "write_schedule";
        before_words = 52369.;
        gate = 100.0;
        major = false;
        run = write_schedule;
      };
      {
        name = "framing";
        before_words = framing_before;
        gate = framing_before /. frame_copy_words;
        major = true;
        run = framing batch_line;
      };
    ]
  in
  let results = List.map (fun s -> (s, measure s)) stages in
  let table =
    Msts.Table.create
      ~title:
        (Printf.sprintf
           "wire codec per frame (batch frame %d B, 1200 problems over 16; \
            schedule reply %d B, p=4, n=1000)"
           (String.length batch_line)
           (String.length (Msts.Json.to_string schedule_reply)))
      ~columns:[ "stage"; "us/frame"; "words/frame"; "before"; "reduction"; "gate" ]
  in
  List.iter
    (fun (s, (us, words)) ->
      Msts.Table.add_row table
        [
          s.name;
          Printf.sprintf "%.0f" us;
          Printf.sprintf "%.0f" words;
          Printf.sprintf "%.0f" s.before_words;
          Printf.sprintf "%.1fx" (s.before_words /. words);
          Printf.sprintf ">= %.3gx" s.gate;
        ])
    results;
  Msts.Table.print table;
  let json =
    Msts.Json.Obj
      (("experiment", Msts.Json.String "codec")
      :: ( "shapes",
           Msts.Json.Obj
             [
               ("batch_problems", Msts.Json.Int (Array.length decoded));
               ("distinct_problems", Msts.Json.Int 16);
               ("distinct_platforms", Msts.Json.Int 4);
               ("colliding_problems", Msts.Json.Int (Array.length colliding));
               ("colliding_frame_bytes", Msts.Json.Int (String.length colliding_line));
               ("batch_frame_bytes", Msts.Json.Int (String.length batch_line));
               ("schedule_frame_bytes", Msts.Json.Int (String.length schedule_line));
               ( "batch_reply_bytes",
                 Msts.Json.Int (String.length (Msts.Json.to_string batch_reply)) );
               ("schedule_p", Msts.Json.Int 4);
               ("schedule_tasks", Msts.Json.Int 1000);
               ( "schedule_reply_bytes",
                 Msts.Json.Int (String.length (Msts.Json.to_string schedule_reply)) );
             ] )
      :: List.map
           (fun (s, (us, words)) ->
             let words_key =
               if s.major then "words_per_frame" else "minor_words_per_frame"
             in
             ( s.name,
               Msts.Json.Obj
                 [
                   ("us_per_frame", Msts.Json.Float us);
                   (words_key, Msts.Json.Float words);
                   ("before_" ^ words_key, Msts.Json.Float s.before_words);
                   ("words_reduction", Msts.Json.Float (s.before_words /. words));
                   ("gate_reduction", Msts.Json.Float s.gate);
                 ] ))
           results)
  in
  Out_channel.with_open_text "BENCH_codec.json" (fun oc ->
      Out_channel.output_string oc (Msts.Json.to_string ~pretty:true json);
      Out_channel.output_char oc '\n');
  print_endline "  BENCH_codec.json written";
  List.iter
    (fun (s, (_, words)) ->
      if s.before_words < s.gate *. words then
        failwith
          (Printf.sprintf
             "codec-scaling: %s allocates %.0f words per frame, gate is \
              %.0f / %.3g"
             s.name words s.before_words s.gate))
    results

let all : (string * string * (unit -> unit)) list =
  [
    ( "codec-scaling",
      "wire codec on bulk-frames shapes: decode, shard, encode, write per frame",
      codec_scaling );
  ]
