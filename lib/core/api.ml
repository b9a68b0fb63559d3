(* The versioned, typed request API.  See api.mli for the contract: total
   codecs over a JSONL wire format, one dispatcher shared by the CLI and
   the daemon, and JSON renderings that are byte-identical between the
   two because they are the same code. *)

module Json = Msts_obs.Json
module Obs = Msts_obs.Obs
module Parse = Msts_platform.Parse
module Plan = Msts_schedule.Plan
module Columns = Msts_schedule.Columns
module Spider_schedule = Msts_schedule.Spider_schedule
module Metrics = Msts_schedule.Metrics
module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider
module Batch = Msts_pool.Batch
module Netsim = Msts_sim.Netsim
module Report = Msts_sim.Report
module Fault = Msts_sim.Fault
module Trace = Msts_trace.Trace
module Spider_algorithm = Msts_spider.Algorithm
module Prng = Msts_util.Prng
module Intx = Msts_util.Intx

let version = 1

type problem = Solve.problem

(* ---------- structured errors ---------- *)

type error_code =
  | Bad_request
  | Unsupported_version
  | Invalid_platform
  | Invalid_argument_error
  | Unsolvable
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Invalid_platform -> "invalid_platform"
  | Invalid_argument_error -> "invalid_argument"
  | Unsolvable -> "unsolvable"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let all_error_codes =
  [
    Bad_request;
    Unsupported_version;
    Invalid_platform;
    Invalid_argument_error;
    Unsolvable;
    Overloaded;
    Timeout;
    Shutting_down;
    Internal;
  ]

let error_code_of_string s =
  List.find_opt (fun c -> error_code_to_string c = s) all_error_codes

type error = { code : error_code; message : string }

let error code message = { code; message }

let error_of_exn = function
  | Invalid_argument msg -> { code = Invalid_argument_error; message = msg }
  | exn -> { code = Internal; message = Printexc.to_string exn }

let error_of_solve_failure msg =
  if String.length msg >= 5 && String.sub msg 0 5 = "Msts." then
    { code = Invalid_argument_error; message = msg }
  else { code = Unsolvable; message = msg }

(* ---------- operations ---------- *)

type workload = Solve_only | Execute | Pull | Faults

let workload_to_string = function
  | Solve_only -> "solve"
  | Execute -> "execute"
  | Pull -> "pull"
  | Faults -> "faults"

let workload_of_string = function
  | "solve" -> Some Solve_only
  | "execute" -> Some Execute
  | "pull" -> Some Pull
  | "faults" -> Some Faults
  | _ -> None

type op =
  | Ping
  | Schedule of problem
  | Deadline of problem
  | Metrics of problem
  | Batch of problem array
  | Report of { problem : problem; planned : bool }
  | Check of { problem : problem; trace : bool; seed : int; events : int }
  | Profile of {
      platform : Parse.platform;
      tasks : int;
      deadline : int option;
      workload : workload;
      seed : int;
      events : int;
    }
  | Stats
  | Metrics_dump
  | Shutdown
  | Online_open of { platform : Parse.platform; deadline : int; capacity : int }
  | Online_submit of { session : int; tasks : int }
  | Online_advance of { session : int; time : int }
  | Online_extend of { session : int; deadline : int }
  | Online_degrade of { session : int; at : int; work_factor : int }
  | Online_plan of { session : int }
  | Online_close of { session : int }

let op_name = function
  | Ping -> "ping"
  | Schedule _ -> "schedule"
  | Deadline _ -> "deadline"
  | Metrics _ -> "metrics"
  | Batch _ -> "batch"
  | Report _ -> "report"
  | Check _ -> "check"
  | Profile _ -> "profile"
  | Stats -> "stats"
  | Metrics_dump -> "metrics"
  | Shutdown -> "shutdown"
  | Online_open _ -> "online-open"
  | Online_submit _ -> "online-submit"
  | Online_advance _ -> "online-advance"
  | Online_extend _ -> "online-extend"
  | Online_degrade _ -> "online-degrade"
  | Online_plan _ -> "online-plan"
  | Online_close _ -> "online-close"

let is_control = function
  | Ping | Stats | Metrics_dump | Shutdown -> true
  | _ -> false

let is_online = function
  | Online_open _ | Online_submit _ | Online_advance _ | Online_extend _
  | Online_degrade _ | Online_plan _ | Online_close _ ->
      true
  | _ -> false

(* [trace] is the request-scoped correlation context: an opaque string the
   client attaches; the daemon echoes it on the response and uses it to
   label the request's scope in telemetry and the slow-request log. *)
type request = { id : int option; trace : string option; op : op }

(* ---------- request codec ---------- *)

let problem_fields (p : problem) =
  ("platform", Json.String (Parse.platform_to_string p.Solve.platform))
  :: (match p.Solve.tasks with None -> [] | Some n -> [ ("tasks", Json.Int n) ])
  @ match p.Solve.deadline with None -> [] | Some d -> [ ("deadline", Json.Int d) ]

let encode_op_fields = function
  | Ping | Stats | Metrics_dump | Shutdown -> []
  | Schedule p | Deadline p | Metrics p -> problem_fields p
  | Batch problems ->
      [
        ( "problems",
          Json.List
            (Array.to_list
               (Array.map (fun p -> Json.Obj (problem_fields p)) problems)) );
      ]
  | Report { problem; planned } ->
      problem_fields problem @ [ ("planned", Json.Bool planned) ]
  | Check { problem; trace; seed; events } ->
      problem_fields problem
      (* wire name "traced", not "trace": the request envelope's trace
         context owns that key *)
      @ [
          ("traced", Json.Bool trace);
          ("seed", Json.Int seed);
          ("events", Json.Int events);
        ]
  | Profile { platform; tasks; deadline; workload; seed; events } ->
      [
        ("platform", Json.String (Parse.platform_to_string platform));
        ("tasks", Json.Int tasks);
      ]
      @ (match deadline with None -> [] | Some d -> [ ("deadline", Json.Int d) ])
      @ [
          ("workload", Json.String (workload_to_string workload));
          ("seed", Json.Int seed);
          ("events", Json.Int events);
        ]
  | Online_open { platform; deadline; capacity } ->
      ("platform", Json.String (Parse.platform_to_string platform))
      :: ("deadline", Json.Int deadline)
      ::
      (* 0 is the default; omitting it keeps encode∘decode the identity *)
      (if capacity = 0 then [] else [ ("capacity", Json.Int capacity) ])
  | Online_submit { session; tasks } ->
      [ ("session", Json.Int session); ("tasks", Json.Int tasks) ]
  | Online_advance { session; time } ->
      [ ("session", Json.Int session); ("time", Json.Int time) ]
  | Online_extend { session; deadline } ->
      [ ("session", Json.Int session); ("deadline", Json.Int deadline) ]
  | Online_degrade { session; at; work_factor } ->
      [
        ("session", Json.Int session);
        ("at", Json.Int at);
        ("work_factor", Json.Int work_factor);
      ]
  | Online_plan { session } | Online_close { session } ->
      [ ("session", Json.Int session) ]

let encode_request { id; trace; op } =
  Json.Obj
    (("v", Json.Int version)
    :: (match id with None -> [] | Some i -> [ ("id", Json.Int i) ])
    @ (match trace with None -> [] | Some s -> [ ("trace", Json.String s) ])
    @ (("op", Json.String (op_name op)) :: encode_op_fields op))

(* Total decoding: every failure is a value, never an exception. *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let bad fmt = Printf.ksprintf (fun m -> Error (error Bad_request m)) fmt
let not_object = error Bad_request "frame must be a JSON object"
let missing kind key = error Bad_request (Printf.sprintf "missing %s field %S" kind key)
let not_int key = error Bad_request (Printf.sprintf "field %S must be an integer" key)
let not_string key = error Bad_request (Printf.sprintf "field %S must be a string" key)

let check_version v =
  if v = version then Ok ()
  else
    Error
      (error Unsupported_version
         (Printf.sprintf "protocol version %d not supported (this is version %d)" v
            version))

let platform_of_text text =
  match Parse.of_string text with
  | Ok platform -> Ok platform
  | Error msg -> Error (error Invalid_platform ("platform: " ^ msg))

(* ---------- request decoding ---------- *)

(* A request is read straight from the frame's bytes by a [Json.Reader];
   no tree is built.  What it decodes to is what the tree decoder gave
   (test/api_reference.ml keeps that decoder as the oracle): a syntax
   error anywhere in the frame wins over any field error, members come in
   any order, unknown ones are skipped but checked, the first of a
   repeated one counts, and field errors come in the order the fields are
   checked, not in byte order.  So one pass over the frame notes where
   each known member's first occurrence starts, and the fields are read
   from there once the whole frame is known to be well formed.  A batch's
   "problems", the one member that grows, is decoded during that pass when
   "op" has already named a batch, as every encoder writes it. *)

module R = Json.Reader

let members =
  [|
    "v"; "id"; "trace"; "op"; "platform"; "tasks"; "deadline"; "problems";
    "planned"; "traced"; "seed"; "events"; "workload"; "capacity"; "session";
    "time"; "at"; "work_factor";
  |]

let rec member_index name i =
  if String.equal members.(i) name then i else member_index name (i + 1)
let op_member = member_index "op" 0
let problems_member = member_index "problems" 0

(* The member named by the key just read, or -1. *)
let rec member_of_key r i =
  if i = Array.length members then -1
  else if R.span_is r members.(i) then i
  else member_of_key r (i + 1)

(* An integer, or a string as the current span; a value of another kind
   is consumed and answers false. *)
let read_int r =
  match R.peek r with
  | `Number -> R.number r
  | _ ->
      R.skip r;
      false

let read_span r =
  match R.peek r with
  | `String ->
      R.span r;
      true
  | _ ->
      R.skip r;
      false

(* A batch frame's memo.  Each distinct platform text is parsed once,
   and elements equal in (text, tasks, deadline) share one problem value.
   A text is found by its spelling, the span's bytes as written, compared
   in place, so a repeated element allocates nothing; a spelling met for
   the first time is unescaped and filed under its text, so spellings of
   one text share its entry. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h (* keys are hashes already *)
end)

(* A problem value and the first element that decoded to it; [next]
   chains the problems of one bucket, newest first. *)
type resolved = { problem : Solve.problem; first : int; next : resolved option }

type memo_entry = {
  decoded : (Parse.platform, error) result;
  problems : resolved Int_table.t;  (** by {!objective_hash} *)
}

(* An element that decoded cleanly: its bytes are the frame's
   [at .. at + length - 1]. *)
type known = { at : int; length : int; resolved : resolved }

type memo = {
  spellings : (string * memo_entry) list Int_table.t;
      (** by [Json.Reader.spelling_hash] *)
  texts : (string, memo_entry) Hashtbl.t;
  known : known list Int_table.t;  (** by a hash of [prefix] bytes *)
  mutable elements : int;
  mutable hits : int;
  mutable compared : int;
}

let bucket table h = try Int_table.find table h with Not_found -> []

let rec find_spelling r = function
  | [] -> raise_notrace Not_found
  | (spelling, entry) :: rest ->
      if R.spelled r spelling then entry else find_spelling r rest

(* The entry of the platform text that is the current span. *)
let memo_entry memo r =
  let h = R.spelling_hash r in
  let spellings = bucket memo.spellings h in
  try find_spelling r spellings
  with Not_found ->
    let text = R.span_text r in
    let entry =
      match Hashtbl.find_opt memo.texts text with
      | Some entry -> entry
      | None ->
          let entry = { decoded = platform_of_text text; problems = Int_table.create 4 } in
          Hashtbl.add memo.texts text entry;
          entry
    in
    Int_table.replace memo.spellings h ((R.spelling r, entry) :: spellings);
    entry

type seen = Absent | Present | Wrong

(* What one batch element's members held: its members may come in any
   order, so they are checked once the element is closed. *)
type element = {
  mutable platform_seen : seen;
  mutable entry : memo_entry;  (** meaningful when [platform_seen = Present] *)
  mutable tasks_seen : seen;
  mutable tasks_value : int;  (** meaningful when [tasks_seen = Present] *)
  mutable deadline_seen : seen;
  mutable deadline_value : int;  (** meaningful when [deadline_seen = Present] *)
}

let is_absent = function Absent -> true | Present | Wrong -> false
let objective seen value = match seen with Present -> Some value | Absent | Wrong -> None

let same_objective seen value = function
  | Some v -> (match seen with Present -> v = value | Absent | Wrong -> false)
  | None -> is_absent seen

let objective_hash e =
  let part seen value = match seen with Present -> value | Absent | Wrong -> min_int in
  ((part e.tasks_seen e.tasks_value * 65_599) + part e.deadline_seen e.deadline_value)
  land max_int

let rec find_problem memo e ({ problem = p; next; _ } as resolved) =
  memo.compared <- memo.compared + 1;
  if
    same_objective e.tasks_seen e.tasks_value p.Solve.tasks
    && same_objective e.deadline_seen e.deadline_value p.deadline
  then resolved
  else match next with None -> raise_notrace Not_found | Some r -> find_problem memo e r

(* The element memo, in front of the slow path below.  An element whose
   bytes equal those of an earlier element that decoded cleanly decodes
   to that element's problem, and the reader steps over it without
   lexing it.  This is sound because an object's bytes alone decide
   whether it is valid and what it holds, and a recorded run ends at its
   own closing brace, so an equal run elsewhere is the same complete
   object; the slow path would have given it the same physical problem.

   Entries are filed by a hash of the [prefix] bytes an element starts
   with, and a bucket holds at most [candidates] of them: an element
   whose bucket is full takes the slow path and is not recorded.  So a
   lookup hashes [prefix] bytes and compares at most [candidates] runs:
   each compare reads one word at the run's end, then stops at the first
   differing byte.  When the element is well formed that byte lies
   within its own bytes (plus the seven a word-wide compare reads past
   them), because a run equal to the element's bytes up to its closing
   brace would be the element itself: a lookup costs
   O([prefix] + [candidates] × element bytes), whatever the frame.  Only
   an element with a syntax error, which ends the frame's reading, may be
   compared further.  A hit allocates nothing. *)
let prefix = 32
let candidates = 8

(* The problem of element [index], shared with the earlier elements
   equal to it.  A bucket holds at most [candidates] problems too, so
   objectives whose hashes collide cost at most [candidates] compares
   (counted with the memo's): one a full bucket turns away gets a
   problem of its own. *)
let fresh_problem e platform ~index next =
  {
    problem =
      {
        Solve.platform;
        tasks = objective e.tasks_seen e.tasks_value;
        deadline = objective e.deadline_seen e.deadline_value;
      };
    first = index;
    next;
  }

let memo_problem memo e platform ~index =
  let table = e.entry.problems in
  let h = objective_hash e in
  match Int_table.find table h with
  | head -> (
      let compared = memo.compared in
      try find_problem memo e head
      with Not_found ->
        let resolved = fresh_problem e platform ~index (Some head) in
        if memo.compared - compared < candidates then Int_table.replace table h resolved;
        resolved)
  | exception Not_found ->
      let resolved = fresh_problem e platform ~index None in
      Int_table.replace table h resolved;
      resolved

let rec find_known memo r = function
  | [] -> raise_notrace Not_found
  | k :: rest ->
      memo.compared <- memo.compared + 1;
      if R.repeats r k.at k.length then k else find_known memo r rest

exception Rejected of error

(* One element, read in place; its first bad field, in the order a single
   problem's fields are checked (platform, tasks, deadline), is raised
   once the element has been read. *)
let decode_element memo r e ~index =
  match R.peek r with
  | `Object ->
      e.platform_seen <- Absent;
      e.tasks_seen <- Absent;
      e.deadline_seen <- Absent;
      if R.first_member r then begin
        let more = ref true in
        while !more do
          (if R.span_is r "platform" && is_absent e.platform_seen then begin
             if read_span r then begin
               e.platform_seen <- Present;
               e.entry <- memo_entry memo r
             end
             else e.platform_seen <- Wrong
           end
           else if R.span_is r "tasks" && is_absent e.tasks_seen then begin
             e.tasks_seen <- (if read_int r then Present else Wrong);
             e.tasks_value <- R.int_value r
           end
           else if R.span_is r "deadline" && is_absent e.deadline_seen then begin
             e.deadline_seen <- (if read_int r then Present else Wrong);
             e.deadline_value <- R.int_value r
           end
           else R.skip r);
          more := R.next_member r
        done
      end;
      let platform =
        match e.platform_seen with
        | Absent -> raise (Rejected (missing "string" "platform"))
        | Wrong -> raise (Rejected (not_string "platform"))
        | Present -> (
            match e.entry.decoded with Ok p -> p | Error err -> raise (Rejected err))
      in
      (match e.tasks_seen with Wrong -> raise (Rejected (not_int "tasks")) | _ -> ());
      (match e.deadline_seen with
      | Wrong -> raise (Rejected (not_int "deadline"))
      | _ -> ());
      memo_problem memo e platform ~index
  | _ ->
      R.skip r;
      raise
        (Rejected (error Bad_request "every element of \"problems\" must be an object"))

(* One element through the memo: a hit is stepped over, anything else
   takes the slow path and, when it decodes cleanly and its bucket has
   room, is recorded. *)
let memo_element memo r e ~index =
  ignore (R.peek r) (* past the whitespace, to the element's first byte *);
  let at = R.position r in
  let h = R.hash_ahead r prefix in
  let known = bucket memo.known h in
  memo.elements <- memo.elements + 1;
  match find_known memo r known with
  | k ->
      memo.hits <- memo.hits + 1;
      R.seek r (at + k.length);
      k.resolved
  | exception Not_found ->
      let resolved = decode_element memo r e ~index in
      if List.compare_length_with known candidates < 0 then
        Int_table.replace memo.known h
          ({ at; length = R.position r - at; resolved } :: known);
      resolved

(* The "problems" array the reader is on, read to its end: after the
   first bad element the rest are only checked.  With the problems comes
   the repeat map: for each element, the first element that decoded to
   the same physical problem.  While the elements are read only the map
   (an int array that doubles) and the distinct problems are kept, the
   problems in arrays of [chunk] slots, small enough to be allocated on
   the minor heap, so storing a young problem there is a plain write.
   The problem array is then built from them once, at its final size. *)
let chunk = 256

let decode_problems r =
  let memo =
    {
      spellings = Int_table.create 16;
      texts = Hashtbl.create 16;
      known = Int_table.create 16;
      elements = 0;
      hits = 0;
      compared = 0;
    }
  in
  let e =
    {
      platform_seen = Absent;
      entry = { decoded = Error not_object; problems = Int_table.create 1 };
      tasks_seen = Absent;
      tasks_value = 0;
      deadline_seen = Absent;
      deadline_value = 0;
    }
  in
  let firsts = ref (Array.make 64 0) and count = ref 0 in
  let chunks = ref [] (* newest first *) and room = ref 0 in
  let add { problem; first; _ } =
    let n = !count in
    if n = Array.length !firsts then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit !firsts 0 grown 0 n;
      firsts := grown
    end;
    !firsts.(n) <- first;
    count := n + 1;
    if first = n then begin
      (match !chunks with
      | c :: _ when !room > 0 ->
          c.(chunk - !room) <- problem;
          decr room
      | _ ->
          chunks := Array.make chunk problem :: !chunks;
          room := chunk - 1)
    end
  in
  let failure = ref None in
  if R.first_item r then begin
    let more = ref true in
    while !more do
      (match !failure with
      | Some _ -> R.skip r
      | None -> (
          match memo_element memo r e ~index:!count with
          | resolved -> add resolved
          | exception Rejected err -> failure := Some err));
      more := R.next_item r
    done
  end;
  Obs.count ~n:memo.elements "api.batch_elements";
  Obs.count ~n:memo.hits "api.batch_memo_hits";
  Obs.count ~n:memo.compared "api.batch_memo_candidates";
  match !failure with
  | Some err -> Error err
  | None ->
      let n = !count and firsts = !firsts in
      let distinct =
        match !chunks with
        | [] -> [||]
        | last :: rest -> Array.concat (List.rev (Array.sub last 0 (chunk - !room) :: rest))
      in
      if Array.length distinct = n then Ok (distinct, Array.sub firsts 0 n)
      else begin
        let problems = Array.make n distinct.(0) in
        let d = ref 0 in
        for i = 0 to n - 1 do
          let j = firsts.(i) in
          if j = i then begin
            problems.(i) <- distinct.(!d);
            incr d
          end
          else problems.(i) <- problems.(j)
        done;
        Ok (problems, Array.sub firsts 0 n)
      end

type frame = {
  r : R.t;
  at : int array;  (** where each of [members] first occurs, or -1 *)
  mutable batch : (problem array * int array, error) result option;
      (** "problems" and its repeat map, once decoded (during the pass
          when "op" came first) *)
}

(* The pass over the whole frame: [None] when it is not an object. *)
let scan r =
  match R.peek r with
  | `Object ->
      let f = { r; at = Array.make (Array.length members) (-1); batch = None } in
      let is_batch = ref false in
      if R.first_member r then begin
        let more = ref true in
        while !more do
          let k = member_of_key r 0 in
          (if k < 0 || f.at.(k) >= 0 then R.skip r
           else begin
             f.at.(k) <- R.position r;
             if k = op_member then is_batch := read_span r && R.span_is r "batch"
             else if k = problems_member && !is_batch then
               match R.peek r with
               | `Array -> f.batch <- Some (decode_problems r)
               | _ -> R.skip r
             else R.skip r
           end);
          more := R.next_member r
        done
      end;
      R.finish r;
      Some f
  | _ ->
      R.skip r;
      R.finish r;
      None

(* Field readers: each moves to its member's first occurrence. *)

let find f key =
  let at = f.at.(member_index key 0) in
  at >= 0
  && begin
       R.seek f.r at;
       true
     end

let opt_int f key =
  if not (find f key) then Ok None
  else if read_int f.r then Ok (Some (R.int_value f.r))
  else Error (not_int key)

let req_int f key =
  if not (find f key) then Error (missing "integer" key)
  else if read_int f.r then Ok (R.int_value f.r)
  else Error (not_int key)

let opt_string f key =
  if not (find f key) then Ok None
  else if read_span f.r then Ok (Some (R.span_text f.r))
  else Error (not_string key)

let req_string f key =
  match opt_string f key with
  | Ok None -> Error (missing "string" key)
  | Ok (Some s) -> Ok s
  | Error e -> Error e

let opt_bool f key ~default =
  if not (find f key) then Ok default
  else
    match R.peek f.r with
    | `Bool -> Ok (R.bool f.r)
    | _ -> bad "field %S must be a boolean" key

let req_platform f =
  let* text = req_string f "platform" in
  platform_of_text text

let req_problem f =
  let* platform = req_platform f in
  let* tasks = opt_int f "tasks" in
  let* deadline = opt_int f "deadline" in
  Ok { Solve.platform; tasks; deadline }

let decode_op f name =
  match name with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "schedule" ->
      let* p = req_problem f in
      Ok (Schedule p)
  | "deadline" ->
      let* p = req_problem f in
      Ok (Deadline p)
  | "metrics" ->
      (* Two ops share the wire name: with a platform this is the solve
         metrics of a plan; without one it is the control op dumping the
         daemon's live telemetry.  Unambiguous because the solve form
         always requires "platform". *)
      if f.at.(member_index "platform" 0) < 0 then Ok Metrics_dump
      else
        let* p = req_problem f in
        Ok (Metrics p)
  | "batch" ->
      if Option.is_none f.batch && find f "problems" then
        f.batch <-
          (match R.peek f.r with
          | `Array -> Some (decode_problems f.r)
          | _ -> Some (bad "field \"problems\" must be a list"));
      let* problems, _ = Option.value f.batch ~default:(Error (missing "list" "problems")) in
      Ok (Batch problems)
  | "report" ->
      let* problem = req_problem f in
      let* planned = opt_bool f "planned" ~default:false in
      Ok (Report { problem; planned })
  | "check" ->
      let* problem = req_problem f in
      let* trace = opt_bool f "traced" ~default:false in
      let* seed = opt_int f "seed" in
      let* events = opt_int f "events" in
      Ok
        (Check
           {
             problem;
             trace;
             seed = Option.value seed ~default:0;
             events = Option.value events ~default:3;
           })
  | "profile" ->
      let* platform = req_platform f in
      let* tasks = req_int f "tasks" in
      let* deadline = opt_int f "deadline" in
      let* workload_name = opt_string f "workload" in
      let workload_name = Option.value workload_name ~default:"execute" in
      let* workload =
        match workload_of_string workload_name with
        | Some w -> Ok w
        | None -> bad "unknown workload %S" workload_name
      in
      let* seed = opt_int f "seed" in
      let* events = opt_int f "events" in
      Ok
        (Profile
           {
             platform;
             tasks;
             deadline;
             workload;
             seed = Option.value seed ~default:0;
             events = Option.value events ~default:4;
           })
  | "online-open" ->
      let* platform = req_platform f in
      let* deadline = req_int f "deadline" in
      let* capacity = opt_int f "capacity" in
      Ok
        (Online_open
           { platform; deadline; capacity = Option.value capacity ~default:0 })
  | "online-submit" ->
      let* session = req_int f "session" in
      let* tasks = req_int f "tasks" in
      Ok (Online_submit { session; tasks })
  | "online-advance" ->
      let* session = req_int f "session" in
      let* time = req_int f "time" in
      Ok (Online_advance { session; time })
  | "online-extend" ->
      let* session = req_int f "session" in
      let* deadline = req_int f "deadline" in
      Ok (Online_extend { session; deadline })
  | "online-degrade" ->
      let* session = req_int f "session" in
      let* at = req_int f "at" in
      let* work_factor = req_int f "work_factor" in
      Ok (Online_degrade { session; at; work_factor })
  | "online-plan" ->
      let* session = req_int f "session" in
      Ok (Online_plan { session })
  | "online-close" ->
      let* session = req_int f "session" in
      Ok (Online_close { session })
  | other -> bad "unknown op %S" other

let decode_request f =
  let* () =
    if not (find f "v") then Ok () (* absent = current version *)
    else if read_int f.r then check_version (R.int_value f.r)
    else bad "field \"v\" must be an integer"
  in
  let* id = opt_int f "id" in
  let* trace = opt_string f "trace" in
  let* name = req_string f "op" in
  let* op = decode_op f name in
  Ok { id; trace; op }

(* A frame's request and a batch's repeat map (empty for other ops), or
   the error answering it with the best-effort correlation the frame
   carries: its first "id" if that is an integer, its first "trace" if
   that is a string. *)
let decode line =
  let decoded =
    R.read line (fun r ->
        match scan r with
        | None -> Error (not_object, None, None)
        | Some f -> (
            match decode_request f with
            | Ok request ->
                let repeats =
                  match (request.op, f.batch) with
                  | Batch _, Some (Ok (_, repeats)) -> repeats
                  | _ -> [||]
                in
                Ok (request, repeats)
            | Error e ->
                let id = if find f "id" && read_int r then Some (R.int_value r) else None in
                let trace =
                  if find f "trace" && read_span r then Some (R.span_text r) else None
                in
                Error (e, id, trace)))
  in
  match decoded with
  | Ok decoded -> decoded
  | Error msg -> Error (error Bad_request ("malformed frame: " ^ msg), None, None)

let request_to_line r = Json.to_string (encode_request r) ^ "\n"

let request_of_line line =
  match decode line with Ok (request, _) -> Ok request | Error (e, _, _) -> Error e

let frame_id line =
  match decode line with Ok (request, _) -> request.id | Error (_, id, _) -> id

(* ---------- response codec ---------- *)

type response = {
  id : int option;
  trace : string option;
  result : (Json.t, error) result;
}

module W = Json.Writer

(* The one envelope writer: [write_ok] writes an [ok] payload.  Both
   {!response_to_line} (a payload tree) and {!response_line} (a typed
   reply) frame through it. *)
let write_response w ~id ~trace write_ok result =
  W.raw w "{\"v\":";
  W.int w version;
  (match id with
  | None -> ()
  | Some i ->
      W.raw w ",\"id\":";
      W.int w i);
  (match trace with
  | None -> ()
  | Some s ->
      W.raw w ",\"trace\":";
      W.string w s);
  (match result with
  | Ok payload ->
      W.raw w ",\"ok\":";
      write_ok w payload
  | Error { code; message } ->
      W.raw w ",\"error\":{\"code\":";
      W.string w (error_code_to_string code);
      W.raw w ",\"message\":";
      W.string w message;
      W.char w '}');
  W.raw w "}\n"

let field kvs key = List.assoc_opt key kvs

let opt_int_field kvs key =
  match field kvs key with
  | None -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (not_int key)

let opt_string_field kvs key =
  match field kvs key with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (not_string key)

let string_field kvs key =
  match opt_string_field kvs key with
  | Ok None -> Error (missing "string" key)
  | Ok (Some s) -> Ok s
  | Error e -> Error e

let decode_envelope json =
  match json with
  | Json.Obj kvs ->
      let* () =
        match field kvs "v" with
        | None -> Ok () (* absent = current version *)
        | Some (Json.Int v) -> check_version v
        | Some _ -> bad "field \"v\" must be an integer"
      in
      let* id = opt_int_field kvs "id" in
      Ok (kvs, id)
  | _ -> Error not_object

let parse_line line =
  match Json.parse line with
  | Ok json -> Ok json
  | Error msg -> bad "malformed frame: %s" msg

let decode_response json =
  let* kvs, id = decode_envelope json in
  let* trace = opt_string_field kvs "trace" in
  match (field kvs "ok", field kvs "error") with
  | Some payload, None -> Ok { id; trace; result = Ok payload }
  | None, Some (Json.Obj ekvs) ->
      let* code_name = string_field ekvs "code" in
      let* message = string_field ekvs "message" in
      let* code =
        match error_code_of_string code_name with
        | Some c -> Ok c
        | None -> bad "unknown error code %S" code_name
      in
      Ok { id; trace; result = Error { code; message } }
  | None, Some _ -> bad "field \"error\" must be an object"
  | Some _, Some _ -> bad "frame carries both \"ok\" and \"error\""
  | None, None -> bad "frame carries neither \"ok\" nor \"error\""

let response_to_line { id; trace; result } =
  W.to_string (fun w -> write_response w ~id ~trace W.value result)

let response_of_line line =
  let* json = parse_line line in
  decode_response json

let request_or_rejection line : (request * int array, response) result =
  match decode line with
  | Ok decoded -> Ok decoded
  | Error (e, id, trace) -> Error { id; trace; result = Error e }

(* ---------- JSON renderings ---------- *)

(* The [metrics] reply: the measures record, in the plan's shape. *)
let metrics_json plan =
  let open Json in
  let m = Metrics.of_plan plan in
  let pct busy = Float (Float.round (1000.0 *. Metrics.fraction m busy) /. 10.0) in
  let node key (v : Metrics.node) =
    Obj
      [
        (key, Int v.address.depth);
        ("tasks", Int v.tasks);
        ("link_busy_pct", pct v.link_busy);
        ("cpu_busy_pct", pct v.compute);
        ("max_buffered", Int v.max_buffered);
      ]
  in
  let nodes = Array.to_list m.nodes in
  match plan with
  | Plan.Chain _ ->
      Obj
        [
          ("kind", String "chain");
          ("tasks", Int m.tasks);
          ("makespan", Int m.makespan);
          ("total_waiting", Int (Metrics.total_waiting m));
          ("max_waiting", Int (Metrics.max_waiting m));
          ("processors", List (List.map (node "proc") nodes));
        ]
  | Plan.Spider s ->
      let leg l =
        Obj
          [
            ("leg", Int l);
            ("tasks", Int (Metrics.leg_tasks m l));
            ( "nodes",
              List
                (List.filter_map
                   (fun (v : Metrics.node) ->
                     if v.address.leg = l then Some (node "depth" v) else None)
                   nodes) );
          ]
      in
      Obj
        [
          ("kind", String "spider");
          ("tasks", Int m.tasks);
          ("makespan", Int m.makespan);
          ("master_port_busy_pct", pct m.port_busy);
          ( "legs",
            List (List.init (Spider.legs (Spider_schedule.spider s)) (fun i -> leg (i + 1))) );
        ]

(* ---------- typed replies ---------- *)

type section = {
  label : string;
  trace : Trace.t;
  violations : Trace.violation list;
}

type reply =
  | Pong
  | Solved of { plan : Plan.t; deadline : int option }
  | Measured of Plan.t
  | Batched of {
      problems : problem array;
      outcomes : Batch.outcome array;
      firsts : int array;
      stats : Batch.stats;
      cache_capacity : int;
    }
  | Reported of { source : string; report : Report.t }
  | Checked of {
      plan : Plan.t;
      oracle : string list;
      sections : section list;
      ok : bool;
    }
  | Profiled of { summary : (string * Json.t) list; mem : Obs.Memory.t }
  | Stats_info of Json.t
  | Metrics_text of string
  | Bye

let platform_kind = function
  | Parse.Chain_platform _ -> "chain"
  | Parse.Fork_platform _ -> "fork"
  | Parse.Spider_platform _ -> "spider"
  | Parse.Tree_platform _ -> "tree"

(* ---------- the payload writers ---------- *)

(* Task [i] (0-based) straight from the plan's columns: a chain's
   processor is its depth on the one leg its spider view has. *)
let write_entry w plan (c : Columns.t) i =
  W.raw w "{\"task\":";
  W.int w (i + 1);
  let depth = Columns.depth c i in
  (match plan with
  | Plan.Chain _ ->
      W.raw w ",\"proc\":";
      W.int w depth
  | Plan.Spider _ ->
      W.raw w ",\"leg\":";
      W.int w (Columns.leg c i);
      W.raw w ",\"depth\":";
      W.int w depth);
  W.raw w ",\"start\":";
  W.int w c.starts.(i);
  W.raw w ",\"comms\":[";
  let o = c.offsets.(i) in
  for k = o to o + depth - 1 do
    if k > o then W.char w ',';
    W.int w c.emissions.(k)
  done;
  W.raw w "]}"

let write_plan w ~deadline plan =
  W.char w '{';
  (match deadline with
  | None -> ()
  | Some d ->
      W.raw w "\"deadline\":";
      W.int w d;
      W.char w ',');
  W.raw w
    (match plan with
    | Plan.Chain _ -> "\"kind\":\"chain\",\"tasks\":"
    | Plan.Spider _ -> "\"kind\":\"spider\",\"tasks\":");
  let n = Plan.task_count plan in
  W.int w n;
  W.raw w ",\"makespan\":";
  W.int w (Plan.makespan plan);
  W.raw w ",\"entries\":[";
  let c = Spider_schedule.columns (Plan.to_spider plan) in
  for i = 0 to n - 1 do
    if i > 0 then W.char w ',';
    write_entry w plan c i
  done;
  W.raw w "]}"

(* A result's bytes after its instance number are written once: a later
   element that repeats it, as [firsts] says (an element past its end
   is its own first) and its outcome (the same physical value) and kind
   confirm, copies them from the buffer.  [spans] holds where each
   element's bytes lie. *)
let write_batched w ~problems ~outcomes ~firsts ~(stats : Batch.stats) ~cache_capacity
    =
  W.raw w "{\"instances\":";
  W.int w stats.requests;
  W.raw w ",\"cache\":{\"capacity\":";
  W.int w cache_capacity;
  W.raw w ",\"hits\":";
  W.int w stats.cache_hits;
  W.raw w ",\"misses\":";
  W.int w stats.cache_misses;
  W.raw w "},\"results\":[";
  let n = Array.length outcomes in
  let spans = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    if i > 0 then W.char w ',';
    W.raw w "{\"instance\":";
    W.int w (i + 1);
    let kind = platform_kind problems.(i).Solve.platform in
    let j = if i < Array.length firsts then firsts.(i) else i in
    if
      j >= 0 && j < i
      && outcomes.(j) == outcomes.(i)
      && String.equal (platform_kind problems.(j).Solve.platform) kind
    then begin
      W.repeat w spans.(2 * j) spans.((2 * j) + 1);
      spans.(2 * i) <- spans.(2 * j);
      spans.((2 * i) + 1) <- spans.((2 * j) + 1)
    end
    else begin
      let at = W.position w in
      W.raw w ",\"kind\":\"";
      W.raw w kind;
      (match outcomes.(i) with
      | Ok plan ->
          W.raw w "\",\"tasks\":";
          W.int w (Plan.task_count plan);
          W.raw w ",\"makespan\":";
          W.int w (Plan.makespan plan)
      | Error msg ->
          W.raw w "\",\"error\":";
          W.string w msg);
      W.char w '}';
      spans.(2 * i) <- at;
      spans.((2 * i) + 1) <- W.position w - at
    end
  done;
  W.raw w "]}"

(* Every reply kind has one encoder.  [Solved] and [Batched], whose
   payloads grow with the task or problem count, are written to bytes by
   hand, and their tree is read back from those bytes; every other kind
   is a tree, spliced into the bytes. *)
let rec json_of_reply = function
  | Pong -> Json.Obj [ ("version", Json.Int version) ]
  | (Solved _ | Batched _) as reply ->
      Result.get_ok (Json.parse (W.to_string (fun w -> write_reply w reply)))
  | Measured plan -> metrics_json plan
  | Reported { source; report } ->
      let fields =
        match Report.to_json report with
        | Json.Obj fields -> fields
        | other -> [ ("report", other) ]
      in
      Json.Obj (("source", Json.String source) :: fields)
  | Checked { plan; oracle; sections; ok } ->
      let section_json { label; trace; violations } =
        Json.Obj
          ([
             ("name", Json.String label);
             ("events", Json.Int (Trace.length trace));
             ("violations", Json.Int (List.length violations));
           ]
          @
          if violations = [] then []
          else [ ("report", Json.String (Trace.report trace violations)) ])
      in
      Json.Obj
        [
          ("tasks", Json.Int (Plan.task_count plan));
          ("makespan", Json.Int (Plan.makespan plan));
          ("ok", Json.Bool ok);
          ( "oracle_violations",
            Json.List (List.map (fun s -> Json.String s) oracle) );
          ("sections", Json.List (List.map section_json sections));
        ]
  | Profiled { summary; mem } ->
      let fields =
        match Obs.Memory.to_json mem with
        | Json.Obj fields -> fields
        | other -> [ ("profile", other) ]
      in
      Json.Obj (summary @ fields)
  | Stats_info json -> json
  | Metrics_text body ->
      Json.Obj
        [
          ("format", Json.String "prometheus-text-0.0.4");
          ("body", Json.String body);
        ]
  | Bye -> Json.Obj [ ("shutting_down", Json.Bool true) ]

and write_reply w = function
  | Solved { plan; deadline } -> write_plan w ~deadline plan
  | Batched { problems; outcomes; firsts; stats; cache_capacity } ->
      write_batched w ~problems ~outcomes ~firsts ~stats ~cache_capacity
  | reply -> W.value w (json_of_reply reply)

let output_pretty_reply oc reply = Json.output_pretty oc (fun w -> write_reply w reply)

let response_line ~id ~trace result =
  W.to_string (fun w -> write_response w ~id ~trace write_reply result)

(* ---------- execution ---------- *)

type solver = problem array -> Batch.outcome array * Batch.stats

let guarded_solve problem =
  try Solve.solve problem with
  | Invalid_argument msg -> Error msg
  | exn -> Error (Printexc.to_string exn)

let direct_solver problems =
  let outcomes = Array.map guarded_solve problems in
  let n = Array.length problems in
  ( outcomes,
    {
      Batch.jobs = 1;
      requests = n;
      cache_hits = 0;
      cache_misses = n;
      queue_wait_us = 0;
      busy_us = 0;
    } )

let solve_one ~solver problem =
  match solver [| problem |] with
  | [| outcome |], _ -> (
      match outcome with
      | Ok plan -> Ok plan
      | Error msg -> Error (error_of_solve_failure msg))
  | _ -> Error (error Internal "solver returned a mis-sized outcome array")

let as_spider_or_err platform =
  match Solve.as_spider platform with
  | Ok spider -> Ok spider
  | Error msg -> Error (error_of_solve_failure msg)

(* The engine budget of a traced check's fault replay, and so the most
   fault events a check or profile may ask for. *)
let max_replay_events = 1_000_000

let exec_check ~solver { Solve.platform; tasks; deadline } ~trace:do_trace ~seed
    ~events =
  let* plan = solve_one ~solver { Solve.platform; tasks; deadline } in
  let oracle = Plan.check ~require_nonnegative:true plan in
  let audit label trace =
    { label; trace; violations = Trace.check ~require_nonnegative:true trace }
  in
  let record f =
    let r = Trace.Recorder.create () in
    ignore (Trace.with_recorder r f);
    Trace.recorded r
  in
  let* sections =
    if not do_trace then Ok [ audit "planned trace" (Trace.of_plan plan) ]
    else
      let* spider = as_spider_or_err platform in
        let n = Plan.task_count plan in
        let execution =
          audit "recorded execution" (record (fun () -> Netsim.execute plan))
        in
        (* A task-count solve on a non-chain platform already is this
           schedule; chains and deadline problems solve it anew. *)
        let splan =
          match (plan, deadline) with
          | Plan.Spider s, None -> s
          | _ -> Spider_algorithm.schedule_tasks spider n
        in
        let horizon = Spider_schedule.makespan splan in
        let ftrace = Fault.random (Prng.create seed) spider ~events ~horizon in
        let faulted =
          audit
            (Printf.sprintf "recorded fault replay (seed %d, %d events)" seed
               events)
            (record (fun () ->
                 Netsim.replay_under_faults ~max_events:max_replay_events ~trace:ftrace
                   splan))
        in
        Ok [ audit "planned trace" (Trace.of_plan plan); execution; faulted ]
    in
    let ok = oracle = [] && List.for_all (fun s -> s.violations = []) sections in
    Ok (Checked { plan; oracle; sections; ok })

let exec_profile ~platform ~tasks:n ~deadline ~workload ~seed ~events =
  let mem = Obs.Memory.create () in
  let problem =
    match deadline with
    | Some d -> Solve.problem ~deadline:d platform
    | None -> Solve.problem ~tasks:n platform
  in
  (* The workload runs under its own Memory sink — inside the daemon this
     temporarily shadows the serve telemetry sink, exactly as documented. *)
  let result =
    Obs.with_sink (Obs.Memory.sink mem) @@ fun () ->
    match workload with
    | Solve_only -> (
        match guarded_solve problem with
        | Error msg -> Error (error_of_solve_failure msg)
        | Ok plan ->
            Ok
              [
                ("workload", Json.String "solve");
                ("makespan", Json.Int (Plan.makespan plan));
                ("tasks", Json.Int (Plan.task_count plan));
              ])
    | Execute -> (
        match guarded_solve problem with
        | Error msg -> Error (error_of_solve_failure msg)
        | Ok plan ->
            let report = Netsim.execute plan in
            Ok
              [
                ("workload", Json.String "execute");
                ("planned_makespan", Json.Int report.Netsim.planned_makespan);
                ("realized_makespan", Json.Int report.Netsim.realized_makespan);
                ("tasks", Json.Int (Plan.task_count plan));
              ])
    | Pull -> (
        match as_spider_or_err platform with
        | Error e -> Error e
        | Ok spider ->
            let sched = Netsim.pull_policy spider ~tasks:n in
            Ok
              [
                ("workload", Json.String "pull");
                ("makespan", Json.Int (Spider_schedule.makespan sched));
                ("tasks", Json.Int n);
              ])
    | Faults -> (
        match as_spider_or_err platform with
        | Error e -> Error e
        | Ok spider ->
            let plan = Spider_algorithm.schedule_tasks spider n in
            let trace =
              Fault.random (Prng.create seed) spider ~events
                ~horizon:(Spider_schedule.makespan plan)
            in
            let outcome = Msts_sim.Replan.replay ~trace plan in
            Ok
              [
                ("workload", Json.String "faults");
                ( "observed_makespan",
                  Json.Int
                    outcome.Msts_sim.Replan.report.Netsim.observed_makespan );
                ("replans_adopted", Json.Int outcome.Msts_sim.Replan.replans);
                ("tasks", Json.Int n);
              ])
  in
  let* summary = result in
  Ok (Profiled { summary; mem })

(* The counts of [check] and [profile], checked once whatever the workload
   or [traced]: a negative task count answers as [schedule] does, an
   event count outside [0, max_replay_events] names its field — a longer
   fault trace could never finish replaying within the budget. *)
let check_counts = function
  | Check { problem = { Solve.tasks = Some n; _ }; _ } | Profile { tasks = n; _ }
    when n < 0 ->
      Error (error_of_solve_failure "negative task count")
  | (Check { events; _ } | Profile { events; _ }) when events < 0 ->
      Error (error Invalid_argument_error "field \"events\" must be >= 0")
  | (Check { events; _ } | Profile { events; _ }) when events > max_replay_events ->
      Error
        (error Invalid_argument_error
           (Printf.sprintf "field \"events\" must be <= %d" max_replay_events))
  | _ -> Ok ()

let exec ?(cache_capacity = 0) ~solver op =
  try
    let* () = check_counts op in
    match op with
    | Ping -> Ok Pong
    | Stats -> Ok (Stats_info (Json.Obj [ ("version", Json.Int version) ]))
    | Metrics_dump ->
        (* The stateless dispatcher has no live aggregates; the daemon
           (Msts_serve.Engine) overrides this with its real exposition. *)
        Ok (Metrics_text "")
    | Shutdown -> Ok Bye
    | Schedule problem ->
        let* plan = solve_one ~solver problem in
        Ok (Solved { plan; deadline = None })
    | Deadline problem ->
        let* plan = solve_one ~solver problem in
        Ok (Solved { plan; deadline = problem.Solve.deadline })
    | Metrics problem ->
        let* plan = solve_one ~solver problem in
        Ok (Measured plan)
    | Batch problems ->
        (* The solver hides which problems repeat: no element has a
           first but itself. *)
        let outcomes, stats = solver problems in
        Ok (Batched { problems; outcomes; firsts = [||]; stats; cache_capacity })
    | Report { problem; planned } ->
        let* plan = solve_one ~solver problem in
        let source, report =
          if planned then ("planned schedule", Metrics.of_plan plan)
          else ("realized execution", Report.of_execution (Netsim.execute plan))
        in
        Ok (Reported { source; report })
    | Check { problem; trace; seed; events } ->
        exec_check ~solver problem ~trace ~seed ~events
    | Profile { platform; tasks; deadline; workload; seed; events } ->
        exec_profile ~platform ~tasks ~deadline ~workload ~seed ~events
    | Online_open _ | Online_submit _ | Online_advance _ | Online_extend _
    | Online_degrade _ | Online_plan _ | Online_close _ ->
        (* Sessions are daemon/CLI-session state; the stateless dispatcher
           cannot host them.  Msts_online.Service.exec is the handler. *)
        Error
          (error Bad_request
             "online operations require a session; use msts serve or msts \
              online")
  with exn -> Error (error_of_exn exn)

let respond ?cache_capacity ~solver { id; trace; op } =
  let result =
    match exec ?cache_capacity ~solver op with
    | Ok reply -> Ok (json_of_reply reply)
    | Error e -> Error e
  in
  { id; trace; result }
