(* The request decoder as it stood before requests were read straight
   from the frame's bytes by [Json.Reader]: parse the frame into a
   [Json.t] tree, then walk the tree.  Kept as the oracle for the
   differential suite in test_api.ml: the reader-based decoder must give
   the same requests (with the same sharing of batch problems), the same
   errors and the same rejection correlation on every frame. *)

module Api = Msts.Api
module Json = Msts.Json
module Parse = Msts.Platform_format
module Solve = Msts.Solve

open Api

let version = Api.version

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let bad fmt = Printf.ksprintf (fun m -> Error (error Bad_request m)) fmt

let workload_of_string = function
  | "solve" -> Some Solve_only
  | "execute" -> Some Execute
  | "pull" -> Some Pull
  | "faults" -> Some Faults
  | _ -> None

let field kvs key = List.assoc_opt key kvs

let int_field kvs key =
  match field kvs key with
  | None -> bad "missing integer field %S" key
  | Some (Json.Int i) -> Ok i
  | Some _ -> bad "field %S must be an integer" key

let opt_int_field kvs key =
  match field kvs key with
  | None -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> bad "field %S must be an integer" key

let opt_bool_field kvs key ~default =
  match field kvs key with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> bad "field %S must be a boolean" key

let string_field kvs key =
  match field kvs key with
  | None -> bad "missing string field %S" key
  | Some (Json.String s) -> Ok s
  | Some _ -> bad "field %S must be a string" key

let opt_string_field kvs key =
  match field kvs key with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> bad "field %S must be a string" key

let platform_of_text text =
  match Parse.of_string text with
  | Ok platform -> Ok platform
  | Error msg -> Error (error Invalid_platform ("platform: " ^ msg))

let platform_field kvs =
  let* text = string_field kvs "platform" in
  platform_of_text text

let problem_of_fields kvs =
  let* platform = platform_field kvs in
  let* tasks = opt_int_field kvs "tasks" in
  let* deadline = opt_int_field kvs "deadline" in
  Ok { Solve.platform; tasks; deadline }

(* A batch frame's memo, per platform text: its decoding and the problems
   already built on it, by objective.  A text is parsed once, and elements
   equal in (text, tasks, deadline) share one problem value. *)
type memo_entry = {
  decoded : (Parse.platform, error) result;
  problems : (int option * int option, Solve.problem) Hashtbl.t;
}

let memo_problem memo kvs =
  let* text = string_field kvs "platform" in
  let entry =
    match Hashtbl.find_opt memo text with
    | Some entry -> entry
    | None ->
        let entry =
          { decoded = platform_of_text text; problems = Hashtbl.create 4 }
        in
        Hashtbl.add memo text entry;
        entry
  in
  let* platform = entry.decoded in
  let* tasks = opt_int_field kvs "tasks" in
  let* deadline = opt_int_field kvs "deadline" in
  match Hashtbl.find_opt entry.problems (tasks, deadline) with
  | Some problem -> Ok problem
  | None ->
      let problem = { Solve.platform; tasks; deadline } in
      Hashtbl.add entry.problems (tasks, deadline) problem;
      Ok problem

let decode_op kvs name =
  match name with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "schedule" ->
      let* p = problem_of_fields kvs in
      Ok (Schedule p)
  | "deadline" ->
      let* p = problem_of_fields kvs in
      Ok (Deadline p)
  | "metrics" -> (
      (* Two ops share the wire name: with a platform this is the solve
         metrics of a plan; without one it is the control op dumping the
         daemon's live telemetry.  Unambiguous because the solve form
         always requires "platform". *)
      match field kvs "platform" with
      | None -> Ok Metrics_dump
      | Some _ ->
          let* p = problem_of_fields kvs in
          Ok (Metrics p))
  | "batch" -> (
      match field kvs "problems" with
      | Some (Json.List items) ->
          let memo = Hashtbl.create 16 in
          let rec decode acc = function
            | [] -> Ok (Batch (Array.of_list (List.rev acc)))
            | Json.Obj item :: rest ->
                let* p = memo_problem memo item in
                decode (p :: acc) rest
            | _ -> bad "every element of \"problems\" must be an object"
          in
          decode [] items
      | Some _ -> bad "field \"problems\" must be a list"
      | None -> bad "missing list field \"problems\"")
  | "report" ->
      let* problem = problem_of_fields kvs in
      let* planned = opt_bool_field kvs "planned" ~default:false in
      Ok (Report { problem; planned })
  | "check" ->
      let* problem = problem_of_fields kvs in
      let* trace = opt_bool_field kvs "traced" ~default:false in
      let* seed = opt_int_field kvs "seed" in
      let* events = opt_int_field kvs "events" in
      Ok
        (Check
           {
             problem;
             trace;
             seed = Option.value seed ~default:0;
             events = Option.value events ~default:3;
           })
  | "profile" ->
      let* platform = platform_field kvs in
      let* tasks = int_field kvs "tasks" in
      let* deadline = opt_int_field kvs "deadline" in
      let* workload_name =
        match field kvs "workload" with
        | None -> Ok "execute"
        | Some (Json.String s) -> Ok s
        | Some _ -> bad "field \"workload\" must be a string"
      in
      let* workload =
        match workload_of_string workload_name with
        | Some w -> Ok w
        | None -> bad "unknown workload %S" workload_name
      in
      let* seed = opt_int_field kvs "seed" in
      let* events = opt_int_field kvs "events" in
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
      let* platform = platform_field kvs in
      let* deadline = int_field kvs "deadline" in
      let* capacity = opt_int_field kvs "capacity" in
      Ok
        (Online_open
           { platform; deadline; capacity = Option.value capacity ~default:0 })
  | "online-submit" ->
      let* session = int_field kvs "session" in
      let* tasks = int_field kvs "tasks" in
      Ok (Online_submit { session; tasks })
  | "online-advance" ->
      let* session = int_field kvs "session" in
      let* time = int_field kvs "time" in
      Ok (Online_advance { session; time })
  | "online-extend" ->
      let* session = int_field kvs "session" in
      let* deadline = int_field kvs "deadline" in
      Ok (Online_extend { session; deadline })
  | "online-degrade" ->
      let* session = int_field kvs "session" in
      let* at = int_field kvs "at" in
      let* work_factor = int_field kvs "work_factor" in
      Ok (Online_degrade { session; at; work_factor })
  | "online-plan" ->
      let* session = int_field kvs "session" in
      Ok (Online_plan { session })
  | "online-close" ->
      let* session = int_field kvs "session" in
      Ok (Online_close { session })
  | other -> bad "unknown op %S" other

let decode_envelope json =
  match json with
  | Json.Obj kvs -> (
      let* () =
        match field kvs "v" with
        | None -> Ok () (* absent = current version *)
        | Some (Json.Int v) when v = version -> Ok ()
        | Some (Json.Int v) ->
            Error
              (error Unsupported_version
                 (Printf.sprintf "protocol version %d not supported (this is version %d)"
                    v version))
        | Some _ -> bad "field \"v\" must be an integer"
      in
      let* id = opt_int_field kvs "id" in
      Ok (kvs, id))
  | _ -> bad "frame must be a JSON object"

let decode_request json =
  let* kvs, id = decode_envelope json in
  let* trace = opt_string_field kvs "trace" in
  let* name = string_field kvs "op" in
  let* op = decode_op kvs name in
  Ok { id; trace; op }

let parse_line line =
  match Json.parse line with
  | Ok json -> Ok json
  | Error msg -> bad "malformed frame: %s" msg

let request_of_line line =
  let* json = parse_line line in
  decode_request json

(* Best-effort correlation of a frame that did not decode. *)
let envelope_id = function
  | Json.Obj kvs -> (
      match field kvs "id" with Some (Json.Int i) -> Some i | _ -> None)
  | _ -> None

let envelope_trace = function
  | Json.Obj kvs -> (
      match field kvs "trace" with Some (Json.String s) -> Some s | _ -> None)
  | _ -> None

let request_or_rejection line : (request, response) result =
  match parse_line line with
  | Error e -> Error { id = None; trace = None; result = Error e }
  | Ok json -> (
      match decode_request json with
      | Ok request -> Ok request
      | Error e ->
          Error
            { id = envelope_id json; trace = envelope_trace json; result = Error e })

(* ---------- the reply trees ---------- *)

(* The tree encoders the library printed [Solved] and [Batched] payloads
   and the response envelope with before it wrote them straight to
   bytes: [json_of_plan], the [Batched] arm of [json_of_reply] and
   [encode_response], kept unchanged.  test_api.ml holds the one payload
   writer and the one envelope writer to them byte for byte; the other
   reply kinds are still encoded by [Api.json_of_reply]'s tree. *)

module Plan = Msts.Plan
module Schedule = Msts.Schedule
module Spider_schedule = Msts.Spider_schedule
module Spider = Msts.Spider
module Batch = Msts.Batch

let json_of_plan ?(extra = []) plan =
  let open Json in
  let comms_json comms = List (Array.to_list (Array.map (fun c -> Int c) comms)) in
  let entries =
    match plan with
    | Plan.Chain sched ->
        Array.to_list (Schedule_reference.chain_rows sched)
        |> List.mapi (fun idx (e : Schedule_reference.Schedule.entry) ->
               Obj
                 [
                   ("task", Int (idx + 1));
                   ("proc", Int e.proc);
                   ("start", Int e.start);
                   ("comms", comms_json e.comms);
                 ])
    | Plan.Spider sched ->
        Array.to_list (Schedule_reference.spider_rows sched)
        |> List.mapi (fun idx (e : Schedule_reference.Spider_schedule.entry) ->
               Obj
                 [
                   ("task", Int (idx + 1));
                   ("leg", Int e.address.Spider.leg);
                   ("depth", Int e.address.Spider.depth);
                   ("start", Int e.start);
                   ("comms", comms_json e.comms);
                 ])
  in
  Obj
    (extra
    @ [
        ( "kind",
          String
            (match plan with Plan.Chain _ -> "chain" | Plan.Spider _ -> "spider")
        );
        ("tasks", Int (Plan.task_count plan));
        ("makespan", Int (Plan.makespan plan));
        ("entries", List entries);
      ])

let platform_kind = function
  | Parse.Chain_platform _ -> "chain"
  | Parse.Fork_platform _ -> "fork"
  | Parse.Spider_platform _ -> "spider"
  | Parse.Tree_platform _ -> "tree"

let json_of_reply = function
  | Solved { plan; deadline } ->
      let extra =
        match deadline with
        | None -> []
        | Some d -> [ ("deadline", Json.Int d) ]
      in
      json_of_plan ~extra plan
  | Batched { problems; outcomes; stats; cache_capacity; _ } ->
      let result i outcome =
        let open Json in
        let kind = platform_kind problems.(i).Solve.platform in
        match outcome with
        | Ok plan ->
            Obj
              [
                ("instance", Int (i + 1));
                ("kind", String kind);
                ("tasks", Int (Plan.task_count plan));
                ("makespan", Int (Plan.makespan plan));
              ]
        | Error msg ->
            Obj
              [ ("instance", Int (i + 1)); ("kind", String kind); ("error", String msg) ]
      in
      Json.Obj
        [
          ("instances", Json.Int stats.Batch.requests);
          ( "cache",
            Json.Obj
              [
                ("capacity", Json.Int cache_capacity);
                ("hits", Json.Int stats.Batch.cache_hits);
                ("misses", Json.Int stats.Batch.cache_misses);
              ] );
          ("results", Json.List (Array.to_list (Array.mapi result outcomes)));
        ]
  | reply -> Api.json_of_reply reply

let encode_response { id; trace; result } =
  Json.Obj
    (("v", Json.Int version)
    :: (match id with None -> [] | Some i -> [ ("id", Json.Int i) ])
    @ (match trace with None -> [] | Some s -> [ ("trace", Json.String s) ])
    @ [
        (match result with
        | Ok payload -> ("ok", payload)
        | Error { code; message } ->
            ( "error",
              Json.Obj
                [
                  ("code", Json.String (error_code_to_string code));
                  ("message", Json.String message);
                ] ));
      ])

let response_to_line r = Json.to_string (encode_response r) ^ "\n"
