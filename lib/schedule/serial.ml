(* A task's emission vector, read from the columns. *)
let vector emission sched i ~depth = List.init depth (fun k -> emission sched i (k + 1))

(* The header, then one "task ..." line of [row i]'s ints per task. *)
let lines header n row =
  String.concat "\n"
    (header
    :: List.init n (fun idx ->
           "task " ^ String.concat " " (List.map string_of_int (row (idx + 1)))))
  ^ "\n"

let schedule_to_string s =
  lines "chain-schedule" (Schedule.task_count s) (fun i ->
      let proc = Schedule.proc s i in
      proc :: Schedule.start s i :: vector Schedule.emission s i ~depth:proc)

let spider_schedule_to_string s =
  lines "spider-schedule" (Spider_schedule.task_count s) (fun i ->
      let depth = Spider_schedule.depth s i in
      Spider_schedule.leg s i :: depth :: Spider_schedule.start s i
      :: vector Spider_schedule.emission s i ~depth)

let emissions_cell ints = String.concat ";" (List.map string_of_int ints)

let schedule_to_csv sched =
  let chain = Schedule.chain sched in
  let table =
    Msts_util.Table.create ~title:"schedule"
      ~columns:[ "task"; "processor"; "start"; "completion"; "emissions" ]
  in
  for i = 1 to Schedule.task_count sched do
    let proc = Schedule.proc sched i and start = Schedule.start sched i in
    Msts_util.Table.add_row table
      [
        string_of_int i;
        string_of_int proc;
        string_of_int start;
        string_of_int (start + Msts_platform.Chain.work chain proc);
        emissions_cell (vector Schedule.emission sched i ~depth:proc);
      ]
  done;
  Msts_util.Table.to_csv table

let spider_schedule_to_csv sched =
  let spider = Spider_schedule.spider sched in
  let table =
    Msts_util.Table.create ~title:"schedule"
      ~columns:[ "task"; "leg"; "depth"; "start"; "completion"; "emissions" ]
  in
  for i = 1 to Spider_schedule.task_count sched do
    let leg = Spider_schedule.leg sched i and depth = Spider_schedule.depth sched i in
    let start = Spider_schedule.start sched i in
    Msts_util.Table.add_row table
      [
        string_of_int i;
        string_of_int leg;
        string_of_int depth;
        string_of_int start;
        string_of_int (start + Msts_platform.Spider.work spider { leg; depth });
        emissions_cell (vector Spider_schedule.emission sched i ~depth);
      ]
  done;
  Msts_util.Table.to_csv table

let meaningful_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) ->
         line <> "" && not (String.length line > 0 && line.[0] = '#'))

let parse_task_line (lineno, line) =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | "task" :: fields -> (
      let ints = List.map int_of_string_opt fields in
      if List.exists Option.is_none ints then
        Error (Printf.sprintf "line %d: non-integer field" lineno)
      else Ok (List.map Option.get ints))
  | _ -> Error (Printf.sprintf "line %d: expected 'task ...'" lineno)

(* The task lines after [header], each read by [fields]. *)
let parse_body ~header ~fields lines =
  match lines with
  | [] -> Error "empty schedule description"
  | (lineno, first) :: rest ->
      if first <> header then
        Error (Printf.sprintf "line %d: expected %S header" lineno header)
      else begin
        let rec loop acc = function
          | [] -> Ok (List.rev acc)
          | task_line :: more -> (
              match parse_task_line task_line with
              | Error e -> Error e
              | Ok ints -> (
                  match fields (fst task_line) ints with
                  | Error e -> Error e
                  | Ok task -> loop (task :: acc) more))
        in
        loop [] rest
      end

(* The tasks' start dates and vectors as columns. *)
let columns tasks =
  let vectors = Array.of_list (List.map (fun (_, comms) -> Array.of_list comms) tasks) in
  let offsets = Array.make (Array.length vectors + 1) 0 in
  Array.iteri (fun j v -> offsets.(j + 1) <- offsets.(j) + Array.length v) vectors;
  (Array.of_list (List.map fst tasks), offsets, Array.concat (Array.to_list vectors))

(* The parse errors [msts validate] prints name the row constructor plans
   were once parsed through: the validating constructor's refusal is
   spelled under that name. *)
let refused ~who ~was build =
  match build () with
  | sched -> Ok sched
  | exception Invalid_argument msg when String.starts_with ~prefix:who msg ->
      let k = String.length who in
      Error (was ^ String.sub msg k (String.length msg - k))
  | exception Invalid_argument msg -> Error msg

let schedule_of_string chain text =
  let fields lineno = function
    | proc :: start :: comms when List.length comms = proc -> Ok (start, comms)
    | _ -> Error (Printf.sprintf "line %d: malformed chain task" lineno)
  in
  match parse_body ~header:"chain-schedule" ~fields (meaningful_lines text) with
  | Error e -> Error e
  | Ok tasks ->
      let starts, offsets, emissions = columns tasks in
      refused ~who:"Schedule.of_columns" ~was:"Schedule.make" (fun () ->
          Schedule.of_columns chain ~starts ~offsets ~emissions)

let spider_schedule_of_string spider text =
  let fields lineno = function
    | leg :: depth :: start :: comms when List.length comms = depth -> Ok (leg, (start, comms))
    | _ -> Error (Printf.sprintf "line %d: malformed spider task" lineno)
  in
  match parse_body ~header:"spider-schedule" ~fields (meaningful_lines text) with
  | Error e -> Error e
  | Ok tasks ->
      let starts, offsets, emissions = columns (List.map snd tasks) in
      let legs = Array.of_list (List.map fst tasks) in
      refused ~who:"Spider_schedule.of_columns" ~was:"Spider_schedule.make" (fun () ->
          Spider_schedule.of_columns spider ~legs ~starts ~offsets ~emissions)
