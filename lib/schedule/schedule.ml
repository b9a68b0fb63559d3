module Chain = Msts_platform.Chain

type entry = { proc : int; start : int; comms : Comm_vector.t }

type t = { chain : Chain.t; cols : Columns.t }

(* Task [task] on processor [proc] with a vector of [width] dates; in
   the columns the width is the processor. *)
let check_row ~who chain ~task ~proc ~width =
  let p = Chain.length chain in
  if proc < 1 || proc > p then
    invalid_arg (Printf.sprintf "%s: task %d on processor %d outside 1..%d" who task proc p);
  if width <> proc then
    invalid_arg
      (Printf.sprintf "%s: task %d has %d communications for processor %d" who task width
         proc)

let of_columns chain ~starts ~offsets ~emissions =
  let who = "Schedule.of_columns" in
  let cols = Columns.make ~who ~legs:[||] ~starts ~offsets ~emissions in
  for idx = 0 to Columns.length cols - 1 do
    let proc = Columns.depth cols idx in
    check_row ~who chain ~task:(idx + 1) ~proc ~width:proc
  done;
  { chain; cols }

(* The rows' processors and vector lengths must agree: the columns keep
   only the vectors. *)
let make chain entries =
  Array.iteri
    (fun idx e ->
      check_row ~who:"Schedule.make" chain ~task:(idx + 1) ~proc:e.proc
        ~width:(Array.length e.comms))
    entries;
  {
    chain;
    cols =
      Columns.of_vectors ~legs:[||]
        ~starts:(Array.map (fun e -> e.start) entries)
        (Array.map (fun e -> e.comms) entries);
  }

let chain t = t.chain
let columns t = t.cols

let task_count t = Columns.length t.cols

(* The accessors below are inlined into their callers' loops; the
   failure path is not. *)
let[@inline never] no_task t i name =
  invalid_arg (Printf.sprintf "Schedule.%s: task %d outside 1..%d" name i (task_count t))

let[@inline] check_task t i name = if i < 1 || i > task_count t then no_task t i name

let[@inline] proc t i =
  check_task t i "proc";
  Columns.depth t.cols (i - 1)

let[@inline] start t i =
  check_task t i "start";
  t.cols.starts.(i - 1)

let[@inline] emission t i k =
  check_task t i "emission";
  Columns.emission ~who:"Schedule.emission" t.cols (i - 1) k

let entry t i =
  check_task t i "entry";
  {
    proc = Columns.depth t.cols (i - 1);
    start = t.cols.starts.(i - 1);
    comms = Columns.comms t.cols (i - 1);
  }

let entries t = Array.init (task_count t) (fun idx -> entry t (idx + 1))

(* A loop, not a fold: a closure over [t] would cost words per call. *)
let makespan t =
  let m = ref 0 and c = t.cols in
  for i = 0 to Columns.length c - 1 do
    let finish = c.starts.(i) + Chain.work t.chain (Columns.depth c i) in
    if finish > !m then m := finish
  done;
  !m

let normalise t =
  if task_count t = 0 then t
  else begin
    let first = ref max_int in
    for i = 0 to task_count t - 1 do
      first := min !first t.cols.emissions.(t.cols.offsets.(i))
    done;
    { t with cols = Columns.shift t.cols ~delta:(- !first) }
  end

let tasks_on t k =
  let with_start =
    List.filter_map
      (fun idx ->
        if Columns.depth t.cols idx = k then Some (t.cols.starts.(idx), idx + 1) else None)
      (List.init (task_count t) Fun.id)
  in
  List.map snd (List.sort compare with_start)

let restrict_beyond_first t =
  let sub_chain = Chain.drop_first t.chain in
  let kept = Columns.filter t.cols ~keep:(fun i -> Columns.depth t.cols (i - 1) >= 2) in
  {
    chain = sub_chain;
    cols =
      Columns.of_vectors ~legs:[||] ~starts:kept.starts
        (Array.init (Columns.length kept) (fun idx ->
             Array.sub kept.emissions (kept.offsets.(idx) + 1) (Columns.depth kept idx - 1)));
  }

let equal a b = Chain.equal a.chain b.chain && Columns.equal a.cols b.cols

let equal_modulo_shift a b = equal (normalise a) (normalise b)

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule on %a (makespan %d):@," Chain.pp t.chain
    (makespan t);
  for idx = 0 to task_count t - 1 do
    Format.fprintf ppf "  task %d -> P%d, start %d, comms %a@," (idx + 1)
      (Columns.depth t.cols idx) t.cols.starts.(idx) Comm_vector.pp (Columns.comms t.cols idx)
  done;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
