module Chain = Msts_platform.Chain

type t = { chain : Chain.t; cols : Columns.t }

(* A task's processor is its vector's length, so checking it within the
   chain (at least 1) also orders the offsets. *)
let of_columns chain ~starts ~offsets ~emissions =
  let who = "Schedule.of_columns" in
  let cols = Columns.make ~who ~legs:[||] ~starts ~offsets ~emissions in
  let p = Chain.length chain in
  for idx = 0 to Columns.length cols - 1 do
    let proc = Columns.depth cols idx in
    if proc < 1 || proc > p then
      invalid_arg
        (Printf.sprintf "%s: task %d on processor %d outside 1..%d" who (idx + 1) proc p)
  done;
  { chain; cols }

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
  let kept = Columns.filter t.cols ~keep:(fun i -> Columns.depth t.cols (i - 1) >= 2) in
  let n = Columns.length kept in
  (* each kept vector loses its first date, C¹ *)
  let offsets = Array.mapi (fun j o -> o - j) kept.offsets in
  let emissions = Array.make offsets.(n) 0 in
  for j = 0 to n - 1 do
    Array.blit kept.emissions (kept.offsets.(j) + 1) emissions offsets.(j)
      (Columns.depth kept j - 1)
  done;
  of_columns (Chain.drop_first t.chain) ~starts:kept.starts ~offsets ~emissions

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
