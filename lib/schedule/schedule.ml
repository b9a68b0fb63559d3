module Chain = Msts_platform.Chain

type entry = { proc : int; start : int; comms : Comm_vector.t }

type t = { chain : Chain.t; entries : entry array }

let make chain entries =
  let p = Chain.length chain in
  Array.iteri
    (fun idx e ->
      let task = idx + 1 in
      if e.proc < 1 || e.proc > p then
        invalid_arg
          (Printf.sprintf "Schedule.make: task %d on processor %d outside 1..%d"
             task e.proc p);
      if Array.length e.comms <> e.proc then
        invalid_arg
          (Printf.sprintf
             "Schedule.make: task %d has %d communications for processor %d"
             task (Array.length e.comms) e.proc))
    entries;
  { chain; entries = Array.copy entries }

let chain t = t.chain

let task_count t = Array.length t.entries

let entry t i =
  if i < 1 || i > task_count t then
    invalid_arg
      (Printf.sprintf "Schedule.entry: task %d outside 1..%d" i (task_count t));
  t.entries.(i - 1)

let entries t = Array.copy t.entries

(* A loop, not a fold: a closure over [t] would cost words per call. *)
let makespan t =
  let m = ref 0 in
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) in
    let finish = e.start + Chain.work t.chain e.proc in
    if finish > !m then m := finish
  done;
  !m

let start_time t =
  Array.fold_left
    (fun acc e -> min acc (Comm_vector.first_emission e.comms))
    max_int t.entries

let shift d t =
  let move e =
    { e with start = e.start - d; comms = Comm_vector.shift d e.comms }
  in
  { t with entries = Array.map move t.entries }

let normalise t = if task_count t = 0 then t else shift (start_time t) t

let tasks_on t k =
  let with_start =
    List.filter_map
      (fun idx ->
        let e = t.entries.(idx) in
        if e.proc = k then Some (e.start, idx + 1) else None)
      (List.init (task_count t) Fun.id)
  in
  List.map snd (List.sort compare with_start)

let restrict_beyond_first t =
  let sub_chain = Chain.drop_first t.chain in
  let entries =
    Array.of_list
      (List.filter_map
         (fun e ->
           if e.proc >= 2 then
             Some
               {
                 proc = e.proc - 1;
                 start = e.start;
                 comms = Array.sub e.comms 1 (e.proc - 1);
               }
           else None)
         (Array.to_list t.entries))
  in
  make sub_chain entries

let equal a b =
  Chain.equal a.chain b.chain
  && task_count a = task_count b
  && Array.for_all2
       (fun x y -> x.proc = y.proc && x.start = y.start && x.comms = y.comms)
       a.entries b.entries

let equal_modulo_shift a b = equal (normalise a) (normalise b)

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule on %a (makespan %d):@," Chain.pp t.chain
    (makespan t);
  Array.iteri
    (fun idx e ->
      Format.fprintf ppf "  task %d -> P%d, start %d, comms %a@," (idx + 1)
        e.proc e.start Comm_vector.pp e.comms)
    t.entries;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
