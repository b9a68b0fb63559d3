module Intervals = Msts_schedule.Intervals

type entry = { node : int; start : int; comms : int array }

type t = { flat : Flat.t; entries : entry array }

let make flat entries =
  Array.iteri
    (fun idx e ->
      let task = idx + 1 in
      if e.node < 1 || e.node > Flat.node_count flat then
        invalid_arg (Printf.sprintf "Tree_schedule.make: task %d on node %d" task e.node);
      let path = (Flat.info flat e.node).Flat.path in
      if Array.length e.comms <> List.length path then
        invalid_arg
          (Printf.sprintf "Tree_schedule.make: task %d comm vector length" task))
    entries;
  { flat; entries = Array.copy entries }

let flat t = t.flat

let task_count t = Array.length t.entries

let entries t = Array.copy t.entries

let makespan t =
  Array.fold_left
    (fun acc e -> max acc (e.start + (Flat.info t.flat e.node).Flat.work))
    0 t.entries

(* Flat numbers the nodes of [Tree.of_spider spider] in preorder, which is
   the order of [Spider.addresses spider]: node k is the k-th address. *)
let to_spider spider t =
  let addresses = Array.of_list (Msts_platform.Spider.addresses spider) in
  if Array.length addresses <> Flat.node_count t.flat then
    invalid_arg "Tree_schedule.to_spider: the tree is not this spider's";
  let n = task_count t in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length t.entries.(i).comms
  done;
  let emissions = Array.make offsets.(n) 0 in
  Array.iteri
    (fun i e -> Array.blit e.comms 0 emissions offsets.(i) (Array.length e.comms))
    t.entries;
  Msts_schedule.Spider_schedule.of_columns spider
    ~legs:(Array.map (fun e -> addresses.(e.node - 1).Msts_platform.Spider.leg) t.entries)
    ~starts:(Array.map (fun e -> e.start) t.entries)
    ~offsets ~emissions

let tasks_on t node =
  let keyed =
    List.filter_map
      (fun idx ->
        let e = t.entries.(idx) in
        if e.node = node then Some (e.start, idx + 1) else None)
      (List.init (task_count t) Fun.id)
  in
  List.map snd (List.sort compare keyed)

(* The hop leaving [sender] towards a task's destination, if the task's
   path goes through [sender]'s port. *)
let hop_through flat (e : entry) ~sender =
  let path = (Flat.info flat e.node).Flat.path in
  let rec scan hop_index prev = function
    | [] -> None
    | next :: rest ->
        if prev = sender then Some (hop_index, next)
        else scan (hop_index + 1) next rest
  in
  scan 0 0 path

let out_port_intervals t sender =
  List.filter_map
    (fun idx ->
      let e = t.entries.(idx) in
      match hop_through t.flat e ~sender with
      | None -> None
      | Some (hop_index, next) ->
          Some
            {
              Intervals.start = e.comms.(hop_index);
              duration = (Flat.info t.flat next).Flat.latency;
              tag = idx + 1;
            })
    (List.init (task_count t) Fun.id)

let check ?(require_nonnegative = false) t =
  let flat = t.flat in
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* per-task: store-and-forward order and reception-before-start *)
  Array.iteri
    (fun idx e ->
      let task = idx + 1 in
      let path = (Flat.info flat e.node).Flat.path in
      let rec walk hop_index = function
        | [] -> ()
        | node_id :: rest ->
            let c = (Flat.info flat node_id).Flat.latency in
            let emitted = e.comms.(hop_index) in
            if require_nonnegative && emitted < 0 then
              report "task %d has a negative date" task;
            (match rest with
            | next :: _ ->
                ignore next;
                if e.comms.(hop_index + 1) < emitted + c then
                  report "task %d re-emitted by node %d before reception" task
                    node_id
            | [] ->
                if e.start < emitted + c then
                  report "task %d starts before it is received" task);
            walk (hop_index + 1) rest
      in
      walk 0 path)
    t.entries;
  (* one-port per sender *)
  List.iter
    (fun sender ->
      match Intervals.overlap_witness (out_port_intervals t sender) with
      | Some (a, b) ->
          report "node %d sends tasks %d and %d simultaneously" sender
            a.Intervals.tag b.Intervals.tag
      | None -> ())
    (0 :: List.map (fun n -> n.Flat.id) (Flat.nodes flat));
  (* one task at a time per processor *)
  List.iter
    (fun n ->
      let node = n.Flat.id in
      let intervals =
        List.filter_map
          (fun idx ->
            let e = t.entries.(idx) in
            if e.node = node then
              Some { Intervals.start = e.start; duration = n.Flat.work; tag = idx + 1 }
            else None)
          (List.init (task_count t) Fun.id)
      in
      match Intervals.overlap_witness intervals with
      | Some (a, b) ->
          report "tasks %d and %d overlap on node %d" a.Intervals.tag
            b.Intervals.tag node
      | None -> ())
    (Flat.nodes flat);
  List.rev !problems

let is_feasible ?require_nonnegative t = check ?require_nonnegative t = []
