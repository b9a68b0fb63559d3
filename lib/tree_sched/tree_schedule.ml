module Intervals = Msts_schedule.Intervals
module Columns = Msts_schedule.Columns

(* The node column sits where a spider's leg column does. *)
type t = { flat : Flat.t; cols : Columns.t }

let of_columns flat ~nodes ~starts ~offsets ~emissions =
  let who = "Tree_schedule.of_columns" in
  if Array.length nodes <> Array.length starts then
    invalid_arg
      (Printf.sprintf "%s: %d nodes for %d starts" who (Array.length nodes)
         (Array.length starts));
  let cols = Columns.make ~who ~legs:nodes ~starts ~offsets ~emissions in
  for idx = 0 to Columns.length cols - 1 do
    let task = idx + 1 and node = nodes.(idx) in
    if node < 1 || node > Flat.node_count flat then
      invalid_arg (Printf.sprintf "%s: task %d on node %d" who task node);
    (* the path's length is at least 1, so this also orders the offsets *)
    if Columns.depth cols idx <> (Flat.info flat node).Flat.depth then
      invalid_arg (Printf.sprintf "%s: task %d comm vector length" who task)
  done;
  { flat; cols }

let flat t = t.flat

let task_count t = Columns.length t.cols

let node t i =
  if i < 1 || i > task_count t then
    invalid_arg (Printf.sprintf "Tree_schedule.node: task %d outside 1..%d" i (task_count t));
  t.cols.legs.(i - 1)

let makespan t =
  let m = ref 0 and c = t.cols in
  for i = 0 to Columns.length c - 1 do
    let finish = c.starts.(i) + (Flat.info t.flat c.legs.(i)).Flat.work in
    if finish > !m then m := finish
  done;
  !m

(* Flat numbers the nodes of [Tree.of_spider spider] in preorder, which is
   the order of [Spider.addresses spider]: node k is the k-th address, at
   the depth of its path, so only the node column is relabelled. *)
let to_spider spider t =
  let addresses = Array.of_list (Msts_platform.Spider.addresses spider) in
  if Array.length addresses <> Flat.node_count t.flat then
    invalid_arg "Tree_schedule.to_spider: the tree is not this spider's";
  let c = t.cols in
  Msts_schedule.Spider_schedule.of_columns spider
    ~legs:(Array.map (fun node -> addresses.(node - 1).Msts_platform.Spider.leg) c.legs)
    ~starts:c.starts ~offsets:c.offsets ~emissions:c.emissions

(* Tasks on [node], 1-based, in [key] order. *)
let on_node c node ~key =
  let keyed = ref [] in
  for idx = Columns.length c - 1 downto 0 do
    if c.Columns.legs.(idx) = node then keyed := (key idx, idx + 1) :: !keyed
  done;
  !keyed

let tasks_on t node =
  List.map snd (List.sort compare (on_node t.cols node ~key:(fun idx -> t.cols.starts.(idx))))

(* Hop [h] (0-based) of every task whose path leaves [sender]'s port, as
   the interval the port is busy for it. *)
let out_port_intervals t sender =
  let c = t.cols and out = ref [] in
  for idx = Columns.length c - 1 downto 0 do
    let rec scan h prev = function
      | [] -> ()
      | next :: rest ->
          if prev = sender then
            out :=
              {
                Intervals.start = c.emissions.(c.offsets.(idx) + h);
                duration = (Flat.info t.flat next).Flat.latency;
                tag = idx + 1;
              }
              :: !out
          else scan (h + 1) next rest
    in
    scan 0 0 (Flat.info t.flat c.legs.(idx)).Flat.path
  done;
  !out

let check ?(require_nonnegative = false) t =
  let flat = t.flat and c = t.cols in
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* per-task: store-and-forward order and reception-before-start *)
  for idx = 0 to Columns.length c - 1 do
    let task = idx + 1 and o = c.offsets.(idx) in
    let rec walk h = function
      | [] -> ()
      | node_id :: rest ->
          let latency = (Flat.info flat node_id).Flat.latency in
          let emitted = c.emissions.(o + h) in
          if require_nonnegative && emitted < 0 then
            report "task %d has a negative date" task;
          (match rest with
          | _ :: _ ->
              if c.emissions.(o + h + 1) < emitted + latency then
                report "task %d re-emitted by node %d before reception" task node_id
          | [] ->
              if c.starts.(idx) < emitted + latency then
                report "task %d starts before it is received" task);
          walk (h + 1) rest
    in
    walk 0 (Flat.info flat c.legs.(idx)).Flat.path
  done;
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
        List.map
          (fun (start, tag) -> { Intervals.start; duration = n.Flat.work; tag })
          (on_node c node ~key:(fun idx -> c.starts.(idx)))
      in
      match Intervals.overlap_witness intervals with
      | Some (a, b) ->
          report "tasks %d and %d overlap on node %d" a.Intervals.tag
            b.Intervals.tag node
      | None -> ())
    (Flat.nodes flat);
  List.rev !problems

let is_feasible ?require_nonnegative t = check ?require_nonnegative t = []
