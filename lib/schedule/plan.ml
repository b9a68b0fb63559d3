module Chain = Msts_platform.Chain
module Spider = Msts_platform.Spider

type t =
  | Chain of Schedule.t
  | Spider of Spider_schedule.t

let makespan = function
  | Chain s -> Schedule.makespan s
  | Spider s -> Spider_schedule.makespan s

let task_count = function
  | Chain s -> Schedule.task_count s
  | Spider s -> Spider_schedule.task_count s

let to_string = function
  | Chain s -> Schedule.to_string s
  | Spider s -> Spider_schedule.to_string s

let equal a b =
  match (a, b) with
  | Chain x, Chain y -> Schedule.equal x y
  | Spider x, Spider y -> Spider_schedule.equal x y
  | Chain _, Spider _ | Spider _, Chain _ -> false

let to_spider = function
  | Chain s -> Spider_schedule.of_chain_schedule s
  | Spider s -> s

(* On a one-leg spider the master port is link 1, so a chain's audit is
   the leg's: no "leg 1: " prefix and no port pass. *)
let check ?require_nonnegative = function
  | Chain _ as plan ->
      List.filter_map
        (fun (leg, msg) -> if leg = 0 then None else Some msg)
        (Spider_schedule.violations ?require_nonnegative (to_spider plan))
  | Spider s -> Spider_schedule.check ?require_nonnegative s

(* The chart rows {!gantt} and {!svg} draw, one per resource, in one pass
   over the tasks, last task first so that every lane lists its
   intervals in task order. *)
let lanes plan =
  let s = to_spider plan in
  let spider = Spider_schedule.spider s in
  (* per leg, per depth *)
  let per_node () =
    Array.init (Spider.legs spider) (fun l ->
        Array.make (Chain.length (Spider.leg_chain spider (l + 1))) [])
  in
  let links = per_node () and procs = per_node () and port = ref [] in
  for i = Spider_schedule.task_count s downto 1 do
    let leg = Spider_schedule.leg s i and depth = Spider_schedule.depth s i in
    let chain = Spider.leg_chain spider leg in
    port :=
      { Intervals.start = Spider_schedule.emission s i 1; duration = Chain.latency chain 1; tag = i }
      :: !port;
    for k = 1 to depth do
      links.(leg - 1).(k - 1) <-
        {
          Intervals.start = Spider_schedule.emission s i k;
          duration = Chain.latency chain k;
          tag = i;
        }
        :: links.(leg - 1).(k - 1)
    done;
    procs.(leg - 1).(depth - 1) <-
      { Intervals.start = Spider_schedule.start s i; duration = Chain.work chain depth; tag = i }
      :: procs.(leg - 1).(depth - 1)
  done;
  let label =
    match plan with
    | Chain _ -> fun _ resource k -> Printf.sprintf "%s %d" resource k
    | Spider _ -> Printf.sprintf "leg %d %s %d"
  in
  let nodes =
    List.concat_map
      (fun { Spider.leg; depth } ->
        [
          { Intervals.label = label leg "link" depth; intervals = links.(leg - 1).(depth - 1) };
          { Intervals.label = label leg "proc" depth; intervals = procs.(leg - 1).(depth - 1) };
        ])
      (Spider.addresses spider)
  in
  match plan with
  | Chain _ -> nodes
  | Spider _ -> { Intervals.label = "master port"; intervals = !port } :: nodes

let gantt ?width plan = Gantt.render ?width ~horizon:(makespan plan) (lanes plan)

let svg plan = Svg.render ~horizon:(makespan plan) (lanes plan)

let serialize = function
  | Chain s -> Serial.schedule_to_string s
  | Spider s -> Serial.spider_schedule_to_string s

let to_csv = function
  | Chain s -> Serial.schedule_to_csv s
  | Spider s -> Serial.spider_schedule_to_csv s
