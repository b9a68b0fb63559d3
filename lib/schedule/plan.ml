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

let check ?require_nonnegative = function
  | Chain s ->
      List.map Feasibility.violation_to_string
        (Feasibility.check ?require_nonnegative s)
  | Spider s -> Spider_schedule.check ?require_nonnegative s

let gantt ?width = function
  | Chain s -> Gantt.render ?width s
  | Spider s -> Gantt.render_spider ?width s

let svg = function
  | Chain s -> Svg.render s
  | Spider s -> Svg.render_spider s

let serialize = function
  | Chain s -> Serial.schedule_to_string s
  | Spider s -> Serial.spider_schedule_to_string s

let to_csv = function
  | Chain s -> Serial.schedule_to_csv s
  | Spider s -> Serial.spider_schedule_to_csv s
