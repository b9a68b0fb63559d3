module Spider = Msts_platform.Spider
module Metrics = Msts_schedule.Metrics
module Json = Msts_obs.Json

type t = Metrics.t

let of_execution (report : Netsim.execution_report) =
  Metrics.of_spider_schedule report.Netsim.realized

let pct t busy = 100.0 *. Metrics.fraction t busy

let summary (t : t) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "tasks: %d, makespan: %d\n" t.tasks t.makespan;
  Printf.bprintf buf "master port: busy %d/%d (%5.1f%%)\n" t.port_busy t.makespan
    (pct t t.port_busy);
  Array.iter
    (fun (v : Metrics.node) ->
      let { Spider.leg; depth } = v.address in
      if depth = 1 then Printf.bprintf buf "leg %d:\n" leg;
      Printf.bprintf buf
        "  depth %-2d  link busy %-4d (%5.1f%%)  compute %-4d (%5.1f%%)  \
         starved %-4d idle %-4d  tasks %d\n"
        depth v.link_busy (pct t v.link_busy) v.compute (pct t v.compute) v.starved
        v.idle v.tasks)
    t.nodes;
  Buffer.contents buf

let json_pct t busy = Json.Float (Float.round (1000.0 *. Metrics.fraction t busy) /. 10.0)

let to_json (t : t) =
  let legs = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    let v = t.nodes.(i) in
    let node =
      Json.Obj
        [
          ("depth", Json.Int v.address.depth);
          ("link_busy", Json.Int v.link_busy);
          ("link_busy_pct", json_pct t v.link_busy);
          ("tasks", Json.Int v.tasks);
          ("compute", Json.Int v.compute);
          ("starved", Json.Int v.starved);
          ("idle", Json.Int v.idle);
          ("cpu_busy_pct", json_pct t v.compute);
        ]
    in
    match !legs with
    | (l, nodes) :: rest when l = v.address.leg -> legs := (l, node :: nodes) :: rest
    | _ -> legs := (v.address.leg, [ node ]) :: !legs
  done;
  Json.Obj
    [
      ("tasks", Json.Int t.tasks);
      ("makespan", Json.Int t.makespan);
      ( "master_port",
        Json.Obj [ ("busy", Json.Int t.port_busy); ("busy_pct", json_pct t t.port_busy) ] );
      ( "legs",
        Json.List
          (List.map
             (fun (l, nodes) ->
               Json.Obj [ ("leg", Json.Int l); ("nodes", Json.List nodes) ])
             !legs) );
    ]
