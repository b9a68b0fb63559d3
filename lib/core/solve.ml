module Parse = Msts_platform.Parse
module Spider = Msts_platform.Spider
module Tree = Msts_platform.Tree
module Plan = Msts_schedule.Plan
module Obs = Msts_obs.Obs

type problem = Msts_pool.Batch.request = {
  platform : Parse.platform;
  tasks : int option;
  deadline : int option;
}

let problem ?tasks ?deadline platform = { platform; tasks; deadline }

let as_spider = function
  | Parse.Chain_platform chain -> Ok (Spider.of_chain chain)
  | Parse.Fork_platform fork -> Ok (Spider.of_fork fork)
  | Parse.Spider_platform spider -> Ok spider
  | Parse.Tree_platform tree -> (
      match Tree.to_spider tree with
      | Some spider -> Ok spider
      | None ->
          Error
            "this tree branches below the master; use the tree cover \
             heuristics instead")

let solve { platform; tasks; deadline } =
  match (tasks, deadline) with
  | None, None -> Error "nothing to solve: set a task count or a deadline"
  | Some n, _ when n < 0 -> Error "negative task count"
  | _, Some d when d < 0 -> Error "negative deadline"
  | _ -> (
      Obs.span "solve" @@ fun () ->
      match platform with
      | Parse.Chain_platform chain ->
          Ok
            (Plan.Chain
               (match (tasks, deadline) with
               | Some n, None -> Msts_chain.Algorithm.schedule chain n
               | None, Some d -> Msts_chain.Deadline.schedule chain ~deadline:d
               | Some n, Some d ->
                   Msts_chain.Deadline.schedule ~max_tasks:n chain ~deadline:d
               | None, None -> assert false))
      | platform -> (
          match as_spider platform with
          | Error msg -> Error msg
          | Ok spider ->
              Ok
                (Plan.Spider
                   (match (tasks, deadline) with
                   | Some n, None -> Msts_spider.Algorithm.schedule_tasks spider n
                   | None, Some d -> Msts_spider.Algorithm.schedule spider ~deadline:d
                   | Some n, Some d ->
                       Msts_spider.Algorithm.schedule ~budget:n spider ~deadline:d
                   | None, None -> assert false))))

let solve_exn p =
  match solve p with
  | Ok plan -> plan
  | Error msg -> invalid_arg ("Solve.solve: " ^ msg)

let solve_batch ?pool ?jobs ?cache problems =
  fst (Msts_pool.Batch.run ?pool ?jobs ?cache ~solve problems)
