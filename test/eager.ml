(* Eager execution of a destination sequence on the event-driven executor:
   a plan whose dates are all 0, replayed with its routing and emission
   order kept, runs every task as early as the one-port rule allows.  The
   tests compare it with the analytic ASAP timing of [Msts.Asap] on
   [Tree.of_spider]. *)

let spider_schedule spider seq =
  let n = Array.length seq in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun i a -> offsets.(i + 1) <- offsets.(i) + a.Msts.Spider.depth) seq;
  (Msts.Netsim.replay_routing
     (Msts.Spider_schedule.of_columns spider
        ~legs:(Array.map (fun a -> a.Msts.Spider.leg) seq)
        ~starts:(Array.make n 0) ~offsets ~emissions:(Array.make offsets.(n) 0)))
    .Msts.Netsim.realized

let chain_schedule chain seq =
  Msts.Spider_schedule.leg_schedule
    (spider_schedule (Msts.Spider.of_chain chain)
       (Array.map (fun depth -> { Msts.Spider.leg = 1; depth }) seq))
    1
