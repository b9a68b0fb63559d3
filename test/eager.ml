(* Eager execution of a destination sequence on the event-driven executor:
   a plan whose dates are all 0, replayed with its routing and emission
   order kept, runs every task as early as the one-port rule allows.  The
   tests compare it with the analytic ASAP timing of [Msts.Asap] on
   [Tree.of_spider]. *)

let spider_schedule spider seq =
  let entry address =
    {
      Msts.Spider_schedule.address;
      start = 0;
      comms = Array.make address.Msts.Spider.depth 0;
    }
  in
  (Msts.Netsim.replay_routing
     (Msts.Spider_schedule.make spider (Array.map entry seq)))
    .Msts.Netsim.realized

let chain_schedule chain seq =
  Msts.Spider_schedule.leg_schedule
    (spider_schedule (Msts.Spider.of_chain chain)
       (Array.map (fun depth -> { Msts.Spider.leg = 1; depth }) seq))
    1
