module Fork = Msts_platform.Fork
module Spider = Msts_platform.Spider
module Spider_schedule = Msts_schedule.Spider_schedule

let realise fork allocations =
  let spider = Spider.of_fork fork in
  let slave_free = Array.make (Fork.slave_count fork + 1) 0 in
  let entry_of { Allocator.node; emission; _ } =
    let slave = node.Expansion.slave in
    if slave < 1 || slave > Fork.slave_count fork then
      invalid_arg "Builder.realise: allocation for unknown slave";
    let arrival = emission + Fork.latency fork slave in
    let start = max arrival slave_free.(slave) in
    slave_free.(slave) <- start + Fork.work fork slave;
    {
      Spider_schedule.address = { Spider.leg = slave; depth = 1 };
      start;
      comms = [| emission |];
    }
  in
  (* Allocations come in emission order, so per-slave arrivals are sorted
     and the ASAP fold above is well-defined. *)
  Spider_schedule.make spider (Array.of_list (List.map entry_of allocations))

let schedule fork ~deadline ~budget =
  let nodes = Expansion.expand fork ~count:budget in
  realise fork (Allocator.allocate nodes ~deadline ~budget)
