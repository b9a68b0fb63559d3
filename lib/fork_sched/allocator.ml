type allocation = {
  node : Expansion.vnode;
  emission : int;
  position : int;
}

(* [accepted.(0 .. size − 1)] with transfers back-to-back from time 0. *)
let emission_schedule accepted size =
  let rec build i emission acc =
    if i < 0 then acc
    else
      let node = accepted.(i) in
      let emission = emission - node.Expansion.comm in
      build (i - 1) emission ({ node; emission; position = i } :: acc)
  in
  let total = ref 0 in
  for i = 0 to size - 1 do
    total := !total + accepted.(i).Expansion.comm
  done;
  build (size - 1) !total []

let allocate candidates ~deadline ~budget =
  if deadline < 0 then invalid_arg "Allocator.allocate: negative deadline";
  if budget < 0 then invalid_arg "Allocator.allocate: negative budget";
  Msts_obs.Obs.span "fork.allocate" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let total = List.length candidates in
  Msts_obs.Obs.count ~n:total "fork.nodes_considered";
  (* Accepted nodes kept sorted by non-increasing [work]; ties keep
     insertion order.  At most [budget] are ever accepted. *)
  let accepted =
    Array.make (min budget total)
      { Expansion.slave = 0; rank = 0; comm = 0; work = 0 }
  in
  let size = ref 0 in
  (* Insert [candidate] if feasible: it lands after every node with
     greater or equal work; its own transfer must end early enough, and
     every node pushed later by its comm time must still fit. *)
  let try_insert (candidate : Expansion.vnode) =
    let pos = ref 0 and prefix = ref 0 in
    while !pos < !size && accepted.(!pos).Expansion.work >= candidate.work do
      prefix := !prefix + accepted.(!pos).Expansion.comm;
      incr pos
    done;
    let finish = ref (!prefix + candidate.comm) in
    let fits = ref (!finish + candidate.work <= deadline) in
    let k = ref !pos in
    while !fits && !k < !size do
      let node = accepted.(!k) in
      finish := !finish + node.Expansion.comm;
      fits := !finish + node.Expansion.work <= deadline;
      incr k
    done;
    if !fits then begin
      Array.blit accepted !pos accepted (!pos + 1) (!size - !pos);
      accepted.(!pos) <- candidate;
      incr size
    end
  in
  let probes = ref 0 in
  List.iter
    (fun candidate ->
      if !size < budget then begin
        incr probes;
        try_insert candidate
      end)
    (Expansion.allocation_order candidates);
  if !probes > 0 then Msts_obs.Obs.count ~n:!probes "fork.insert_probes";
  if !size > 0 then Msts_obs.Obs.count ~n:!size "fork.nodes_accepted";
  emission_schedule accepted !size

let max_tasks fork ~deadline ~budget =
  let nodes = Expansion.expand fork ~count:budget in
  List.length (allocate nodes ~deadline ~budget)

