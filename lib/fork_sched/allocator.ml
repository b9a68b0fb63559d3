(* One comm class at a time.  [acc.(0 .. size − 1)] holds the accepted
   candidates in emission order (non-increasing work, ties in arrival
   order); at a class boundary [prefix] and [slack] are rebuilt over it:
   [prefix.(k)] is the comm of [acc.(0 .. k − 1)] and [slack.(k)] what
   [acc.(k)] has left before the deadline.  Inside the class a candidate
   of work [w] lands after [acc.(0 .. q − 1)] (work ≥ w) and after the
   class's own accepted nodes of work [w] ([same] of them); everything
   else accepted is behind it, and [min_slack] is the least slack there.
   An accept pushes every node behind by [c], so [min_slack] drops by [c];
   a rise of [w] only adds nodes behind, with the slacks they had at the
   class start (previous classes) or at their accept (this class), since
   no accept so far landed in front of them. *)
let sweep ~comm ~work ~deadline ~budget =
  let total = Array.length comm in
  if Array.length work <> total then invalid_arg "Allocator.sweep: length mismatch";
  if deadline < 0 then invalid_arg "Allocator.sweep: negative deadline";
  if budget < 0 then invalid_arg "Allocator.sweep: negative budget";
  for i = 1 to total - 1 do
    if comm.(i - 1) > comm.(i) || (comm.(i - 1) = comm.(i) && work.(i - 1) > work.(i))
    then invalid_arg "Allocator.sweep: candidates out of (comm, work) order"
  done;
  Msts_obs.Obs.span "fork.allocate" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  Msts_obs.Obs.count ~n:total "fork.nodes_considered";
  let cap = min budget total in
  let acc = ref (Array.make cap 0) and spare = ref (Array.make cap 0) in
  let prefix = Array.make (cap + 1) 0 and slack = Array.make cap 0 in
  (* this class's accepts, in arrival (so non-decreasing work) order *)
  let mine = Array.make cap 0 and mine_slack = Array.make cap 0 in
  let size = ref 0 and i = ref 0 and probes = ref 0 in
  while !i < total && !size < budget do
    let c = comm.(!i) and acc_ = !acc and m = !size in
    for k = 0 to m - 1 do
      let node = acc_.(k) in
      prefix.(k + 1) <- prefix.(k) + comm.(node);
      slack.(k) <- deadline - prefix.(k + 1) - work.(node)
    done;
    let q = ref m and min_slack = ref max_int and mine_n = ref 0 in
    let joined = ref 0 and same = ref 0 and level = ref min_int in
    while !i < total && comm.(!i) = c && !size < budget do
      let w = work.(!i) in
      incr probes;
      if w > !level then begin
        while !q > 0 && work.(acc_.(!q - 1)) < w do
          decr q;
          if slack.(!q) < !min_slack then min_slack := slack.(!q)
        done;
        while !joined < !mine_n do
          if mine_slack.(!joined) < !min_slack then min_slack := mine_slack.(!joined);
          incr joined
        done;
        level := w;
        same := 0
      end;
      let finish = prefix.(!q) + (c * (!same + 1)) in
      if finish + w <= deadline && !min_slack >= c then begin
        if !min_slack < max_int then min_slack := !min_slack - c;
        mine.(!mine_n) <- !i;
        mine_slack.(!mine_n) <- deadline - finish - w;
        incr mine_n;
        incr same;
        incr size
      end;
      incr i
    done;
    (* Merge the class in: each of its equal-work runs, kept in arrival
       order, goes after the earlier nodes of equal or greater work. *)
    let out = !spare and next = ref 0 and from = ref 0 and run_end = ref !mine_n in
    while !run_end > 0 do
      let w = work.(mine.(!run_end - 1)) in
      let run_start = ref (!run_end - 1) in
      while !run_start > 0 && work.(mine.(!run_start - 1)) = w do
        decr run_start
      done;
      while !from < m && work.(acc_.(!from)) >= w do
        out.(!next) <- acc_.(!from);
        incr next;
        incr from
      done;
      for k = !run_start to !run_end - 1 do
        out.(!next) <- mine.(k);
        incr next
      done;
      run_end := !run_start
    done;
    Array.blit acc_ !from out !next (m - !from);
    spare := acc_;
    acc := out
  done;
  if !probes > 0 then Msts_obs.Obs.count ~n:!probes "fork.insert_probes";
  if !size > 0 then Msts_obs.Obs.count ~n:!size "fork.nodes_accepted";
  Array.sub !acc 0 !size
