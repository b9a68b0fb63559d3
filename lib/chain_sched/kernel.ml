module Chain = Msts_platform.Chain
module Comm_vector = Msts_schedule.Comm_vector
module Obs = Msts_obs.Obs

(* Besides the sweep buffer, the scratch tallies the construction's
   counters; {!flush} emits each total as one counter event, so a
   placement costs no sink traffic. *)
type scratch = {
  mutable vals : int array;
  mutable scans : int;
  mutable placed : int;
  mutable hull_updates : int;
}

let scratch () = { vals = [||]; scans = 0; placed = 0; hull_updates = 0 }

(* Candidate [k]'s own value at coordinate [k]:
   min(o_k − w_k, h_k) − c_k, the latest arrival compatible with both the
   processor's occupancy and the link's hull. *)
let seed chain ~hull ~occupancy k =
  min (occupancy.(k - 1) - Chain.work chain k) hull.(k - 1)
  - Chain.latency chain k

(* Why one backward sweep suffices (the suffix-min structure): every
   candidate propagates towards the master through the same monotone maps
   g_j(x) = min(x, h_j) − c_j.  Monotonicity means the sign of the
   difference between two candidates' values is preserved coordinate by
   coordinate as the sweep moves towards link 1 — a strict gap can only
   collapse to zero (both clamped by the hull), never flip.  So scanning
   from coordinate 1, the first coordinate where candidates [a < b]
   differ carries the same sign as their gap at coordinate [a]; and when
   that gap is zero the whole common prefix is equal, in which case
   Definition 3 prefers the shorter vector, i.e. [a].  Hence candidate
   [a] beats any longer rival iff its seed is >= the rival's value
   propagated down to coordinate [a] — one scalar comparison. *)
let sweep chain ~hull ~occupancy sc =
  let p = Chain.length chain in
  if Array.length sc.vals < p then sc.vals <- Array.make p 0;
  let vals = sc.vals in
  sc.scans <- sc.scans + p;
  let best = ref p in
  let tracked = ref (seed chain ~hull ~occupancy p) in
  vals.(p - 1) <- !tracked;
  for k = p - 1 downto 1 do
    let propagated = min !tracked hull.(k - 1) - Chain.latency chain k in
    let own = seed chain ~hull ~occupancy k in
    if own >= propagated then begin
      best := k;
      tracked := own
    end
    else tracked := propagated;
    vals.(k - 1) <- !tracked
  done;
  !best

let first_emission sc = sc.vals.(0)

let blit_chosen sc ~proc dst ~pos = Array.blit sc.vals 0 dst pos proc

let commit chain ~hull ~occupancy sc ~proc =
  let start = occupancy.(proc - 1) - Chain.work chain proc in
  occupancy.(proc - 1) <- start;
  Array.blit sc.vals 0 hull 0 proc;
  sc.placed <- sc.placed + 1;
  sc.hull_updates <- sc.hull_updates + proc;
  start

let flush sc =
  (* The [~n:..] applications box their optional argument; skipping them
     when no sink is installed keeps a construction allocation-free in
     steady state (asserted by the online bench via [Gc.minor_words]). *)
  if Obs.enabled () then begin
    if sc.scans > 0 then Obs.count ~n:sc.scans "chain.candidate_scans";
    if sc.placed > 0 then begin
      Obs.count ~n:sc.placed "chain.tasks_placed";
      Obs.count ~n:sc.hull_updates "chain.hull_updates";
      Obs.count ~n:sc.placed "chain.kernel.fast_placements"
    end
  end;
  sc.scans <- 0;
  sc.placed <- 0;
  sc.hull_updates <- 0
