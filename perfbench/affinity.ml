(* Where the client and the daemon run.  On a host with two or more CPUs
   the client keeps CPU 0 and a jobs=1 daemon gets CPU 1 to itself, so
   neither migrates and the two never compete for one core; a daemon with
   more workers spans every CPU.  With one CPU nothing is pinned. *)

external set : int list -> bool = "perfbench_set_affinity"

let cpus = Domain.recommended_domain_count ()
let all = List.init cpus Fun.id
let pinning = cpus >= 2
let client () = if pinning then ignore (set [ 0 ])
let unpin () = if pinning then ignore (set all)

(* Run [spawn] under the daemon's mask (children inherit it), then return
   to the client's. *)
let for_daemon ~jobs spawn =
  if not pinning then spawn ()
  else begin
    ignore (set (if jobs = 1 then [ 1 ] else all));
    Fun.protect ~finally:client spawn
  end
