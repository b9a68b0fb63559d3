module Parse = Msts_platform.Parse
module Lru = Msts_util.Lru
module Obs = Msts_obs.Obs

type request = {
  platform : Parse.platform;
  tasks : int option;
  deadline : int option;
}

type outcome = (Msts_schedule.Plan.t, string) result

(* [buf] is the caller's, cleared here: [shard] reuses one per batch. *)
let key buf text { tasks; deadline; _ } =
  let objective = function
    | None -> Buffer.add_char buf '-'
    | Some v -> Buffer.add_string buf (string_of_int v)
  in
  Buffer.clear buf;
  Buffer.add_string buf text;
  Buffer.add_string buf "\ntasks=";
  objective tasks;
  Buffer.add_string buf " deadline=";
  objective deadline;
  Buffer.contents buf

let fingerprint request =
  key (Buffer.create 128) (Parse.platform_to_string request.platform) request

(* Values by physical identity.  A batch decoded from one frame shares
   one problem value among its equal elements, and one platform value
   among the problems that repeat its text, so each distinct problem is
   keyed and resolved once and each distinct platform printed once.
   Structurally equal copies hash alike and are handled once each. *)
module By_identity (T : sig
  type t
end) =
Hashtbl.Make (struct
  type t = T.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Platforms = By_identity (struct
  type t = Parse.platform
end)

module Problems = By_identity (struct
  type t = request
end)

(* ---------- the shared cache ---------- *)

type cache = { lock : Mutex.t; lru : (string, outcome) Lru.t }

let cache ~capacity = { lock = Mutex.create (); lru = Lru.create ~capacity }
let cache_capacity c = Lru.capacity c.lru
let cache_length c = Mutex.protect c.lock (fun () -> Lru.length c.lru)
let cache_find c fp = Mutex.protect c.lock (fun () -> Lru.find c.lru fp)
let cache_add c fp outcome = Mutex.protect c.lock (fun () -> Lru.add c.lru fp outcome)

(* ---------- batch driver ---------- *)

type stats = {
  jobs : int;
  requests : int;
  cache_hits : int;
  cache_misses : int;
  queue_wait_us : int;
  busy_us : int;
}

type resolution =
  | Cached of outcome (* found in the LRU on the coordinator's probe *)
  | Fresh of int (* index into the to-solve array *)
  | Duplicate of int (* same fingerprint as this earlier request *)

type plan = {
  requests : request array;
  fingerprints : string array;
  resolutions : resolution array;
  to_solve : int array; (* slot -> request index *)
  plan_cache : cache;
}

let shard ?cache:shared requests =
  let n = Array.length requests in
  let plan_cache =
    match shared with
    | Some c -> c
    | None -> cache ~capacity:(max 1 n)
  in
  let texts = Platforms.create 16 in
  let firsts = Problems.create 16 in
  let buf = Buffer.create 128 in
  let fingerprints = Array.make n "" in
  let resolutions = Array.make n (Duplicate 0) in
  (* Sequential coordinator pass: duplicate detection and cache probes in
     submission order — the source of the determinism guarantee.  A
     value seen before copies the key and resolution of its first
     occurrence, whose first equal key is this one's too. *)
  let first_of = Hashtbl.create 16 in
  let to_solve = ref [] in
  let n_solve = ref 0 in
  for i = 0 to n - 1 do
    let request = requests.(i) in
    match Problems.find_opt firsts request with
    | Some j ->
        fingerprints.(i) <- fingerprints.(j);
        resolutions.(i) <-
          (match resolutions.(j) with
          | Duplicate k -> Duplicate k
          | Cached _ | Fresh _ -> Duplicate j)
    | None ->
        Problems.add firsts request i;
        let text =
          match Platforms.find_opt texts request.platform with
          | Some text -> text
          | None ->
              let text = Parse.platform_to_string request.platform in
              Platforms.add texts request.platform text;
              text
        in
        let fp = key buf text request in
        fingerprints.(i) <- fp;
        resolutions.(i) <-
          (match Hashtbl.find_opt first_of fp with
          | Some j -> Duplicate j
          | None -> (
              Hashtbl.add first_of fp i;
              match cache_find plan_cache fp with
              | Some outcome -> Cached outcome
              | None ->
                  let slot = !n_solve in
                  incr n_solve;
                  to_solve := i :: !to_solve;
                  Fresh slot))
  done;
  { requests; fingerprints; resolutions;
    to_solve = Array.of_list (List.rev !to_solve); plan_cache }

let fingerprints plan = Array.copy plan.fingerprints

let firsts plan =
  Array.mapi (fun i -> function Duplicate j -> j | Cached _ | Fresh _ -> i) plan.resolutions

let shard_count plan = Array.length plan.to_solve
let shard_request plan slot = plan.requests.(plan.to_solve.(slot))

let assemble plan ~jobs:used_jobs ~solved ~wait_us ~busy_us =
  let n = Array.length plan.requests in
  if Array.length solved <> shard_count plan then
    invalid_arg "Msts.Batch.assemble: solved array does not match the plan";
  (* hits = LRU hits + within-batch duplicates = everything not solved *)
  let hits = n - Array.length plan.to_solve in
  (* Sequential epilogue: insert fresh outcomes in submission order (so the
     eviction sequence is deterministic), then resolve duplicates. *)
  Array.iteri
    (fun slot outcome ->
      cache_add plan.plan_cache plan.fingerprints.(plan.to_solve.(slot)) outcome)
    solved;
  let outcomes =
    Array.map
      (function
        | Cached outcome -> outcome
        | Fresh slot -> solved.(slot)
        | Duplicate _ -> Error "unresolved") (* patched below *)
      plan.resolutions
  in
  Array.iteri
    (fun i resolution ->
      match resolution with
      | Duplicate j -> outcomes.(i) <- outcomes.(j)
      | _ -> ())
    plan.resolutions;
  let sum = Array.fold_left ( + ) 0 in
  let stats =
    {
      jobs = used_jobs;
      requests = n;
      cache_hits = hits;
      cache_misses = Array.length plan.to_solve;
      queue_wait_us = sum wait_us;
      busy_us = sum busy_us;
    }
  in
  Obs.count ~n:stats.requests "pool.requests";
  Obs.count ~n:stats.cache_hits "pool.cache_hits";
  Obs.count ~n:stats.cache_misses "pool.cache_misses";
  Obs.count ~n:stats.cache_misses "pool.solves";
  Obs.count ~n:stats.queue_wait_us "pool.queue_wait_us";
  Obs.count ~n:stats.busy_us "pool.busy_us";
  (* per-solve distributions behind the summed counters above *)
  Array.iter (fun w -> Obs.record "pool.queue_wait_us" w) wait_us;
  Array.iter (fun b -> Obs.record "pool.busy_us" b) busy_us;
  (outcomes, stats)

let run ?pool ?jobs ?cache:shared ~solve requests =
  let plan = shard ?cache:shared requests in
  let shards = shard_count plan in
  (* Fan the distinct misses over the pool; per-slot timing cells are
     written by exactly one worker each, read only after the barrier. *)
  let wait_us = Array.make shards 0 in
  let busy_us = Array.make shards 0 in
  let run_on pool =
    let submitted = Obs.now_us () in
    ( Pool.jobs pool,
      Pool.map pool
        (fun slot ->
          let started = Obs.now_us () in
          let outcome = solve (shard_request plan slot) in
          let finished = Obs.now_us () in
          wait_us.(slot) <- max 0 (started - submitted);
          busy_us.(slot) <- max 0 (finished - started);
          outcome)
        (Array.init shards Fun.id) )
  in
  let used_jobs, solved =
    Obs.span "pool.batch"
      ~args:[ ("requests", string_of_int (Array.length requests)) ]
      (fun () ->
        match pool with
        | Some pool -> run_on pool
        | None -> Pool.with_pool ?jobs run_on)
  in
  assemble plan ~jobs:used_jobs ~solved ~wait_us ~busy_us
