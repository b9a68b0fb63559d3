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

(* Values by physical identity, in buckets of at most [candidates]:
   [Hashtbl.hash] reads only the first few meaningful values of a value,
   so values that differ only further in share a bucket, and a full
   bucket turns a new value away instead of growing.  A lookup compares
   at most [candidates] values, counted in [compared]. *)
let candidates = 8

module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h (* keys are hashes already *)
end)

type ('a, 'b) identity = { buckets : ('a * 'b) list Int_table.t; mutable compared : int }

let identity () = { buckets = Int_table.create 16; compared = 0 }

let bucket t v = try Int_table.find t.buckets (Hashtbl.hash v) with Not_found -> []

let rec find_physical t v = function
  | [] -> raise_notrace Not_found
  | (k, d) :: rest ->
      t.compared <- t.compared + 1;
      if k == v then d else find_physical t v rest

let find t v = find_physical t v (bucket t v)

(* Record a value [find] did not find, when its bucket has room. *)
let add t v d =
  let b = bucket t v in
  if List.compare_length_with b candidates < 0 then
    Int_table.replace t.buckets (Hashtbl.hash v) ((v, d) :: b)

(* The repeat map of requests that come without one: each request's
   first physically equal request, or itself when it is the first or its
   bucket was full. *)
let derive_repeats t requests =
  Array.mapi
    (fun i request ->
      match find t request with
      | j -> j
      | exception Not_found ->
          add t request i;
          i)
    requests

(* ---------- the shared cache ---------- *)

type cache = { lock : Mutex.t; lru : (string, outcome) Lru.t }

let cache ~capacity = { lock = Mutex.create (); lru = Lru.create ~capacity }
let cache_capacity c = Lru.capacity c.lru
let cache_length c = Mutex.protect c.lock (fun () -> Lru.length c.lru)
let cache_keys c = Mutex.protect c.lock (fun () -> List.map fst (Lru.to_list c.lru))
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

(* Per request, int-coded: [firsts.(i)] is the first request with its
   fingerprint, and [codes.(i)] that first's outcome, a slot of
   [to_solve] when >= 0, else the cache hit [hits.(-1 - code)]. *)
type plan = {
  requests : request array;
  firsts : int array;
  codes : int array;
  to_solve : int array; (* slot -> request index *)
  slot_keys : string array; (* slot -> fingerprint *)
  hits : outcome array; (* outcomes found in the LRU, in probe order *)
  hit_keys : string array;
  plan_cache : cache;
}

let invalid_repeats () =
  invalid_arg "Msts.Batch.shard: repeats is not a repeat map of the requests"

let shard ?cache:shared ?repeats requests =
  let n = Array.length requests in
  let plan_cache =
    match shared with
    | Some c -> c
    | None -> cache ~capacity:(max 1 n)
  in
  let texts = identity () in
  let repeats, derive_compared =
    match repeats with
    | Some m -> if Array.length m <> n then invalid_repeats () else (m, 0)
    | None ->
        let problems = identity () in
        let m = derive_repeats problems requests in
        (m, problems.compared)
  in
  let buf = Buffer.create 128 in
  let firsts = Array.make n 0 in
  let codes = Array.make n 0 in
  (* Sequential coordinator pass: duplicate detection and cache probes in
     submission order — the source of the determinism guarantee.  A
     repeat copies the two ints of its first occurrence; each first is
     keyed and resolved once, each platform value printed once. *)
  let first_of = Hashtbl.create 16 in
  let to_solve = ref [] and slot_keys = ref [] and n_solve = ref 0 in
  let hits = ref [] and hit_keys = ref [] and n_hits = ref 0 in
  for i = 0 to n - 1 do
    let j = repeats.(i) in
    if j <> i then begin
      if j < 0 || j > i || repeats.(j) <> j || requests.(j) != requests.(i) then
        invalid_repeats ();
      firsts.(i) <- firsts.(j);
      codes.(i) <- codes.(j)
    end
    else begin
      let request = requests.(i) in
      let text =
        match find texts request.platform with
        | text -> text
        | exception Not_found ->
            let text = Parse.platform_to_string request.platform in
            add texts request.platform text;
            text
      in
      let fp = key buf text request in
      match Hashtbl.find_opt first_of fp with
      | Some k ->
          firsts.(i) <- k;
          codes.(i) <- codes.(k)
      | None -> (
          Hashtbl.add first_of fp i;
          firsts.(i) <- i;
          match cache_find plan_cache fp with
          | Some outcome ->
              codes.(i) <- -1 - !n_hits;
              incr n_hits;
              hits := outcome :: !hits;
              hit_keys := fp :: !hit_keys
          | None ->
              codes.(i) <- !n_solve;
              incr n_solve;
              to_solve := i :: !to_solve;
              slot_keys := fp :: !slot_keys)
    end
  done;
  Obs.count ~n:(derive_compared + texts.compared) "pool.identity_candidates";
  let frozen l = Array.of_list (List.rev !l) in
  {
    requests;
    firsts;
    codes;
    to_solve = frozen to_solve;
    slot_keys = frozen slot_keys;
    hits = frozen hits;
    hit_keys = frozen hit_keys;
    plan_cache;
  }

let fingerprints plan =
  Array.map
    (fun code -> if code >= 0 then plan.slot_keys.(code) else plan.hit_keys.(-1 - code))
    plan.codes

let firsts plan = plan.firsts
let shard_count plan = Array.length plan.to_solve
let shard_request plan slot = plan.requests.(plan.to_solve.(slot))

let assemble plan ~jobs:used_jobs ~solved ~wait_us ~busy_us =
  let n = Array.length plan.requests in
  if Array.length solved <> shard_count plan then
    invalid_arg "Msts.Batch.assemble: solved array does not match the plan";
  (* hits = LRU hits + within-batch duplicates = everything not solved *)
  let hits = n - Array.length plan.to_solve in
  (* Sequential epilogue: insert fresh outcomes in submission order (so the
     eviction sequence is deterministic), then resolve every request. *)
  Array.iteri (fun slot outcome -> cache_add plan.plan_cache plan.slot_keys.(slot) outcome) solved;
  let outcomes =
    Array.map
      (fun code -> if code >= 0 then solved.(code) else plan.hits.(-1 - code))
      plan.codes
  in
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
