(* The traffic mixes, generated from the seed before anything is
   timed.  A workload is a cycle of frame templates (replayed in order,
   wrapping around) plus an untimed warm-up list.  Problem sizes, daemon
   settings, windows and open-loop rates are constants here: nothing is
   calibrated on the host at run time, so two commits always run the same
   work.  The seed chooses which requests, in which order, from fixed
   platform pools — so every seed has the same statistical character. *)

module Api = Msts.Api
module Gen = Msts.Generator
module Prng = Msts.Prng
module Parse = Msts.Platform_format

(* How a reply is compared with the oracle's reply to the same frame. *)
type check =
  | Exact  (** byte-identical after the correlation id *)
  | Batch_outcomes
      (** everything but the ["cache"] hit/miss stats, which depend on the
          daemon's cache state *)
  | Profile_counts
      (** span timings stripped (wall-clock figures); counts, simulated
          times and the summary must match *)

type template = {
  op : Api.op;
  body : string;
      (** the encoded frame after [{"v":1,"id":<n>], newline-terminated:
          the wire frame is {!frame_prefix}, the sequence number, then
          this *)
  check : check;
  mutable expected : string;
      (** the oracle's reply after the id, without its newline; filled by
          {!Oracle.fill} *)
}

type t = {
  name : string;
  jobs : int;  (** the daemon's [--jobs] *)
  window : int;  (** closed-loop requests kept outstanding *)
  rate : float;  (** open-loop requests per second *)
  closed_per_s : float;
      (** closed-loop requests per measured second: sizes the closed phase,
          which itself runs as fast as the daemon answers *)
  warmup : template array;  (** untimed, sent once before measuring *)
  cycle : template array;  (** the measured script, replayed cyclically *)
  prefix : int;  (** cycle requests the traced run replays in-process *)
}

let frame_prefix = {|{"v":1,"id":|}
let cache_capacity = 256 (* the daemon's default --cache-size *)

(* Strip the envelope's leading [{"v":1,"id":0] from an encoded line. *)
let after_id line =
  let lead = frame_prefix ^ "0" in
  let n = String.length lead in
  if String.length line < n || String.sub line 0 n <> lead then
    invalid_arg ("Script.after_id: unexpected envelope: " ^ line);
  String.sub line n (String.length line - n)

let check_of_op = function
  | Api.Batch _ -> Batch_outcomes
  | Api.Profile _ -> Profile_counts
  | _ -> Exact

let template op =
  {
    op;
    body = after_id (Api.request_to_line { Api.id = Some 0; trace = None; op });
    check = check_of_op op;
    expected = "";
  }

let frame t seq = frame_prefix ^ string_of_int seq ^ t.body

(* Templates with equal bodies are shared, so the oracle runs once per
   distinct frame. *)
let interned () =
  let tbl = Hashtbl.create 256 in
  fun op ->
    let t = template op in
    match Hashtbl.find_opt tbl t.body with
    | Some shared -> shared
    | None ->
        Hashtbl.add tbl t.body t;
        t

let distinct templates =
  let seen = Hashtbl.create 256 in
  Array.to_list templates
  |> List.filter (fun t ->
         if Hashtbl.mem seen t.body then false
         else (
           Hashtbl.add seen t.body ();
           true))
  |> Array.of_list

(* ---------- cold-solve ---------- *)

(* Sixteen heavy spiders (the compute-bound profile, 4 legs, depth <= 3).
   The cycle holds 512 distinct (spider, task count) problems, twice the
   daemon's cache capacity, so cyclic replay never finds one cached. *)
let heavy_platforms =
  lazy
    (Array.init 16 (fun k ->
         Parse.Spider_platform
           (Gen.spider (Prng.create (100 + k)) Gen.compute_bound_profile ~legs:4
              ~max_depth:3)))

let cold_solve seed =
  let rng = Prng.create seed in
  let platforms = Lazy.force heavy_platforms in
  let keys =
    Array.init (Array.length platforms * 129) (fun i -> (i / 129, 128 + (i mod 129)))
  in
  Prng.shuffle rng keys;
  let solve (k, tasks) =
    template (Api.Schedule (Msts.Solve.problem ~tasks platforms.(k)))
  in
  {
    name = "cold-solve";
    jobs = 2;
    window = 8;
    rate = 80.0;
    closed_per_s = 300.0;
    (* task counts below the measured band: never a key of the cycle *)
    warmup = Array.init 16 (fun k -> solve (k, 96 + k));
    cycle = Array.map solve (Array.sub keys 0 (2 * cache_capacity));
    prefix = 200;
  }

(* ---------- bulk-frames ---------- *)

(* The serve bench's 4-platform rotation of small platforms. *)
let small_platforms =
  lazy
    (let profile = Gen.default_profile in
     [|
       Parse.Chain_platform (Gen.chain (Prng.create 11) profile ~p:3);
       Parse.Chain_platform (Gen.chain (Prng.create 12) profile ~p:4);
       Parse.Spider_platform
         (Gen.spider (Prng.create 13) profile ~legs:3 ~max_depth:2);
       Parse.Fork_platform (Gen.fork (Prng.create 14) profile ~slaves:3);
     |])

(* Large documents on a small window: batches of 1200 problems (~68 KB,
   more than the server's 64 KiB read chunk) over 16 distinct small ones,
   alternating with p=4 chain schedules of ~1000 tasks (~53 KB replies).
   Everything is cached after warm-up, so the codec and the server's
   buffers do the work. *)
let bulk_frames seed =
  let rng = Prng.create seed in
  let platforms = Lazy.force small_platforms in
  let small =
    Array.init 32 (fun i ->
        Msts.Solve.problem ~tasks:(4 + (i / 4)) platforms.(i mod 4))
  in
  (* four task counts per platform, each problem 75 times, in seeded
     order: every seed's batches have the same size and shape *)
  let batch () =
    let distinct16 =
      Array.concat
        (List.init 4 (fun p ->
             let counts = Array.init 8 (fun i -> small.((4 * i) + p)) in
             Prng.shuffle rng counts;
             Array.sub counts 0 4))
    in
    let problems = Array.init 1200 (fun i -> distinct16.(i mod 16)) in
    Prng.shuffle rng problems;
    template (Api.Batch problems)
  in
  let chain k =
    let c = Gen.chain (Prng.create (200 + k)) Gen.default_profile ~p:4 in
    template
      (Api.Schedule
         (Msts.Solve.problem ~tasks:(1000 + Prng.int rng 16)
            (Parse.Chain_platform c)))
  in
  let cycle = Array.init 8 (fun i -> if i mod 2 = 0 then batch () else chain (i / 2)) in
  {
    name = "bulk-frames";
    jobs = 1;
    window = 2;
    rate = 40.0;
    closed_per_s = 100.0;
    warmup = cycle;
    cycle;
    prefix = 80;
  }

(* ---------- sim-check ---------- *)

(* Simulator-heavy requests on mid-size spiders: traced checks with
   faults, realized-execution reports, and execute/pull/faults profiles.
   The solves hit the cache after warm-up; the simulations never do. *)
let sim_platforms =
  lazy
    (Array.init 4 (fun k ->
         Parse.Spider_platform
           (Gen.spider (Prng.create (300 + k)) Gen.default_profile ~legs:3
              ~max_depth:2)))

let sim_check seed =
  let rng = Prng.create seed in
  let platforms = Lazy.force sim_platforms in
  (* fixed proportions (4 checks, 3 reports, one profile of each kind per
     ten requests) in seeded order, with seeded sizes *)
  let request i =
    let platform = Prng.choice rng platforms in
    let r = i mod 10 in
    if r < 4 then
      Api.Check
        {
          problem = Msts.Solve.problem ~tasks:(Prng.int_in rng 40 80) platform;
          trace = true;
          seed = Prng.int rng 1_000_000;
          events = Prng.int_in rng 4 8;
        }
    else if r < 7 then
      Api.Report
        {
          problem = Msts.Solve.problem ~tasks:(Prng.int_in rng 40 80) platform;
          planned = false;
        }
    else
      Api.Profile
        {
          platform;
          tasks = Prng.int_in rng 30 60;
          deadline = None;
          workload = [| Api.Execute; Api.Pull; Api.Faults |].(r - 7);
          seed = Prng.int rng 1_000_000;
          events = 4;
        }
  in
  let intern = interned () in
  let order = Array.init 400 Fun.id in
  Prng.shuffle rng order;
  let cycle = Array.map (fun i -> intern (request i)) order in
  {
    name = "sim-check";
    jobs = 1;
    window = 8;
    rate = 100.0;
    closed_per_s = 400.0;
    warmup = distinct cycle;
    cycle;
    prefix = 500;
  }

let all = [ "cold-solve"; "bulk-frames"; "sim-check" ]

let make name seed =
  match name with
  | "cold-solve" -> Some (cold_solve seed)
  | "bulk-frames" -> Some (bulk_frames seed)
  | "sim-check" -> Some (sim_check seed)
  | _ -> None

(* Every distinct template the run can send. *)
let templates w = distinct (Array.append w.warmup w.cycle)
