(* The batch coordinator as it stood before Msts.Batch.shard keyed and
   resolved each distinct problem value once: every request is
   fingerprinted (each physically distinct platform printed once) and
   resolved through a fingerprint-keyed table.  Kept as the oracle for the
   differential suite in test_batch.ml.  The cache is a bare Msts.Lru (no
   lock) and telemetry is left out; keys, resolutions, slot order, cache
   probes and insertions are those of the original. *)

module Batch = Msts.Batch

let key buf text { Batch.tasks; deadline; _ } =
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

module By_identity = Hashtbl.Make (struct
  type t = Msts.Platform_format.platform

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type cache = (string, Batch.outcome) Msts.Lru.t

type resolution =
  | Cached of Batch.outcome
  | Fresh of int
  | Duplicate of int

type plan = {
  requests : Batch.request array;
  fingerprints : string array;
  resolutions : resolution array;
  to_solve : int array;
  plan_cache : cache;
}

let shard (plan_cache : cache) requests =
  let n = Array.length requests in
  let texts = By_identity.create 16 in
  let buf = Buffer.create 128 in
  let fingerprints =
    Array.map
      (fun (request : Batch.request) ->
        let text =
          match By_identity.find_opt texts request.platform with
          | Some text -> text
          | None ->
              let text = Msts.Platform_format.platform_to_string request.platform in
              By_identity.add texts request.platform text;
              text
        in
        key buf text request)
      requests
  in
  let first_of = Hashtbl.create (2 * n) in
  let to_solve = ref [] in
  let n_solve = ref 0 in
  let resolutions =
    Array.init n (fun i ->
        let fp = fingerprints.(i) in
        match Hashtbl.find_opt first_of fp with
        | Some j -> Duplicate j
        | None -> (
            Hashtbl.add first_of fp i;
            match Msts.Lru.find plan_cache fp with
            | Some outcome -> Cached outcome
            | None ->
                let slot = !n_solve in
                incr n_solve;
                to_solve := i :: !to_solve;
                Fresh slot))
  in
  { requests; fingerprints; resolutions;
    to_solve = Array.of_list (List.rev !to_solve); plan_cache }

let shard_count plan = Array.length plan.to_solve
let shard_request plan slot = plan.requests.(plan.to_solve.(slot))

(* Outcomes and (hits, misses); inserts [solved] in slot order. *)
let assemble plan ~solved =
  let n = Array.length plan.requests in
  Array.iteri
    (fun slot outcome ->
      Msts.Lru.add plan.plan_cache plan.fingerprints.(plan.to_solve.(slot)) outcome)
    solved;
  let outcomes =
    Array.map
      (function
        | Cached outcome -> outcome
        | Fresh slot -> solved.(slot)
        | Duplicate _ -> Error "unresolved")
      plan.resolutions
  in
  Array.iteri
    (fun i resolution ->
      match resolution with
      | Duplicate j -> outcomes.(i) <- outcomes.(j)
      | _ -> ())
    plan.resolutions;
  (outcomes, (n - shard_count plan, shard_count plan))
