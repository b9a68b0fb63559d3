(* The output oracle: every reply the daemon sends is compared with the
   reply an in-process [Api.respond ~solver:Api.direct_solver] gives for
   the same frame — plain sequential solves, no pool, no cache. *)

module Api = Msts.Api
module Json = Msts.Json
open Script

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let respond op =
  Api.response_to_line
    (Api.respond ~solver:Api.direct_solver { Api.id = Some 0; trace = None; op })

(* Compute every template's expected reply once.  A template whose oracle
   reply is an error is a broken workload, not a benchmark result. *)
let fill templates =
  Array.iter
    (fun t ->
      if t.expected = "" then begin
        let expected = strip_newline (after_id (respond t.op)) in
        if not (String.starts_with ~prefix:{|,"ok":|} expected) then
          failwith
            (Printf.sprintf "oracle: %s frame fails in-process: %s"
               (Api.op_name t.op) expected);
        t.expected <- expected
      end)
    templates

(* [line] from [off] equals [s]. *)
let equal_at line off s =
  let n = String.length s in
  String.length line - off = n
  &&
  let rec go i = i = n || (String.unsafe_get line (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let find_from s off needle =
  let n = String.length needle and len = String.length s in
  let rec matches i j = j = n || (s.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec go i = if i + n > len then None else if matches i 0 then Some i else go (i + 1) in
  go off

(* A batch reply must agree on everything outside its ["cache"] object:
   the instance count before it and the per-problem results after it. *)
let batch_equal line off expected =
  match
    ( find_from expected 0 {|"cache":|},
      find_from expected 0 {|,"results":|},
      find_from line off {|"cache":|},
      find_from line off {|,"results":|} )
  with
  | Some ec, Some er, Some lc, Some lr ->
      lc - off = ec
      && String.sub line off ec = String.sub expected 0 ec
      && equal_at line lr (String.sub expected er (String.length expected - er))
  | _ -> false

let ok_member line =
  match Json.parse line with
  | Ok json -> Json.member "ok" json
  | Error _ -> None

(* Span timings are wall-clock; keep only their call counts. *)
let strip_timings = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "spans", Json.Obj spans ->
                 ( "spans",
                   Json.Obj
                     (List.map
                        (fun (name, stat) ->
                          (name, Option.value ~default:Json.Null (Json.member "calls" stat)))
                        spans) )
             | kv -> kv)
           fields)
  | other -> other

(* Check one reply line (no newline) whose body starts at [off], right
   after the correlation id. *)
let verify t line off =
  match t.check with
  | Exact -> equal_at line off t.expected
  | Batch_outcomes -> batch_equal line off t.expected
  | Profile_counts -> (
      match (ok_member line, ok_member (frame_prefix ^ "0" ^ t.expected)) with
      | Some got, Some want -> strip_timings got = strip_timings want
      | _ -> false)

(* The sequence number a reply carries, and where its body starts. *)
let reply_id line =
  let p = String.length frame_prefix in
  if String.length line <= p || String.sub line 0 p <> frame_prefix then None
  else
    let rec digits i = if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then digits (i + 1) else i in
    let e = digits p in
    if e = p then None else Some (int_of_string (String.sub line p (e - p)), e)
