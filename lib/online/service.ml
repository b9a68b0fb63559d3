(* Session registry behind the [online-*] frames.  See service.mli. *)

module Api = Msts.Api
module Json = Msts.Json
module Obs = Msts.Obs
module Parse = Msts.Platform_format
module Chain = Msts.Chain

(* Each session carries the [Obs.Scope] it was opened under: every later
   operation on the session re-enters that scope, so a scope-aware sink
   (e.g. the serve engine's Memory) attributes all [online.*] events to
   the session that produced them. *)
type entry = { online : Online.t; scope : int }

type t = {
  max_sessions : int;
  sessions : (int, entry) Hashtbl.t;
  mutable next : int;
}

let create ?(max_sessions = 64) () =
  if max_sessions < 1 then
    invalid_arg "Msts.Online.Service.create: max_sessions must be >= 1";
  { max_sessions; sessions = Hashtbl.create 16; next = 1 }

let handles = Api.is_online
let sessions t = Hashtbl.length t.sessions

(* ---------- payload assembly ---------- *)

let json_of_delta =
  let open Json in
  let comms_json comms =
    List (Array.to_list (Array.map (fun c -> Int c) comms))
  in
  function
  | Online.Placed { task; proc; start; comms } ->
      Obj
        [
          ("delta", String "placed");
          ("task", Int task);
          ("proc", Int proc);
          ("start", Int start);
          ("comms", comms_json comms);
        ]
  | Online.Displaced { task; proc; start; comms } ->
      Obj
        [
          ("delta", String "displaced");
          ("task", Int task);
          ("proc", Int proc);
          ("start", Int start);
          ("comms", comms_json comms);
        ]
  | Online.Rejected { task } ->
      Obj [ ("delta", String "rejected"); ("task", Int task) ]
  | Online.Frozen { frontier; tasks } ->
      Obj
        [
          ("delta", String "frozen");
          ("frontier", Int frontier);
          ("tasks", Int tasks);
        ]

(* Deltas ride in the reply, in emission order. *)
let collector () =
  let acc = ref [] in
  let emit d = acc := json_of_delta d :: !acc in
  let drain () = Json.List (List.rev_map (fun j -> j) !acc) in
  (emit, drain)

let find t session =
  match Hashtbl.find_opt t.sessions session with
  | Some e -> Ok e
  | None ->
      Error
        (Api.error Api.Invalid_argument_error
           (Printf.sprintf "Msts.Online.Service: unknown session %d" session))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* Run [f] on the session's [Online.t] under the session's scope. *)
let with_session t session f =
  let* e = find t session in
  Obs.Scope.with_scope e.scope (fun () -> f e.online)

let exec t op =
  try
    match op with
    | Api.Online_open { platform; deadline; capacity } -> (
        if Hashtbl.length t.sessions >= t.max_sessions then
          Error
            (Api.error Api.Overloaded
               (Printf.sprintf "online session limit %d reached" t.max_sessions))
        else
          match platform with
          | Parse.Chain_platform chain ->
              let scope = Obs.Scope.fresh () in
              let o =
                Obs.Scope.with_scope scope (fun () ->
                    Online.create ~capacity chain ~deadline)
              in
              let session = t.next in
              t.next <- session + 1;
              Hashtbl.replace t.sessions session { online = o; scope };
              Ok
                (Json.Obj
                   [
                     ("session", Json.Int session);
                     ("deadline", Json.Int (Online.deadline o));
                     ("procs", Json.Int (Chain.length chain));
                   ])
          | _ ->
              Error
                (Api.error Api.Invalid_platform
                   "online sessions require a chain platform"))
    | Api.Online_submit { session; tasks } ->
        with_session t session @@ fun o ->
        let emit, drain = collector () in
        let placed = Online.submit ~emit o tasks in
        Ok
          (Json.Obj
             [
               ("session", Json.Int session);
               ("placed", Json.Int placed);
               ("rejected", Json.Int (tasks - placed));
               ("deltas", drain ());
             ])
    | Api.Online_advance { session; time } ->
        with_session t session @@ fun o ->
        let emit, drain = collector () in
        let frozen = Online.advance ~emit o ~time in
        Ok
          (Json.Obj
             [
               ("session", Json.Int session);
               ("frontier", Json.Int (Online.frontier o));
               ("frozen", Json.Int frozen);
               ("deltas", drain ());
             ])
    | Api.Online_extend { session; deadline } -> (
        with_session t session @@ fun o ->
        let emit, drain = collector () in
        match Online.extend ~emit o ~deadline with
        | Error msg -> Error (Api.error_of_solve_failure msg)
        | Ok displaced ->
            Ok
              (Json.Obj
                 [
                   ("session", Json.Int session);
                   ("deadline", Json.Int (Online.deadline o));
                   ("displaced", Json.Int displaced);
                   ("deltas", drain ());
                 ]))
    | Api.Online_degrade { session; at; work_factor } -> (
        with_session t session @@ fun o ->
        let emit, drain = collector () in
        match Online.degrade ~emit o ~at ~work_factor with
        | Error msg -> Error (Api.error_of_solve_failure msg)
        | Ok { Online.replaced; extended_by; deadline } ->
            Ok
              (Json.Obj
                 [
                   ("session", Json.Int session);
                   ("replaced", Json.Int replaced);
                   ("extended_by", Json.Int extended_by);
                   ("deadline", Json.Int deadline);
                   ("deltas", drain ());
                 ]))
    | Api.Online_plan { session } -> (
        with_session t session @@ fun o ->
        (* The same document [msts deadline --format=json] prints, prefixed
           with the session's live counters — cram tests cmp the two. *)
        let base =
          Api.json_of_reply
            (Api.Solved
               { plan = Online.plan o; deadline = Some (Online.deadline o) })
        in
        match base with
        | Json.Obj fields ->
            Ok
              (Json.Obj
                 (("session", Json.Int session)
                 :: ("frontier", Json.Int (Online.frontier o))
                 :: ("frozen", Json.Int (Online.frozen o))
                 :: ("rejected", Json.Int (Online.rejected o))
                 :: fields))
        | other -> Ok other)
    | Api.Online_close { session } ->
        with_session t session @@ fun o ->
        Hashtbl.remove t.sessions session;
        Ok
          (Json.Obj
             [
               ("session", Json.Int session);
               ("closed", Json.Bool true);
               ("placed", Json.Int (Online.placed o));
               ("rejected", Json.Int (Online.rejected o));
             ])
    | other ->
        Error
          (Api.error Api.Bad_request
             (Printf.sprintf "%s is not an online operation" (Api.op_name other)))
  with exn -> Error (Api.error_of_exn exn)
