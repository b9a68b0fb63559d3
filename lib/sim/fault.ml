module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain

type event =
  | Slow_proc of { address : Spider.address; factor : int }
  | Slow_link of { address : Spider.address; factor : int }
  | Drop_transfer of { address : Spider.address; penalty : int }
  | Crash_proc of Spider.address

type timed = { at : int; event : event }

type trace = timed list

let normalize trace = List.stable_sort (fun a b -> Int.compare a.at b.at) trace

let event_to_string = function
  | Slow_proc { address = { leg; depth }; factor } ->
      Printf.sprintf "slow-proc %d %d %d" leg depth factor
  | Slow_link { address = { leg; depth }; factor } ->
      Printf.sprintf "slow-link %d %d %d" leg depth factor
  | Drop_transfer { address = { leg; depth }; penalty } ->
      Printf.sprintf "drop %d %d %d" leg depth penalty
  | Crash_proc { leg; depth } -> Printf.sprintf "crash %d %d" leg depth

let timed_to_string { at; event } = Printf.sprintf "%d %s" at (event_to_string event)

let to_string trace =
  String.concat "" (List.map (fun t -> timed_to_string t ^ "\n") trace)

(* ---------- parsing ---------- *)

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, line) ->
           line <> "" && not (String.length line > 0 && line.[0] = '#'))
  in
  let parse_line (lineno, line) =
    let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | at :: kind :: rest -> (
        match int_of_string_opt at with
        | None -> err "expected an integer time first"
        | Some at when at < 0 -> err "negative time"
        | Some at -> (
            let ints = List.map int_of_string_opt rest in
            match (kind, ints) with
            | "crash", [ Some leg; Some depth ] ->
                Ok { at; event = Crash_proc { leg; depth } }
            | "slow-proc", [ Some leg; Some depth; Some factor ] ->
                Ok { at; event = Slow_proc { address = { leg; depth }; factor } }
            | "slow-link", [ Some leg; Some depth; Some factor ] ->
                Ok { at; event = Slow_link { address = { leg; depth }; factor } }
            | "drop", [ Some leg; Some depth; Some penalty ] ->
                Ok { at; event = Drop_transfer { address = { leg; depth }; penalty } }
            | ("crash" | "slow-proc" | "slow-link" | "drop"), _ ->
                err (Printf.sprintf "malformed %s event" kind)
            | other, _ -> err (Printf.sprintf "unknown event kind %S" other)))
    | _ -> err "expected '<time> <kind> <leg> <depth> [<value>]'"
  in
  let rec collect acc = function
    | [] -> Ok (normalize (List.rev acc))
    | entry :: rest -> (
        match parse_line entry with
        | Ok t -> collect (t :: acc) rest
        | Error _ as e -> e)
  in
  collect [] lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* ---------- validation against a platform ---------- *)

let address_of = function
  | Slow_proc { address; _ } | Slow_link { address; _ } | Drop_transfer { address; _ }
  | Crash_proc address ->
      address

let validate spider trace =
  List.concat_map
    (fun { at; event } ->
      let { Spider.leg; depth } = address_of event in
      let where () = event_to_string event in
      let bad_address =
        leg < 1
        || leg > Spider.legs spider
        || depth < 1
        || depth > Chain.length (Spider.leg_chain spider (min (max leg 1) (Spider.legs spider)))
      in
      List.concat
        [
          (if at < 0 then [ Printf.sprintf "%s: negative time %d" (where ()) at ] else []);
          (if bad_address then [ Printf.sprintf "%s: no such processor" (where ()) ] else []);
          (match event with
          | Slow_proc { factor; _ } | Slow_link { factor; _ } when factor < 1 ->
              [ Printf.sprintf "%s: factor must be >= 1" (where ()) ]
          | Drop_transfer { penalty; _ } when penalty < 0 ->
              [ Printf.sprintf "%s: negative penalty" (where ()) ]
          | _ -> []);
        ])
    trace

(* ---------- dynamic platform state ---------- *)

type state = {
  spider : Spider.t;
  proc_factor : int array array; (* accumulated slowdown, leg-major *)
  link_factor : int array array;
  alive : int array; (* surviving prefix length per leg *)
}

let init spider =
  let bank f =
    Array.init (Spider.legs spider) (fun lidx ->
        Array.init (Chain.length (Spider.leg_chain spider (lidx + 1))) f)
  in
  {
    spider;
    proc_factor = bank (fun _ -> 1);
    link_factor = bank (fun _ -> 1);
    alive = Array.init (Spider.legs spider) (fun lidx ->
        Chain.length (Spider.leg_chain spider (lidx + 1)));
  }

let copy state =
  {
    spider = state.spider;
    proc_factor = Array.map Array.copy state.proc_factor;
    link_factor = Array.map Array.copy state.link_factor;
    alive = Array.copy state.alive;
  }

let proc_factor state { Spider.leg; depth } = state.proc_factor.(leg - 1).(depth - 1)

let link_factor state { Spider.leg; depth } = state.link_factor.(leg - 1).(depth - 1)

let alive_depth state ~leg = state.alive.(leg - 1)

let is_alive state { Spider.leg; depth } = depth <= state.alive.(leg - 1)

let apply state event =
  match event with
  | Slow_proc { address = { leg; depth }; factor } ->
      state.proc_factor.(leg - 1).(depth - 1) <-
        state.proc_factor.(leg - 1).(depth - 1) * factor
  | Slow_link { address = { leg; depth }; factor } ->
      state.link_factor.(leg - 1).(depth - 1) <-
        state.link_factor.(leg - 1).(depth - 1) * factor
  | Crash_proc { leg; depth } ->
      state.alive.(leg - 1) <- min state.alive.(leg - 1) (depth - 1)
  | Drop_transfer _ -> ()

let residual state =
  match Spider.restrict state.spider ~depths:state.alive with
  | None -> None
  | Some (survivor, leg_map) ->
      (* fold the accumulated slowdowns into the surviving prefix *)
      let scaled = ref survivor in
      Array.iteri
        (fun ridx original_leg ->
          for depth = 1 to state.alive.(original_leg - 1) do
            let lf = state.link_factor.(original_leg - 1).(depth - 1) in
            let wf = state.proc_factor.(original_leg - 1).(depth - 1) in
            if lf > 1 || wf > 1 then
              scaled :=
                Spider.scale ~latency_factor:lf ~work_factor:wf !scaled
                  { Spider.leg = ridx + 1; depth }
          done)
        leg_map;
      Some (!scaled, leg_map)

(* ---------- replanning interface ---------- *)

type snapshot = {
  time : int;
  state : state;
  completed : int list;
  in_flight : (int * Spider.address) list;
  at_master : (int * Spider.address) list;
  remaining : trace;
}

type decision = Keep | Redirect of (int * Spider.address) list

(* ---------- seeded generation ---------- *)

let random rng spider ~events ~horizon =
  if events < 0 then invalid_arg "Fault.random: negative event count";
  if horizon < 0 then invalid_arg "Fault.random: negative horizon";
  let alive =
    Array.init (Spider.legs spider) (fun lidx ->
        Chain.length (Spider.leg_chain spider (lidx + 1)))
  in
  let alive_total () = Array.fold_left ( + ) 0 alive in
  let alive_addresses () =
    List.concat_map
      (fun lidx ->
        List.init alive.(lidx) (fun d -> { Spider.leg = lidx + 1; depth = d + 1 }))
      (List.init (Array.length alive) Fun.id)
  in
  let pick_address () =
    let addresses = Array.of_list (alive_addresses ()) in
    Msts_util.Prng.choice rng addresses
  in
  let make_event () =
    let roll = Msts_util.Prng.int rng 100 in
    let factor () = Msts_util.Prng.int_in rng 2 4 in
    if roll < 30 then Slow_proc { address = pick_address (); factor = factor () }
    else if roll < 55 then Slow_link { address = pick_address (); factor = factor () }
    else if roll < 80 then
      Drop_transfer
        {
          address = pick_address ();
          penalty = Msts_util.Prng.int_in rng 1 (max 1 (horizon / 4));
        }
    else
      (* crash, but never the last survivor: keep the residual problem
         feasible by construction *)
      let candidates =
        List.filter
          (fun { Spider.leg; depth } ->
            alive_total () - (alive.(leg - 1) - depth + 1) >= 1)
          (alive_addresses ())
      in
      match candidates with
      | [] -> Slow_proc { address = pick_address (); factor = factor () }
      | _ ->
          let a = Msts_util.Prng.choice rng (Array.of_list candidates) in
          alive.(a.Spider.leg - 1) <- a.Spider.depth - 1;
          Crash_proc a
  in
  normalize
    (List.init events (fun _ ->
         { at = Msts_util.Prng.int rng (horizon + 1); event = make_event () }))
