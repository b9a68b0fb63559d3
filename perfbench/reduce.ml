(* Exact reducers over raw samples: no bucketing, no interpolation tables.
   Every figure the benchmark prints goes through one of these. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

(* Linear interpolation between closest ranks (the "type 7" estimator):
   the value at fractional position q·(n-1) of the sorted samples. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.percentile: no samples";
  let q = Float.min 1.0 (Float.max 0.0 q) in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let percentile samples q = percentile_sorted (sorted samples) q
let median samples = percentile samples 0.5

(* How many samples lie strictly above the q-th percentile: the support a
   tail figure has (p99 needs at least ten beyond it to mean anything). *)
let beyond_sorted a q =
  let p = percentile_sorted a q in
  Array.fold_left (fun acc x -> if x > p then acc + 1 else acc) 0 a

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] gives
   them (its default "exclusive" method), so the spread this code reports
   matches what an external script computes from the same values. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  if n < 2 then invalid_arg "Reduce.quartiles: need at least two samples";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Group consecutive sample chunks into windows of at least [min]
   samples; a short remainder joins the last window. *)
let windows ~min chunks =
  let close acc cur = if cur = [] then acc else Array.concat (List.rev cur) :: acc in
  let rec go acc cur n = function
    | [] -> (
        match acc with
        | last :: rest when n < min && cur <> [] ->
            List.rev (Array.concat (last :: List.rev cur) :: rest)
        | _ -> List.rev (close acc cur))
    | c :: rest ->
        let cur = c :: cur and n = n + Array.length c in
        if n >= min then go (close acc cur) [] 0 rest else go acc cur n rest
  in
  go [] [] 0 chunks

(* The median over windows of each window's exact q-th percentile: one
   host stall spoils one window, not the figure. *)
let windowed_percentile windows q =
  median (Array.of_list (List.map (fun w -> percentile w q) windows))

(* ---------- spans ---------- *)

type span = {
  name : string;
  start : float;  (** microseconds *)
  stop : float;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  req : int;  (** request the span belongs to *)
}

let duration s = s.stop -. s.start

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None clipped

(* A span's self time: its duration minus the part of its interval its
   direct children cover.  Children that overlap each other (parallel
   work) are counted once. *)
let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s ->
      if s.parent >= 0 then
        children.(s.parent) <- (spans.(i).start, spans.(i).stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      Float.max 0.0 (duration s -. covered ~lo:s.start ~hi:s.stop children.(i)))
    spans

(* Self time summed per span name, in first-seen order. *)
let self_by_name spans =
  let self = self_times spans in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self.(i))
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name self.(i))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* ---------- reconciliation ---------- *)

(* What a measured whole leaves unexplained by its measured parts. *)
let residual ~whole parts = whole -. List.fold_left ( +. ) 0.0 parts
