type 'tag interval = { start : int; duration : int; tag : 'tag }

let sorted ivs =
  List.sort (fun a b -> Int.compare a.start b.start) ivs

let overlap_witness ivs =
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if a.duration > 0 && b.duration > 0 && a.start + a.duration > b.start
        then Some (a, b)
        else scan rest
    | [] | [ _ ] -> None
  in
  scan (sorted ivs)

let utilisation ivs ~horizon =
  if horizon <= 0 then 0.0
  else begin
    let busy =
      List.fold_left (fun acc iv -> acc + iv.duration) 0 ivs
    in
    float_of_int busy /. float_of_int horizon
  end
