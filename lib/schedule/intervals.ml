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

type lane = { label : string; intervals : int interval list }
