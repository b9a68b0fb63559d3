module Fork = Msts_platform.Fork

type vnode = { slave : int; rank : int; comm : int; work : int }

let virtual_work ~c ~w ~rank = w + (rank * max c w)

let compare_alloc a b =
  let by_comm = Int.compare a.comm b.comm in
  if by_comm <> 0 then by_comm
  else begin
    let by_work = Int.compare a.work b.work in
    if by_work <> 0 then by_work
    else begin
      let by_slave = Int.compare a.slave b.slave in
      if by_slave <> 0 then by_slave else Int.compare a.rank b.rank
    end
  end

let expand fork ~count =
  if count < 0 then invalid_arg "Expansion.expand: negative count";
  let per_slave j =
    let c = Fork.latency fork j and w = Fork.work fork j in
    List.init count (fun rank ->
        { slave = j; rank; comm = c; work = virtual_work ~c ~w ~rank })
  in
  List.sort compare_alloc
    (List.concat_map per_slave
       (Msts_util.Intx.range 1 (Fork.slave_count fork)))
