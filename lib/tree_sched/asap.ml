type state = {
  flat : Flat.t;
  port_free : int array; (* index = node id; 0 = the master *)
  proc_free : int array; (* index = node id - 1 *)
}

let start flat =
  {
    flat;
    port_free = Array.make (Flat.node_count flat + 1) 0;
    proc_free = Array.make (Flat.node_count flat) 0;
  }

let copy st =
  {
    flat = st.flat;
    port_free = Array.copy st.port_free;
    proc_free = Array.copy st.proc_free;
  }

(* Each hop claims its sender's port from the task's arrival there; the
   date the task reaches the end of [path] is returned. *)
let rec walk st emissions pos sender available = function
  | [] -> available
  | node_id :: rest ->
      let c = (Flat.info st.flat node_id).Flat.latency in
      let emit = max available st.port_free.(sender) in
      emissions.(pos) <- emit;
      st.port_free.(sender) <- emit + c;
      walk st emissions (pos + 1) node_id (emit + c) rest

let push st ~dest ~emissions ~pos =
  let info = Flat.info st.flat dest in
  let arrival = walk st emissions pos 0 0 info.Flat.path in
  let begin_ = max arrival st.proc_free.(dest - 1) in
  st.proc_free.(dest - 1) <- begin_ + info.Flat.work;
  begin_

(* Room for the emissions of a task on the deepest node. *)
let hops flat =
  Array.make (List.fold_left (fun m info -> max m info.Flat.depth) 1 (Flat.nodes flat)) 0

let of_sequence flat seq =
  let n = Array.length seq in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + (Flat.info flat seq.(i)).Flat.depth
  done;
  let st = start flat and emissions = Array.make offsets.(n) 0 in
  let starts = Array.init n (fun i -> push st ~dest:seq.(i) ~emissions ~pos:offsets.(i)) in
  Tree_schedule.of_columns flat ~nodes:(Array.copy seq) ~starts ~offsets ~emissions

let makespan flat seq =
  let st = start flat and emissions = hops flat in
  Array.fold_left
    (fun acc dest ->
      max acc (push st ~dest ~emissions ~pos:0 + (Flat.info flat dest).Flat.work))
    0 seq
