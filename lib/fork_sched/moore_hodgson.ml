(* Nodes in EDF order (non-increasing work), each tagged with its comm
   class; class 0 holds the largest comm.  [held] is the per-class count
   of nodes currently on the port, reset by every [count]. *)
type t = {
  work : int array;
  margin : int array; (* comm + work: least deadline admitting the node *)
  cls : int array;
  class_comm : int array;
  held : int array;
  mutable scanned : int;
}

let make ~comm ~work =
  let n = Array.length comm in
  if Array.length work <> n then invalid_arg "Moore_hodgson.make: length mismatch";
  for i = 0 to n - 1 do
    if comm.(i) < 0 || work.(i) < 0 then
      invalid_arg "Moore_hodgson.make: negative comm or work";
    if i > 0 && work.(i - 1) < work.(i) then
      invalid_arg "Moore_hodgson.make: work rises (nodes not in due-date order)"
  done;
  (* the distinct comm values, largest first *)
  let seen = Array.make n 0 and distinct = ref 0 in
  Array.iter
    (fun c ->
      let k = ref 0 in
      while !k < !distinct && seen.(!k) <> c do
        incr k
      done;
      if !k = !distinct then begin
        seen.(!distinct) <- c;
        incr distinct
      end)
    comm;
  let class_comm = Array.sub seen 0 !distinct in
  Array.sort (fun a b -> Int.compare b a) class_comm;
  let class_of c =
    let k = ref 0 in
    while class_comm.(!k) <> c do
      incr k
    done;
    !k
  in
  {
    work = Array.copy work;
    margin = Array.init n (fun i -> comm.(i) + work.(i));
    cls = Array.map class_of comm;
    class_comm;
    held = Array.make (Array.length class_comm) 0;
    scanned = 0;
  }

let scanned t = t.scanned

(* Moore–Hodgson over the fixed EDF order: take every node present at
   [deadline]; when the port's busy time plus the node's work overshoots,
   drop a held node of the largest comm.  [top] is the least class with a
   held node.  The running count never decreases, so the scan stops as
   soon as it reaches [budget].  Plain loops over local refs: no closure,
   no allocation. *)
let count t ~deadline ~budget =
  if deadline < 0 then invalid_arg "Moore_hodgson.count: negative deadline";
  if budget < 0 then invalid_arg "Moore_hodgson.count: negative budget";
  let held = t.held and classes = Array.length t.class_comm in
  Array.fill held 0 classes 0;
  let n = Array.length t.work in
  let i = ref 0 and busy = ref 0 and count = ref 0 and top = ref classes in
  while !i < n && !count < budget do
    if t.margin.(!i) <= deadline then begin
      let c = t.cls.(!i) in
      held.(c) <- held.(c) + 1;
      busy := !busy + t.class_comm.(c);
      if c < !top then top := c;
      if !busy + t.work.(!i) <= deadline then incr count
      else begin
        held.(!top) <- held.(!top) - 1;
        busy := !busy - t.class_comm.(!top);
        while !top < classes && held.(!top) = 0 do
          incr top
        done
      end
    end;
    incr i
  done;
  t.scanned <- !i;
  !count
