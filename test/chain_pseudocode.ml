module Chain = Msts_platform.Chain
module Schedule = Msts_schedule.Schedule

(* Definition 3 on list-shaped vectors, as used by the figure's
   [if C(i) ≺ kC(i)] test. *)
let rec precedes a b =
  match (a, b) with
  | [], [] -> false
  | _ :: _, [] -> true (* longer extends equal prefix: smaller *)
  | [], _ :: _ -> false
  | x :: a', y :: b' -> x < y || (x = y && precedes a' b')

let schedule chain n =
  if n < 0 then invalid_arg "Pseudocode.schedule: negative task count";
  let p = Chain.length chain in
  let c k = Chain.latency chain k and w k = Chain.work chain k in
  (* T∞ = c1 + (n-1) * max(w1,c1) + w1 *)
  let t_infinity = if n = 0 then 0 else c 1 + ((n - 1) * max (w 1) (c 1)) + w 1 in
  (* Initialisation of h and o vectors. *)
  let h = Array.make (p + 1) t_infinity and o = Array.make (p + 1) t_infinity in
  (* Initialisation of C(i): the all-zero vector. *)
  let cvec = Array.make (n + 1) [] in
  for i = 1 to n do
    cvec.(i) <- List.init p (fun _ -> 0)
  done;
  let pvec = Array.make (n + 1) 0 and tvec = Array.make (n + 1) 0 in
  (* Computation of the communication vectors. *)
  for i = n downto 1 do
    for k = p downto 1 do
      (* kC_k = min(o_k - w_k - c_k, h_k - c_k), then backwards to link 1 *)
      let kc = Array.make (k + 1) 0 in
      kc.(k) <- min (o.(k) - w k - c k) (h.(k) - c k);
      for j = k - 1 downto 1 do
        kc.(j) <- min (kc.(j + 1) - c j) (h.(j) - c j)
      done;
      let candidate = List.init k (fun idx -> kc.(idx + 1)) in
      if precedes cvec.(i) candidate then cvec.(i) <- candidate
    done;
    pvec.(i) <- List.length cvec.(i);
    tvec.(i) <- o.(pvec.(i)) - w pvec.(i);
    o.(pvec.(i)) <- tvec.(i);
    List.iteri (fun idx x -> h.(idx + 1) <- x) cvec.(i)
  done;
  (* Apply the time shift of C¹₁. *)
  let shift = if n = 0 then 0 else List.hd cvec.(1) in
  for i = n downto 1 do
    tvec.(i) <- tvec.(i) - shift;
    cvec.(i) <- List.map (fun x -> x - shift) cvec.(i)
  done;
  Schedule_reference.chain_plan chain
    (Array.init n (fun idx ->
         let i = idx + 1 in
         {
           Schedule_reference.Schedule.proc = pvec.(i);
           start = tvec.(i);
           comms = Array.of_list cvec.(i);
         }))
