(* The benchmark's reducers on hand-built inputs: percentiles and
   quartiles (checked against values Python's statistics module gives),
   self times of nested spans, and the reconciliation residual. *)

let failures = ref 0

let close ?(eps = 1e-9) what want got =
  if Float.abs (want -. got) > eps then begin
    incr failures;
    Printf.printf "FAIL %s: want %g, got %g\n" what want got
  end

let range a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

let percentiles () =
  let five = [| 5.; 1.; 4.; 2.; 3. |] in
  close "p0" 1.0 (Reduce.percentile five 0.0);
  close "p25" 2.0 (Reduce.percentile five 0.25);
  close "p50" 3.0 (Reduce.median five);
  close "p100" 5.0 (Reduce.percentile five 1.0);
  close "p99 of 1..100" 99.01 (Reduce.percentile (range 1 100) 0.99);
  close "interpolated median" 2.5 (Reduce.median [| 4.; 1.; 3.; 2. |]);
  (* 1..1000: p99 = 990.01, so 991..1000 lie beyond it *)
  close "beyond p99" 10.0
    (float_of_int (Reduce.beyond_sorted (Reduce.sorted (range 1 1000)) 0.99))

(* statistics.quantiles(data, n=4) *)
let quartiles () =
  let check what data (a, b, c) =
    let q1, q2, q3 = Reduce.quartiles data in
    close (what ^ " q1") a q1;
    close (what ^ " q2") b q2;
    close (what ^ " q3") c q3
  in
  check "1..10" (range 1 10) (2.75, 5.5, 8.25);
  check "1..4" [| 4.; 3.; 2.; 1. |] (1.25, 2.5, 3.75);
  check "two samples" [| 3.; 1. |] (0.5, 2.0, 3.5)

let windows () =
  let chunk n = Array.make n 1.0 in
  let sizes ws = List.map Array.length ws in
  let check what want got =
    if want <> got then begin
      incr failures;
      Printf.printf "FAIL %s: want [%s], got [%s]\n" what
        (String.concat ";" (List.map string_of_int want))
        (String.concat ";" (List.map string_of_int got))
    end
  in
  check "whole chunks" [ 5; 5 ] (sizes (Reduce.windows ~min:5 [ chunk 5; chunk 5 ]));
  check "grouped" [ 6; 6 ] (sizes (Reduce.windows ~min:5 [ chunk 3; chunk 3; chunk 3; chunk 3 ]));
  check "remainder joins the last" [ 7 ] (sizes (Reduce.windows ~min:5 [ chunk 5; chunk 2 ]));
  check "too few for one" [ 3 ] (sizes (Reduce.windows ~min:5 [ chunk 1; chunk 2 ]));
  let ws = [ range 1 100; range 101 200; Array.map (fun x -> x *. 1000.0) (range 1 100) ] in
  close "windowed p50" 150.5 (Reduce.windowed_percentile ws 0.5)

let span name start stop parent = { Reduce.name; start; stop; parent; req = 0 }

let self_times () =
  (* root [0,10] with sequential children: they tile 8 of its 10 us *)
  let seq = [| span "root" 0. 10. (-1); span "x" 1. 4. 0; span "y" 4. 9. 0 |] in
  let self = Reduce.self_times seq in
  close "root self" 2.0 self.(0);
  close "x self" 3.0 self.(1);
  close "y self" 5.0 self.(2);
  close "self times partition the root" 10.0 (Array.fold_left ( +. ) 0.0 self);
  (* overlapping children count once against their parent; a grandchild
     only against its own parent *)
  let nested =
    [|
      span "root" 0. 100. (-1);
      span "a" 10. 30. 0;
      span "b" 20. 50. 0;
      span "c" 60. 70. 0;
      span "a.inner" 12. 14. 1;
      span "c" 200. 205. (-1);
    |]
  in
  let self = Reduce.self_times nested in
  close "root self under overlap" 50.0 self.(0);
  close "a self" 18.0 self.(1);
  close "b self" 30.0 self.(2);
  close "grandchild self" 2.0 self.(4);
  close "c self summed by name" 15.0 (List.assoc "c" (Reduce.self_by_name nested));
  (* a child sticking out of its parent is clipped to it *)
  let clipped = [| span "p" 0. 10. (-1); span "q" 8. 15. 0 |] in
  close "clipped child" 8.0 (Reduce.self_times clipped).(0)

let residuals () =
  close "residual" 3.0 (Reduce.residual ~whole:10.0 [ 3.0; 4.0 ]);
  close "negative residual" (-2.0) (Reduce.residual ~whole:5.0 [ 7.0 ])

let () =
  percentiles ();
  quartiles ();
  windows ();
  self_times ();
  residuals ();
  if !failures > 0 then begin
    Printf.printf "%d reducer check(s) failed\n" !failures;
    exit 1
  end
