(* The daemon's JSONL framing without a socket: the input splitter under
   arbitrary read chunkings, and the output queue against a writer that
   takes arbitrary short counts. *)

open Helpers
module Framing = Msts_serve.Framing

let read_size = 65536

(* ---------- input ---------- *)

(* Lines of a frame stream: JSON-ish text, empty and whitespace-only
   lines, now and then one longer than a read. *)
let line_gen =
  Gen.(
    frequency
      [
        (6, string_size ~gen:(map (String.get "{}\":,ab01 \t\r") (int_bound 11)) (int_range 1 40));
        (1, return "");
        (1, string_size ~gen:(map (String.get " \t\r\012") (int_bound 3)) (int_range 1 4));
        (1, map (fun n -> String.make n 'x' ^ "}") (int_range (read_size - 2) (read_size + 5000)));
      ])

(* The stream, and a seed for how it is cut into reads. *)
let stream_gen =
  Gen.(
    triple (list_size (int_range 0 12) line_gen) (opt (string_size ~gen:(return 'y') (int_range 1 30))) int)

let stream_arb =
  QCheck.make
    ~print:(fun (lines, tail, seed) ->
      Printf.sprintf "%d lines (lengths %s), tail %s, seed %d" (List.length lines)
        (String.concat "," (List.map (fun l -> string_of_int (String.length l)) lines))
        (match tail with None -> "none" | Some t -> string_of_int (String.length t))
        seed)
    stream_gen

(* Read sizes: 1-byte reads, cuts on and beside every '\n', or random
   sizes up to a full read. *)
let cuts stream seed =
  let rng = Random.State.make [| seed |] in
  let n = String.length stream in
  let mode = abs seed mod 3 in
  let rec go from acc =
    if from >= n then List.rev acc
    else
      let size =
        match mode with
        | 0 when n <= 4096 -> 1
        | 1 -> (
            match String.index_from_opt stream from '\n' with
            | Some nl -> max 1 (nl - from + Random.State.int rng 3 - 1)
            | None -> n - from)
        | _ -> 1 + Random.State.int rng read_size
      in
      let size = min size (min read_size (n - from)) in
      go (from + size) (size :: acc)
  in
  go 0 []

let splitter_matches_split_on_char =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"splitter = non-blank pieces of split_on_char"
       stream_arb (fun (lines, tail, seed) ->
         let stream =
           String.concat "" (List.map (fun l -> l ^ "\n") lines)
           ^ Option.value tail ~default:""
         in
         let input = Framing.input () in
         let got = ref [] in
         (* one chunk reused for every read, its stale bytes full of '\n' *)
         let chunk = Bytes.make read_size '\n' in
         let from = ref 0 in
         List.iter
           (fun size ->
             let off = if size < read_size then seed land 7 mod (read_size - size + 1) else 0 in
             Bytes.fill chunk 0 read_size '\n';
             Bytes.blit_string stream !from chunk off size;
             Framing.feed input chunk off size (fun line -> got := line :: !got);
             from := !from + size)
           (cuts stream seed);
         let pieces = String.split_on_char '\n' stream in
         let complete = List.filteri (fun i _ -> i < List.length pieces - 1) pieces in
         let want = List.filter (fun l -> String.trim l <> "") complete in
         List.rev !got = want
         && Framing.pending input = String.length (List.nth pieces (List.length pieces - 1))))

(* ---------- output ---------- *)

let reply_gen =
  Gen.(
    frequency
      [
        (1, string_size ~gen:printable (int_range 0 300));
        (4, string_size ~gen:printable (int_range 3000 4095));
        (1, string_size ~gen:printable (int_range 4096 5000));
        (1, string_size ~gen:printable (int_range 60000 100000));
      ])

let output_arb =
  QCheck.make
    ~print:(fun (replies, seed) ->
      Printf.sprintf "reply lengths %s, seed %d"
        (String.concat "," (List.map (fun r -> string_of_int (String.length r)) replies))
        seed)
    Gen.(pair (list_size (int_range 0 50) reply_gen) int)

let output_writes_replies_in_order =
  to_alcotest
    (QCheck.Test.make ~count:200 ~name:"output queue writes the replies, in order, under short writes"
       output_arb (fun (replies, seed) ->
         let rng = Random.State.make [| seed |] in
         let out = Framing.output () in
         let written = Buffer.create 1024 in
         let write buf off len =
           if len <= 0 then QCheck.Test.fail_report "offered an empty write";
           let n = match Random.State.int rng 4 with 0 -> 0 | 1 -> len | _ -> Random.State.int rng (len + 1) in
           Buffer.add_subbytes written buf off n;
           n
         in
         (* pushes interleave with flushes, then the backlog drains *)
         List.iter
           (fun r ->
             Framing.push out r;
             if Random.State.bool rng then Framing.flush out ~write)
           replies;
         let rounds = ref 0 in
         while not (Framing.is_empty out) do
           incr rounds;
           if !rounds > 100_000 then QCheck.Test.fail_report "no progress";
           Framing.flush out ~write
         done;
         Buffer.contents written = String.concat "" replies))

(* A long head goes out from its own string; a run of short replies goes
   out in one write. *)
let long_in_place_short_gathered () =
  let out = Framing.output () in
  let long = String.make 5000 'L' in
  let calls = ref [] in
  let write buf off len =
    calls := (buf == Bytes.unsafe_of_string long, off, len) :: !calls;
    len
  in
  Framing.push out long;
  List.iter (Framing.push out) [ "a\n"; "bb\n"; "ccc\n" ];
  Framing.flush out ~write;
  Alcotest.(check (list (triple bool int int)))
    "two writes: the long reply in place, then the short ones together"
    [ (true, 0, 5000); (false, 0, 9) ]
    (List.rev !calls);
  Alcotest.(check bool) "drained" true (Framing.is_empty out);
  (* 40 short replies of 4000 bytes: 16 fit one 64 KiB gather *)
  calls := [];
  for _ = 1 to 40 do
    Framing.push out (String.make 4000 's')
  done;
  Framing.flush out ~write;
  Alcotest.(check (list (triple bool int int)))
    "three gathered writes" [ (false, 0, 64000); (false, 0, 64000); (false, 0, 32000) ]
    (List.rev !calls)

let suites =
  [
    ( "serve.framing",
      [
        splitter_matches_split_on_char;
        output_writes_replies_in_order;
        case "long replies in place, short ones gathered" long_in_place_short_gathered;
      ] );
  ]
