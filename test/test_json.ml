(* Differential suite for the JSON codec: the allocation-light printer and
   scanner in lib/obs/json.ml against the plain implementation they
   replaced (json_reference.ml).  Printing must agree byte for byte on
   every finite tree, parsing must agree on every input — the value or
   the exact "byte N: msg" error. *)

open Helpers
module Json = Msts.Json

(* ---------- generators ---------- *)

let byte_string_gen = Gen.(string_size ~gen:char (int_range 0 24))

let int_gen =
  Gen.(
    frequency
      [
        (3, small_signed_int);
        (3, int);
        ( 2,
          oneofl
            [
              min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1;
              999_999_999_999_999_999; -999_999_999_999_999_999;
              1_000_000_000_000_000_000; -1_000_000_000_000_000_000;
            ] );
      ])

(* finite floats: the two printers differ, by design, on nan and
   infinities (see [non_finite_floats_print_null]) *)
let float_gen =
  Gen.(
    frequency
      [
        (3, map (fun f -> if Float.is_finite f then f else 0.5) float);
        (2, map float_of_int small_signed_int);
        (2, map (fun i -> float_of_int i /. 100.0) small_signed_int);
        (1, oneofl [ 0.0; -0.0; 1e15; -1e15; 1e-300; 5e-324; max_float; min_float; 0.1 ]);
      ])

let leaf_gen =
  Gen.(
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) int_gen);
        (2, map (fun f -> Json.Float f) float_gen);
        (3, map (fun s -> Json.String s) byte_string_gen);
      ])

let tree_gen =
  Gen.(
    sized_size (int_range 0 40)
    @@ fix (fun self size ->
           if size <= 1 then leaf_gen
           else
             frequency
               [
                 (2, leaf_gen);
                 ( 2,
                   map
                     (fun items -> Json.List items)
                     (list_size (int_range 0 4) (self (size / 2))) );
                 ( 2,
                   map
                     (fun fields -> Json.Obj fields)
                     (list_size (int_range 0 4)
                        (pair byte_string_gen (self (size / 2)))) );
               ]))

(* a leaf wrapped in up to 300 single-element lists and objects *)
let deep_gen =
  Gen.(
    map2
      (fun leaf wrappers ->
        List.fold_left
          (fun inner in_list ->
            if in_list then Json.List [ inner ] else Json.Obj [ ("k", inner) ])
          leaf wrappers)
      leaf_gen
      (list_size (int_range 0 300) bool))

let any_tree_gen = Gen.(frequency [ (4, tree_gen); (1, deep_gen) ])
let tree_arb = QCheck.make ~print:(fun t -> Json_reference.to_string t) any_tree_gen

(* Frames: printed trees and wire requests, then a few byte-level
   mutations biased towards the characters the scanner branches on. *)
let significant = "{}[]\",:\\/ \t\n\r-+.eE0123456789tfnulbu_"

let mutate_gen text =
  Gen.(
    let byte =
      frequency
        [ (3, map (String.get significant) (int_bound (String.length significant - 1))); (1, char) ]
    in
    let mutation s =
      let n = String.length s in
      if n = 0 then map (String.make 1) byte
      else
        int_bound (n - 1) >>= fun at ->
        frequency
          [
            (2, return (String.sub s 0 at));
            (2, return (String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)));
            ( 2,
              map
                (fun c -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at))
                byte );
            ( 2,
              map
                (fun c ->
                  String.sub s 0 at ^ String.make 1 c ^ String.sub s (at + 1) (n - at - 1))
                byte );
          ]
    in
    int_range 0 3 >>= fun k ->
    let rec apply k s = if k = 0 then return s else mutation s >>= apply (k - 1) in
    apply k text)

let request_line_gen =
  Gen.(
    map2
      (fun chains tasks ->
        let problems =
          Array.of_list
            (List.map
               (fun chain ->
                 Msts.Solve.problem ~tasks (Msts.Platform_format.Chain_platform chain))
               chains)
        in
        String.trim
          (Msts.Api.request_to_line
             { Msts.Api.id = Some tasks; trace = Some "t\"1"; op = Msts.Api.Batch problems }))
      (list_size (int_range 1 3) (chain_gen ()))
      (int_range 0 20))

let frame_gen =
  Gen.(
    frequency
      [
        (2, map2 (fun t pretty -> Json_reference.to_string ~pretty t) tree_gen bool);
        (2, request_line_gen);
        (1, string_size ~gen:(map (String.get significant) (int_bound (String.length significant - 1))) (int_range 0 30));
      ]
    >>= fun text -> frequency [ (1, return text); (3, mutate_gen text) ])

let frame_arb = QCheck.make ~print:String.escaped frame_gen

(* ---------- properties ---------- *)

let printer_matches_reference =
  to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"to_string = reference, both modes" tree_arb
       (fun t ->
         List.for_all
           (fun pretty ->
             let got = Json.to_string ~pretty t
             and want = Json_reference.to_string ~pretty t in
             got = want
             || QCheck.Test.fail_reportf "pretty=%b:\n got %S\nwant %S" pretty got want)
           [ false; true ]))

let parser_matches_reference_on_trees =
  to_alcotest
    (QCheck.Test.make ~count:500 ~name:"parse = reference on printed trees" tree_arb
       (fun t ->
         List.for_all
           (fun pretty ->
             let text = Json_reference.to_string ~pretty t in
             Json.parse text = Json_reference.parse text)
           [ false; true ]))

let parser_matches_reference_on_frames =
  to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"parse = reference on mutated frames, errors included"
       frame_arb (fun text ->
         let got = Json.parse text and want = Json_reference.parse text in
         got = want
         ||
         let show = function
           | Ok v -> "Ok " ^ Json_reference.to_string v
           | Error e -> "Error " ^ e
         in
         QCheck.Test.fail_reportf "got %s\nwant %s" (show got) (show want)))

let edge_cases_match_reference () =
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %S" text)
        true
        (Json.parse text = Json_reference.parse text))
    [
      ""; " "; "\000"; "-"; "--1"; "-0"; "007"; "1."; ".5"; "-e5"; "1e"; "1e+";
      "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "4611686018427387903"; "-4611686018427387904"; "4611686018427387904";
      "99999999999999999999999"; "\"\\u00e9\\u0001\\uffff\""; "\"\\u12\"";
      "\"\\uzzzz\""; "\"abc"; "\"ab\\"; "\"\\q\""; "[1,]"; "{\"a\" 1}";
      "{\"a\":1,}"; "[1 2]"; "nul"; "truex"; "[] x"; "{\"\000\":\"\255\"}";
      "\"a\\n\\t\\\"b\\/\\\\\\b\\f\\r\""; "\"\\n\\u0041\\n\""; "\"\\n\\q\"";
      "\"x\\n"; "\"x\\n\\"; "\"\\n\\u00\""; "[\"\\n\",\"\\t\\u00e9\"]"; "\"\\u0_41\"";
      "\"\\u00_4\"";
    ]

(* [int_of_string "0x…"] takes underscores: a \u escape must be four hex
   digits, and anything else fails after them, where it always did. *)
let unicode_escapes_need_four_hex_digits () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check (result string string)) text want
        (Result.map
           (function Json.String s -> s | v -> Json.to_string v)
           (Json.parse text)))
    [
      ({|"\u0041\u00e9"|}, Ok "A\xc3\xa9");
      ({|"\u00AF"|}, Ok "\xc2\xaf");
      ({|"\u0_41"|}, Error "byte 7: bad \\u escape");
      ({|"\u00_4"|}, Error "byte 7: bad \\u escape");
      ({|"a\u+041"|}, Error "byte 8: bad \\u escape");
      ({|"\u 041"|}, Error "byte 7: bad \\u escape");
    ]

let non_finite_floats_print_null () =
  List.iter
    (fun (name, x) ->
      Alcotest.(check string) name "null" (Json.to_string (Json.Float x));
      match Json.parse (Json.to_string (Json.List [ Json.Float x; Json.Int 1 ])) with
      | Ok (Json.List [ Json.Null; Json.Int 1 ]) -> ()
      | Ok other -> Alcotest.failf "%s re-read as %s" name (Json.to_string other)
      | Error e -> Alcotest.failf "%s output rejected: %s" name e)
    [ ("nan", Float.nan); ("infinity", Float.infinity); ("neg_infinity", Float.neg_infinity) ]

(* [to_string] runs on pool domains: four domains printing the same
   trees at once must each produce the sequential bytes. *)
let concurrent_printing_identical () =
  let trees =
    QCheck.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:40 any_tree_gen
  in
  let big =
    Json.List
      (List.init 2000 (fun i ->
           Json.Obj
             [ ("instance", Json.Int i); ("kind", Json.String "chain\n\"x\"");
               ("makespan", Json.Int (max_int - i)); ("f", Json.Float (float_of_int i /. 7.0)) ]))
  in
  let trees = big :: trees in
  let print_all () =
    List.concat_map
      (fun t -> [ Json.to_string t; Json.to_string ~pretty:true t ])
      trees
  in
  let expected = print_all () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.init 10 (fun _ -> print_all ())))
  in
  List.iteri
    (fun d domain ->
      List.iter
        (fun got ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d output = sequential output" d)
            true (got = expected))
        (Domain.join domain))
    domains

(* The per-domain scratch writer is lent out, not shared: a print
   nested inside another, a print after one that raised, and one past
   the retained size all produce the reference bytes. *)
let scratch_writer_reuse () =
  let tree = Json.Obj [ ("a", Json.List [ Json.Int (-7); Json.String "q\"\\" ]) ] in
  let want = Json_reference.to_string tree in
  let nested =
    Json.Writer.to_string (fun w ->
        Json.Writer.raw w "[";
        Json.Writer.raw w (Json.to_string tree);
        Json.Writer.char w ',';
        Json.Writer.value w tree;
        Json.Writer.raw w "]")
  in
  Alcotest.(check string) "nested print" ("[" ^ want ^ "," ^ want ^ "]") nested;
  (match
     Json.Writer.to_string (fun w ->
         Json.Writer.int w 42;
         failwith "mid-write")
   with
  | _ -> Alcotest.fail "the writer swallowed an exception"
  | exception Failure _ -> ());
  Alcotest.(check string) "print after a raise" want (Json.to_string tree);
  let huge = Json.String (String.make (3 lsl 20) 'x') in
  Alcotest.(check string) "print past the retained size"
    (Json_reference.to_string huge) (Json.to_string huge);
  Alcotest.(check string) "print after the huge one" want (Json.to_string tree)

let suites =
  [
    ( "json.differential",
      [
        printer_matches_reference;
        parser_matches_reference_on_trees;
        parser_matches_reference_on_frames;
        case "edge cases match the reference" edge_cases_match_reference;
        case "\\u escapes need exactly four hex digits"
          unicode_escapes_need_four_hex_digits;
        case "non-finite floats print as null" non_finite_floats_print_null;
        case "concurrent to_string is identical" concurrent_printing_identical;
        case "scratch writer: nested, after a raise, oversized"
          scratch_writer_reuse;
      ] );
  ]
