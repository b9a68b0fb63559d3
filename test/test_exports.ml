(* Tests for the exports guard's scan (test/exports/exports_scan.ml) on the
   compiled fixture trees under test/exports/fixtures/: each is a small
   checkout with lib/, bin/, ... directories whose .cmt files dune builds
   like the repository's own. *)

open Helpers

(* The tests run in the build tree's test/ directory. *)
let build = ".."

let sources =
  lazy
    (In_channel.with_open_bin "exports/fixture_sources.txt" In_channel.input_all
    |> String.split_on_char ' ' |> List.map String.trim
    |> List.filter (fun s -> s <> ""))

(* The guard's findings on fixture [case] with an allowlist of [allow]
   lines. *)
let findings ?(allow = []) case =
  let allowlist = Filename.temp_file "msts_exports" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove allowlist)
    (fun () ->
      Out_channel.with_open_bin allowlist (fun oc ->
          output_string oc (String.concat "\n" allow));
      Exports_scan.findings ~build
        ~root:("test/exports/fixtures/" ^ case)
        ~sources:(Lazy.force sources) ~allowlist)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_findings what expected got =
  Alcotest.(check int) (what ^ ": count") (List.length expected) (List.length got);
  List.iter2
    (fun sub msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S in %S" what sub msg) true
        (contains ~sub msg))
    expected got

(* Each fixture's lib/a/x.mli declares f and g; bin/ calls f. *)

let called_vals_pass () =
  check_findings "g called from examples/, an operator through a local open" []
    (findings "called")

let uncalled_val_fails () =
  check_findings "g used by its own .ml only" [ "lib/a/x.mli: val g has no caller" ]
    (findings "own_only")

let sibling_module_is_a_caller () =
  check_findings "g called from lib/a/y.ml" [] (findings "sibling")

let unrelated_name_is_no_caller () =
  (* bench/b.ml binds and reads a local [g]: a word scan sees the name,
     the resolver sees no path to X.g *)
  check_findings "g only as an unrelated local name" [ "lib/a/x.mli: val g has no caller" ]
    (findings "unqualified")

let skipped_directories () =
  check_findings "callers in test/ and tools/, mlis outside lib/*/"
    [ "lib/a/x.mli: val g has no caller" ]
    (findings "skipped")

let copied_test_file_is_no_caller () =
  check_findings "g named only by a test file and its copy_files copy under bench/"
    [ "lib/a/x.mli: val g has no caller" ]
    (findings "copied")

let aliases_resolve () =
  check_findings "facade alias, local alias, include, open; Sub.k uncalled"
    [ "lib/a/x.mli: val Sub.k has no caller" ]
    (findings "aliases")

let functor_argument_is_a_caller () =
  check_findings "X passed whole to Hashtbl.Make" [] (findings "functor_arg")

let uncalled_operator_fails () =
  check_findings "( +! ) used by its own .ml only" [ "lib/a/x.mli: val +! has no caller" ]
    (findings "operator")

let allowlist_keeps_a_val () =
  check_findings "g allowlisted" []
    (findings
       ~allow:[ "# comment"; ""; "lib/a/x.mli g kept as a documented entry point" ]
       "own_only")

let stale_entry_fails () =
  check_findings "f is called" [ "allowlist: lib/a/x.mli f is not an uncalled val" ]
    (findings ~allow:[ "lib/a/x.mli g documented"; "lib/a/x.mli f documented" ] "own_only")

let entry_without_reason_fails () =
  check_findings "no reason" [ "allowlist: lib/a/x.mli g gives no reason" ]
    (findings ~allow:[ "lib/a/x.mli g" ] "own_only")

let suites =
  [
    ( "exports.guard",
      [
        case "vals called from another module pass" called_vals_pass;
        case "a val used only by its own module fails" uncalled_val_fails;
        case "another module of the library is a caller" sibling_module_is_a_caller;
        case "an unrelated identifier of the same name is no caller"
          unrelated_name_is_no_caller;
        case "test/ and other directories, mlis outside lib/*/ are skipped"
          skipped_directories;
        case "a copy of a test file is no caller" copied_test_file_is_no_caller;
        case "facade, local and included aliases and opens resolve" aliases_resolve;
        case "a functor argument is a caller of each of its vals"
          functor_argument_is_a_caller;
        case "an operator with no caller fails" uncalled_operator_fails;
        case "an allowlist entry keeps an uncalled val" allowlist_keeps_a_val;
        case "a stale allowlist entry fails" stale_entry_fails;
        case "an allowlist entry without a reason fails" entry_without_reason_fails;
      ] );
  ]
