(* Tests for the exports guard's scan (test/exports/exports_scan.ml) on
   small fixture checkouts written to a temporary directory. *)

open Helpers

let scanned_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The guard's findings on a checkout holding [files] ([(path, text)],
   paths relative to the root) and an allowlist of [allow] lines. *)
let findings ?(allow = []) files =
  let root = Filename.temp_dir "msts_exports" "" in
  Fun.protect
    ~finally:(fun () -> remove root)
    (fun () ->
      List.iter (fun d -> mkdir_p (Filename.concat root d)) scanned_dirs;
      List.iter
        (fun (path, text) ->
          let path = Filename.concat root path in
          mkdir_p (Filename.dirname path);
          Out_channel.with_open_bin path (fun oc -> output_string oc text))
        files;
      let allowlist = Filename.concat root "allowlist.txt" in
      Out_channel.with_open_bin allowlist (fun oc ->
          output_string oc (String.concat "\n" allow));
      Exports_scan.findings ~root ~allowlist)

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

(* lib/a/x.mli declares f and g; f is called from bin/. *)
let x_module =
  [
    ("lib/a/x.mli", "val f : int\n(** doc *)\n\nval g : int -> int\n");
    ("lib/a/x.ml", "let f = 1\nlet g n = n + f\n");
    ("bin/main.ml", "let () = print_int Msts_a.X.f\n");
  ]

let called_vals_pass () =
  check_findings "g called from examples/" []
    (findings (("examples/demo.ml", "let () = print_int (X.g 2)\n") :: x_module))

let uncalled_val_fails () =
  (* g's only other mention is in x.ml itself *)
  check_findings "g used by its own .ml only" [ "lib/a/x.mli: val g has no caller" ]
    (findings x_module)

let sibling_module_is_a_caller () =
  check_findings "g called from lib/a/y.ml" []
    (findings (("lib/a/y.ml", "let h = X.g 1\n") :: x_module))

let whole_words_only () =
  check_findings "g only inside longer words" [ "val g" ]
    (findings (("bench/b.ml", "let g_extra = my_g + g'\n") :: x_module))

let skipped_files_and_signatures () =
  check_findings "hidden and _build callers, operators, deeper and non-lib mlis"
    [ "val g" ]
    (findings
       ([
          ("lib/_build/copy.ml", "let _ = X.g\n");
          ("lib/.hidden/copy.ml", "let _ = X.g\n");
          ("lib/a/sub/deep.mli", "val deep_uncalled : int\n");
          ("lib/a/ops.mli", "val ( +! ) : int -> int -> int\n");
          ("bin/tool.mli", "val tool_uncalled : int\n");
        ]
       @ x_module))

let copied_test_file_is_no_caller () =
  let oracle = "let _ = X.g 1\n" in
  check_findings "g named only by a test file and its copy under bench/"
    [ "lib/a/x.mli: val g has no caller" ]
    (findings
       ([
          ("test/oracle.ml", oracle);
          ("bench/dune", "(copy_files ../test/oracle.ml)\n");
          ("bench/oracle.ml", oracle);
        ]
       @ x_module));
  check_findings "a bench file that differs from the test file still calls" []
    (findings
       ([ ("test/oracle.ml", oracle); ("bench/oracle.ml", oracle ^ "let h = 2\n") ]
       @ x_module))

let allowlist_keeps_a_val () =
  check_findings "g allowlisted" []
    (findings
       ~allow:[ "# comment"; ""; "lib/a/x.mli g kept as a documented entry point" ]
       x_module)

let stale_entry_fails () =
  check_findings "f is called" [ "allowlist: lib/a/x.mli f is not an uncalled val" ]
    (findings
       ~allow:[ "lib/a/x.mli g documented"; "lib/a/x.mli f documented" ]
       x_module)

let entry_without_reason_fails () =
  check_findings "no reason" [ "allowlist: lib/a/x.mli g gives no reason" ]
    (findings ~allow:[ "lib/a/x.mli g" ] x_module)

let suites =
  [
    ( "exports.guard",
      [
        case "vals called from another module pass" called_vals_pass;
        case "a val used only by its own module fails" uncalled_val_fails;
        case "another module of the library is a caller" sibling_module_is_a_caller;
        case "a caller names the val as a whole word" whole_words_only;
        case "hidden and _build files, operators, deeper and non-lib mlis are skipped"
          skipped_files_and_signatures;
        case "a copy of a test file is no caller" copied_test_file_is_no_caller;
        case "an allowlist entry keeps an uncalled val" allowlist_keeps_a_val;
        case "a stale allowlist entry fails" stale_entry_fails;
        case "an allowlist entry without a reason fails" entry_without_reason_fails;
      ] );
  ]
