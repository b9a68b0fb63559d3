(* The exports guard: fails when a [val] in a [lib/*/*.mli] has no caller
   outside its module and the allowlist does not keep it (see
   exports_scan.ml for the rule).

   Usage: exports_guard.exe BUILD ALLOWLIST SOURCE...

   BUILD is the dune build context holding the .cmt files (run
   [dune build @check] first); each SOURCE is a file of the source tree,
   relative to the workspace root, or a directory standing for the .ml
   and .mli files under it.  From the repository root:

     dune build @check
     ./_build/default/test/exports/exports_guard.exe _build/default \
       test/exports/allowlist.txt lib bin bench perfbench examples *)

let rec sources path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           if name.[0] = '.' || name = "_build" then []
           else sources (Filename.concat path name))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then [ path ]
  else []

let () =
  match Array.to_list Sys.argv with
  | _ :: build :: allowlist :: paths ->
      let sources = List.concat_map sources paths in
      let findings = Exports_scan.findings ~build ~root:"" ~sources ~allowlist in
      List.iter prerr_endline findings;
      if findings <> [] then exit 1
  | _ ->
      prerr_endline "usage: exports_guard BUILD ALLOWLIST SOURCE...";
      exit 2
