(* The exports guard: fails when a [val] in a [lib/*/*.mli] has no caller
   outside its module and the allowlist does not keep it (see
   exports_scan.ml for the rule).

   Usage: exports_guard.exe ROOT ALLOWLIST *)

let () =
  match Sys.argv with
  | [| _; root; allowlist |] ->
      let findings = Exports_scan.findings ~root ~allowlist in
      List.iter prerr_endline findings;
      if findings <> [] then exit 1
  | _ ->
      prerr_endline "usage: exports_guard ROOT ALLOWLIST";
      exit 2
