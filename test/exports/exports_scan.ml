(* The exports guard's scan: every [val] in a [lib/*/*.mli] needs a
   caller outside its own module, in lib/, bin/, bench/, perfbench/ or
   examples/, or an entry with a reason in the allowlist.  A caller is
   found by a word scan: any file other than the module's own .ml and .mli
   that contains the name as a whole word, comments included.  A file
   whose text is that of a source file under test/ is a copy of it (dune's
   [copy_files] puts test oracles next to the benches that time them, in
   the build tree the guard scans under [dune runtest]), and a test file
   is no caller.  An allowlist entry that no longer names an uncalled
   [val] fails too, so the list only shrinks by deleting the entry. *)

let scanned = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

(* Source files under [dir], skipping build and hidden directories. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name = "_build" then []
         else if Sys.is_directory path then sources path
         else if is_source name then [ path ]
         else [])

let is_word_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_word_char c = is_word_start c || (c >= '0' && c <= '9') || c = '\''

let words text =
  let seen = Hashtbl.create 256 in
  let n = String.length text in
  let rec scan i =
    if i < n then
      if is_word_start text.[i] && (i = 0 || not (is_word_char text.[i - 1])) then begin
        let j = ref i in
        while !j < n && is_word_char text.[!j] do
          incr j
        done;
        Hashtbl.replace seen (String.sub text i (!j - i)) ();
        scan !j
      end
      else scan (i + 1)
  in
  scan 0;
  seen

(* The names a signature declares with [val], operators excepted. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           let len = ref 0 in
           while !len < String.length rest && is_word_char rest.[!len] do
             incr len
           done;
           if !len > 0 && is_word_start rest.[0] then Some (String.sub rest 0 !len)
           else None
         else None)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Allowlist lines: "<mli path> <val name> <reason>"; blank lines and
   lines starting with # are skipped. *)
let allowlist path =
  String.split_on_char '\n' (read path)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "", "")
           | Some i -> (
               let rest = String.trim (String.sub line i (String.length line - i)) in
               let file = String.sub line 0 i in
               match String.index_opt rest ' ' with
               | None -> Some (file, rest, "")
               | Some j ->
                   Some
                     ( file,
                       String.sub rest 0 j,
                       String.trim (String.sub rest j (String.length rest - j)) )))

let findings ~root ~allowlist:allow_path =
  let relative path =
    let prefix = Filename.concat root "" in
    if String.starts_with ~prefix path then
      String.sub path (String.length prefix) (String.length path - String.length prefix)
    else path
  in
  let tests =
    let dir = Filename.concat root "test" in
    if Sys.file_exists dir then List.map read (sources dir) else []
  in
  let files = List.concat_map (fun d -> sources (Filename.concat root d)) scanned in
  let index =
    List.filter_map
      (fun f ->
        let text = read f in
        if List.mem text tests then None else Some (f, words text))
      files
  in
  let signatures =
    List.filter
      (fun f ->
        Filename.check_suffix f ".mli"
        && List.length (String.split_on_char '/' (relative f)) = 3
        && String.starts_with ~prefix:"lib/" (relative f))
      files
  in
  let uncalled =
    List.concat_map
      (fun mli ->
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        List.filter_map
          (fun name ->
            if
              List.exists
                (fun (f, ws) -> (not (List.mem f own)) && Hashtbl.mem ws name)
                index
            then None
            else Some (relative mli, name))
          (vals (read mli)))
      signatures
  in
  let allowed = allowlist allow_path in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt in
  List.iter
    (fun (file, name) ->
      if not (List.exists (fun (f, n, _) -> f = file && n = name) allowed) then
        fail
          "%s: val %s has no caller outside its module; delete it, drop it \
           from the mli, move it to test/, or allowlist it with a reason"
          file name)
    uncalled;
  List.iter
    (fun (file, name, reason) ->
      if reason = "" then fail "allowlist: %s %s gives no reason" file name
      else if not (List.mem (file, name) uncalled) then
        fail "allowlist: %s %s is not an uncalled val; delete the entry" file name)
    allowed;
  List.rev !failures
