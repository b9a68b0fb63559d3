(* The exports guard's scan: every [val] in a [lib/*/*.mli] needs a
   caller outside its own module, in lib/, bin/, bench/, perfbench/ or
   examples/, or an entry with a reason in the allowlist.

   Callers are read from the typed trees dune writes (.cmt for an
   implementation, .cmti for an interface), not from the text: every
   value identifier ([Texp_ident]) and every module used as a whole
   (a functor argument, a packed first-class module) in a compilation
   unit is a reference.  A path names a value through whatever aliases
   lie on the way: the facade's [module Engine = Msts_sim.Engine],
   dune's wrapper aliases ([Msts_sim.Engine] is [Msts_sim__Engine]), a
   local [module E = ...], an [include] and any [open] (the type checker
   has already qualified names found through an open).  Aliases are
   followed to a fixpoint, and a reference counts for every declared
   [val] it passes through.

   Only units compiled from a file of the source tree count as callers,
   so a [copy_files] copy of a test oracle (it exists only in the build
   tree) is none, and test/ is never read.  An allowlist entry that no
   longer names an uncalled [val] fails too, so the list only shrinks by
   deleting the entry. *)

open Typedtree

let scanned = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* The .cmt and .cmti files under [dir], hidden object directories
   included. *)
let rec annotations dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then annotations path
           else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
           then [ path ]
           else [])

(* What one implementation says: the paths it references, each as a list
   of names rooted at a compilation unit, and the aliases and includes it
   declares at structure level, keyed by the module path they bind. *)
type unit_refs = {
  values : string list list;
  modules : string list list;
  aliases : (string list * string list) list;
  includes : (string list * string list) list;
}

let rec strip_constraints me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip_constraints me | _ -> me

let read_implementation modname str =
  let locals = Hashtbl.create 16 in
  let rec resolve = function
    | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
    | Path.Pident id -> Hashtbl.find_opt locals (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (resolve p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let alias_target me =
    match (strip_constraints me).mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | _ -> None
  in
  let values = ref [] and modules = ref [] in
  let aliases = ref [] and includes = ref [] in
  (* the module path of the structure being walked, while it is one *)
  let prefix = ref (Some [ modname ]) in
  let bind id name target =
    Option.iter (fun id -> Hashtbl.replace locals (Ident.unique_name id) target) id;
    match (!prefix, name) with
    | Some p, Some n -> aliases := (p @ [ n ], target) :: !aliases
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let module_binding it mb =
    match alias_target mb.mb_expr with
    | Some target -> bind mb.mb_id mb.mb_name.txt target
    | None ->
        let saved = !prefix in
        (prefix :=
           match (saved, mb.mb_name.txt, (strip_constraints mb.mb_expr).mod_desc) with
           | Some p, Some n, Tmod_structure _ -> Some (p @ [ n ])
           | _ -> None);
        default.module_binding it mb;
        prefix := saved
  in
  let structure_item it item =
    match item.str_desc with
    | Tstr_include incl -> (
        match (alias_target incl.incl_mod, !prefix) with
        | Some target, Some p -> includes := (p, target) :: !includes
        | Some _, None -> ()
        | None, _ -> default.structure_item it item)
    | _ -> default.structure_item it item
  in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Option.iter (fun l -> values := l :: !values) (resolve p)
    | Texp_letmodule (Some id, _, _, me, body) when alias_target me <> None ->
        Hashtbl.replace locals (Ident.unique_name id) (Option.get (alias_target me));
        it.Tast_iterator.expr it body
    | _ -> default.expr it e
  in
  let module_expr it me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (fun l -> modules := l :: !modules) (resolve p)
    | _ -> default.module_expr it me
  in
  let open_declaration it od =
    match (strip_constraints od.open_expr).mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.open_declaration it od
  in
  let it =
    { default with module_binding; structure_item; expr; module_expr; open_declaration }
  in
  it.Tast_iterator.structure it str;
  { values = !values; modules = !modules; aliases = !aliases; includes = !includes }

(* The vals an interface declares, as paths rooted at its unit:
   [["Msts_obs__Json"; "Reader"; "hash_ahead"]] for a [val] of the
   submodule [Reader]. *)
let read_interface modname sg =
  let rec items prefix sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd -> [ prefix @ [ vd.val_name.txt ] ]
        | Tsig_module { md_name = { txt = Some n; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            items (prefix @ [ n ]) sg.sig_items
        | _ -> [])
      sg
  in
  items [ modname ] sg.sig_items

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

let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)
let rec take n l = if n = 0 then [] else List.hd l :: take (n - 1) (List.tl l)

(* The longest prefix of [path] that [table] binds, rewritten to its
   target. *)
let rewrite table path =
  let rec try_len n =
    if n = 0 then None
    else
      match Hashtbl.find_opt table (take n path) with
      | Some target -> Some (target @ drop n path)
      | None -> try_len (n - 1)
  in
  try_len (List.length path)

let findings ~build ~root ~sources ~allowlist:allow_path =
  let normal path =
    if String.starts_with ~prefix:"./" path then String.sub path 2 (String.length path - 2)
    else path
  in
  let sources = Hashtbl.of_seq (Seq.map (fun s -> (normal s, ())) (List.to_seq sources)) in
  (* [Some rel] for a file of the checked tree, [rel] relative to [root] *)
  let relative path =
    let path = normal path in
    let prefix = if root = "" then "" else root ^ "/" in
    if String.starts_with ~prefix path then
      Some (String.sub path (String.length prefix) (String.length path - String.length prefix))
    else None
  in
  let in_scanned rel =
    List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") rel) scanned
  in
  let infos =
    List.concat_map
      (fun d -> annotations (Filename.concat build (if root = "" then d else Filename.concat root d)))
      scanned
    |> List.map Cmt_format.read_cmt
  in
  (* declared vals, in walk order: (unit path, mli relative to root, name
     in the mli) *)
  let declared =
    List.concat_map
      (fun (info : Cmt_format.cmt_infos) ->
        match (info.cmt_annots, Option.bind info.cmt_sourcefile relative) with
        | Interface sg, Some rel
          when String.starts_with ~prefix:"lib/" rel
               && List.length (String.split_on_char '/' rel) = 3 ->
            List.map
              (fun path -> (path, rel, String.concat "." (List.tl path)))
              (read_interface info.cmt_modname sg)
        | _ -> [])
      infos
  in
  let is_declared = Hashtbl.create 512 in
  List.iter (fun (path, _, _) -> Hashtbl.replace is_declared path ()) declared;
  let aliases = Hashtbl.create 256 and includes = Hashtbl.create 16 in
  let callers =
    List.filter_map
      (fun (info : Cmt_format.cmt_infos) ->
        match info.cmt_annots with
        | Implementation str ->
            let refs = read_implementation info.cmt_modname str in
            List.iter (fun (k, v) -> Hashtbl.replace aliases k v) refs.aliases;
            List.iter (fun (k, v) -> Hashtbl.replace includes k v) refs.includes;
            let is_caller =
              match info.cmt_sourcefile with
              | Some src -> (
                  Hashtbl.mem sources (normal src)
                  && match relative src with Some rel -> in_scanned rel | None -> false)
              | None -> false
            in
            if is_caller then Some refs else None
        | _ -> None)
      infos
  in
  let used = Hashtbl.create 512 in
  (* A unit's references to its own vals are local identifiers, never
     unit paths, so every path marked here is another unit's. *)
  let mark ~whole path =
    if whole then
      let n = List.length path in
      List.iter
        (fun (decl, _, _) ->
          if List.length decl > n && take n decl = path then Hashtbl.replace used decl ())
        declared
    else if Hashtbl.mem is_declared path then Hashtbl.replace used path ()
  in
  (* follow aliases, then includes, to a fixpoint; a cycle stops at the
     step bound *)
  let rec follow ~whole steps path =
    mark ~whole path;
    if steps > 0 then
      match rewrite aliases path with
      | Some path -> follow ~whole (steps - 1) path
      | None -> (
          match rewrite includes path with
          | Some path -> follow ~whole (steps - 1) path
          | None -> ())
  in
  List.iter
    (fun refs ->
      List.iter (follow ~whole:false 32) refs.values;
      List.iter (follow ~whole:true 32) refs.modules)
    callers;
  let uncalled =
    List.filter_map
      (fun (path, rel, name) -> if Hashtbl.mem used path then None else Some (rel, name))
      declared
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
