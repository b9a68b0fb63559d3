(** The exports guard's scan over a dune build tree. *)

val findings :
  build:string -> root:string -> sources:string list -> allowlist:string -> string list
(** [findings ~build ~root ~sources ~allowlist] reads the .cmt and .cmti
    files dune wrote under [build] (a build context such as
    [_build/default]) for the tree [root] ([""] for the whole workspace,
    else a directory relative to it).  [sources] are the files of the
    source tree, relative to the workspace root; only a unit compiled
    from one of them, under [root]'s lib/, bin/, bench/, perfbench/ or
    examples/, is a caller.

    One message per failure, in order: each [val] in [root/lib/*/*.mli]
    (a submodule's as [Sub.name]) that no other unit references and the
    allowlist file does not keep, then each allowlist entry that gives
    no reason or names no uncalled [val].  Empty when the guard passes. *)
