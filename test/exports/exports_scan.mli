(** The exports guard's scan over a repository checkout. *)

val findings : root:string -> allowlist:string -> string list
(** One message per failure, in order: each [val] in [root/lib/*/*.mli]
    with no caller outside its module (a copy of a [root/test/] source
    file is no caller) that the allowlist file does not
    keep, then each allowlist entry that gives no reason or names no
    uncalled [val].  Empty when the guard passes. *)
