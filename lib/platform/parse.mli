(** Textual platform format.

    A small line-oriented format so platforms can be stored in files, passed
    to the CLI and diffed in experiments.  Grammar (blank lines and [#]
    comments ignored):

    {v
    chain            spider             fork       tree
    <c> <w>          leg                <c> <w>    <c> <w> <parent>
    <c> <w>          <c> <w>            <c> <w>    <c> <w> <parent>
    ...              <c> <w>                       ...
                     leg
                     <c> <w>
    v}

    Processors are listed from the master outwards.  In the [tree] form
    nodes are numbered 1.. in listing order and [<parent>] refers to an
    earlier node (0 = the master). *)

type platform =
  | Chain_platform of Chain.t
  | Fork_platform of Fork.t
  | Spider_platform of Spider.t
  | Tree_platform of Tree.t

val platform_to_string : platform -> string
(** Serialise in the format above (inverse of {!of_string}). *)

val of_string : string -> (platform, string) result
(** Parse; the error mentions the offending line number. *)

val load : string -> (platform, string) result
(** Read a platform from a file path. *)

