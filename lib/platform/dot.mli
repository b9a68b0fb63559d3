(** Graphviz DOT export of platforms (reproduces the paper's Figures 1 and
    5 as renderable graphs).  Nodes carry their work time, edges their link
    latency; the master is drawn as a doubled circle. *)

val of_chain : Chain.t -> string

val of_spider : Spider.t -> string

val of_platform : Parse.platform -> string
