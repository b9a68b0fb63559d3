(** General tree platforms.

    Trees are the long-term objective stated in the paper's conclusion: the
    proposed attack is to cover a tree with simpler structures (chains and
    spiders).  This module provides the tree description plus the
    spider-extraction heuristics used by the tree-scheduling extension
    ({!Msts_spider} consumes the extracted spider). *)

type node = {
  latency : int;  (** latency of the link from the parent *)
  work : int;  (** per-task work time *)
  children : node list;
}

type t
(** A tree rooted at the master.  The master itself holds the tasks and does
    not compute; its children are the top-level nodes. *)

val make : node list -> t
(** @raise Invalid_argument if there are no nodes or any latency/work is
    non-positive. *)

val roots : t -> node list

val node : ?children:node list -> latency:int -> work:int -> unit -> node
(** Node constructor with validation. *)

val processor_count : t -> int

val depth : t -> int
(** Longest root-to-leaf path length (0 for the master alone is
    impossible — trees are non-empty). *)

val to_spider : t -> Spider.t option
(** Exact conversion when only the master branches (every non-root node
    has at most one child); [None] otherwise. *)

val of_spider : Spider.t -> t
(** The tree whose master children are the legs' first processors, each
    leg a path, in leg order: [to_spider (of_spider s)] is [Some s]. *)

(** Which child continues a leg when a node branches during extraction. *)
type extraction_policy =
  | Fastest_processor  (** follow the child with the smallest work time *)
  | Cheapest_link  (** follow the child with the smallest link latency *)
  | Best_rate  (** follow the child maximising the subtree work rate *)

val extract_spider : extraction_policy -> t -> Spider.t
(** Cover heuristic: keep, under every branching node, only the child chosen
    by the policy, yielding a spider on a subset of the processors.  The
    dropped processors simply receive no tasks. *)

val to_string : t -> string
