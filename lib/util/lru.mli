(** Bounded least-recently-used cache.

    A mutable map of at most [capacity] bindings; inserting beyond the
    bound evicts the binding that was used (found or re-added) longest
    ago.  Lookups are keyed on the {e full} key — a hash collision inside
    the underlying table still compares complete keys, so two distinct
    keys can never serve each other's values.

    Operations are amortised O(1) (a hash table plus an intrusive
    doubly-linked recency list).  The structure is {e not} synchronised;
    callers that share one cache across domains must bring their own lock
    (see {!Msts_pool.Batch}). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** An empty cache holding at most [capacity] bindings.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int
(** Current number of bindings ([<= capacity] always). *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] is the cached value, physically the one stored; the binding
    becomes the most recently used. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace the binding for [k] and make it the most recently
    used; evicts the least recently used binding when the cache is full. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings from most to least recently used (for tests and debugging). *)
