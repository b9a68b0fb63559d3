(* Hash table + intrusive doubly-linked recency list; the list head is the
   most recently used binding, the tail the eviction candidate. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards the head / MRU side *)
  mutable next : ('k, 'v) node option; (* towards the tail / LRU side *)
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { cap = capacity; table = Hashtbl.create capacity; head = None; tail = None }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node
  | None ->
      (if Hashtbl.length t.table >= t.cap then
         match t.tail with
         | Some lru ->
             unlink t lru;
             Hashtbl.remove t.table lru.key
         | None -> assert false);
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head
