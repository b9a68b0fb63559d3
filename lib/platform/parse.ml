type platform =
  | Chain_platform of Chain.t
  | Fork_platform of Fork.t
  | Spider_platform of Spider.t
  | Tree_platform of Tree.t

let pairs_block pairs =
  String.concat "" (List.map (fun (c, w) -> Printf.sprintf "%d %d\n" c w) pairs)

(* Preorder listing with a parent column (0 = master). *)
let tree_block tree =
  let buf = Buffer.create 128 in
  let counter = ref 0 in
  let rec emit parent (n : Tree.node) =
    incr counter;
    let id = !counter in
    Printf.bprintf buf "%d %d %d\n" n.Tree.latency n.Tree.work parent;
    List.iter (emit id) n.Tree.children
  in
  List.iter (emit 0) (Tree.roots tree);
  Buffer.contents buf

let platform_to_string = function
  | Chain_platform chain -> "chain\n" ^ pairs_block (Chain.to_pairs chain)
  | Fork_platform fork -> "fork\n" ^ pairs_block (Fork.to_pairs fork)
  | Spider_platform spider ->
      let leg l =
        "leg\n" ^ pairs_block (Chain.to_pairs (Spider.leg_chain spider l))
      in
      "spider\n"
      ^ String.concat "" (List.map leg (Msts_util.Intx.range 1 (Spider.legs spider)))
  | Tree_platform tree -> "tree\n" ^ tree_block tree

(* Lines paired with their 1-based position, comments and blanks removed. *)
let meaningful_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) ->
         line <> "" && not (String.length line > 0 && line.[0] = '#'))

let parse_pair (lineno, line) =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some c, Some w when c > 0 && w > 0 -> Ok (c, w)
      | Some _, Some _ -> Error (Printf.sprintf "line %d: values must be positive" lineno)
      | _ -> Error (Printf.sprintf "line %d: expected two integers" lineno))
  | _ -> Error (Printf.sprintf "line %d: expected '<c> <w>'" lineno)

let rec parse_pairs acc = function
  | [] -> Ok (List.rev acc, [])
  | ((_, line) :: _) as rest when line = "leg" -> Ok (List.rev acc, rest)
  | entry :: rest -> (
      match parse_pair entry with
      | Ok pair -> parse_pairs (pair :: acc) rest
      | Error e -> Error e)

let guard_nonempty lineno what = function
  | [] -> Error (Printf.sprintf "line %d: empty %s" lineno what)
  | pairs -> Ok pairs

let parse_chain lineno lines =
  match parse_pairs [] lines with
  | Error e -> Error e
  | Ok (_, (extra_lineno, _) :: _) ->
      Error (Printf.sprintf "line %d: unexpected 'leg' in a chain" extra_lineno)
  | Ok (pairs, []) ->
      Result.map (fun pairs -> Chain_platform (Chain.of_pairs pairs))
        (guard_nonempty lineno "chain" pairs)

let parse_fork lineno lines =
  match parse_pairs [] lines with
  | Error e -> Error e
  | Ok (_, (extra_lineno, _) :: _) ->
      Error (Printf.sprintf "line %d: unexpected 'leg' in a fork" extra_lineno)
  | Ok (pairs, []) ->
      Result.map (fun pairs -> Fork_platform (Fork.of_pairs pairs))
        (guard_nonempty lineno "fork" pairs)

let parse_spider lineno lines =
  let rec legs acc = function
    | [] ->
        if acc = [] then Error (Printf.sprintf "line %d: spider without legs" lineno)
        else Ok (Spider_platform (Spider.of_legs (List.rev acc)))
    | (leg_lineno, "leg") :: rest -> (
        match parse_pairs [] rest with
        | Error e -> Error e
        | Ok (pairs, remaining) -> (
            match guard_nonempty leg_lineno "leg" pairs with
            | Error e -> Error e
            | Ok pairs -> legs (Chain.of_pairs pairs :: acc) remaining))
    | (other_lineno, _) :: _ ->
        Error (Printf.sprintf "line %d: expected 'leg'" other_lineno)
  in
  legs [] lines

let parse_tree_line (lineno, line) =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ a; b; c ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
      | Some latency, Some work, Some parent when latency > 0 && work > 0 && parent >= 0
        ->
          Ok (latency, work, parent)
      | Some _, Some _, Some _ ->
          Error (Printf.sprintf "line %d: invalid tree node values" lineno)
      | _ -> Error (Printf.sprintf "line %d: expected three integers" lineno))
  | _ -> Error (Printf.sprintf "line %d: expected '<c> <w> <parent>'" lineno)

let parse_tree lineno lines =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> (
        match parse_tree_line entry with
        | Ok node -> collect (node :: acc) rest
        | Error e -> Error e)
  in
  match collect [] lines with
  | Error e -> Error e
  | Ok [] -> Error (Printf.sprintf "line %d: empty tree" lineno)
  | Ok listed ->
      let nodes = Array.of_list listed in
      let count = Array.length nodes in
      let invalid_parent =
        List.find_opt
          (fun idx ->
            let _, _, parent = nodes.(idx) in
            parent > idx (* parent must be an earlier node or the master *))
          (List.init count Fun.id)
      in
      (match invalid_parent with
      | Some idx ->
          Error
            (Printf.sprintf "node %d: parent must be an earlier node or 0" (idx + 1))
      | None ->
          let rec build id =
            let latency, work, _ = nodes.(id - 1) in
            let children =
              List.filter_map
                (fun idx ->
                  let _, _, parent = nodes.(idx) in
                  if parent = id then Some (build (idx + 1)) else None)
                (List.init count Fun.id)
            in
            Tree.node ~children ~latency ~work ()
          in
          let top =
            List.filter_map
              (fun idx ->
                let _, _, parent = nodes.(idx) in
                if parent = 0 then Some (build (idx + 1)) else None)
              (List.init count Fun.id)
          in
          Ok (Tree_platform (Tree.make top)))

let of_string text =
  match meaningful_lines text with
  | [] -> Error "empty platform description"
  | (lineno, kind) :: rest -> (
      match kind with
      | "chain" -> parse_chain lineno rest
      | "fork" -> parse_fork lineno rest
      | "spider" -> parse_spider lineno rest
      | "tree" -> parse_tree lineno rest
      | other -> Error (Printf.sprintf "line %d: unknown platform kind %S" lineno other))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
