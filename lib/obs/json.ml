type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

module Writer = struct
  type json = t

  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable busy : bool; (* lent out by [to_string] *)
    digits : Bytes.t; (* 20 bytes: min_int's sign and 19 digits *)
  }

  let create capacity =
    { buf = Bytes.create capacity; len = 0; busy = false; digits = Bytes.create 20 }

  let grow w need =
    let cap = ref (Bytes.length w.buf) in
    while !cap < w.len + need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf

  let[@inline] reserve w need =
    if w.len + need > Bytes.length w.buf then grow w need

  let char w c =
    reserve w 1;
    Bytes.unsafe_set w.buf w.len c;
    w.len <- w.len + 1

  let raw_sub w s off n =
    reserve w n;
    Bytes.unsafe_blit_string s off w.buf w.len n;
    w.len <- w.len + n

  let raw w s = raw_sub w s 0 (String.length s)

  let hex_digits = "0123456789abcdef"

  (* Runs of characters that need no escape are copied in one blit
     each. *)
  let string w s =
    char w '"';
    let n = String.length s in
    let run = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        raw_sub w s !run (i - !run);
        (match c with
        | '"' -> raw w "\\\""
        | '\\' -> raw w "\\\\"
        | '\n' -> raw w "\\n"
        | '\r' -> raw w "\\r"
        | '\t' -> raw w "\\t"
        | c ->
            raw w "\\u00";
            char w hex_digits.[Char.code c lsr 4];
            char w hex_digits.[Char.code c land 0xf]);
        run := i + 1
      end
    done;
    raw_sub w s !run (n - !run);
    char w '"'

  (* The decimal digits are written right to left into [digits].  The
     value is kept non-positive while it is cut down, so min_int needs no
     special case. *)
  let int w i =
    let digits = w.digits in
    let len = Bytes.length digits in
    let at = ref len in
    let m = ref (if i < 0 then i else -i) in
    let more = ref true in
    while !more do
      decr at;
      Bytes.unsafe_set digits !at (Char.unsafe_chr (48 - (!m mod 10)));
      m := !m / 10;
      more := !m <> 0
    done;
    if i < 0 then begin
      decr at;
      Bytes.unsafe_set digits !at '-'
    end;
    let n = len - !at in
    reserve w n;
    Bytes.unsafe_blit digits !at w.buf w.len n;
    w.len <- w.len + n

  let float w x =
    if not (Float.is_finite x) then raw w "null"
    else if Float.is_integer x && Float.abs x < 1e15 then
      raw w (Printf.sprintf "%.1f" x)
    else
      (* shortest decimal form that round-trips *)
      let short = Printf.sprintf "%.12g" x in
      raw w (if float_of_string short = x then short else Printf.sprintf "%.17g" x)

  let value ?(pretty = false) w (json : json) =
    let indent depth =
      if pretty then begin
        reserve w (1 + (2 * depth));
        Bytes.unsafe_set w.buf w.len '\n';
        Bytes.unsafe_fill w.buf (w.len + 1) (2 * depth) ' ';
        w.len <- w.len + 1 + (2 * depth)
      end
    in
    let rec go depth = function
      | Null -> raw w "null"
      | Bool b -> raw w (if b then "true" else "false")
      | Int i -> int w i
      | Float x -> float w x
      | String s -> string w s
      | List [] -> raw w "[]"
      | List (first :: rest) ->
          char w '[';
          item (depth + 1) first;
          items (depth + 1) rest;
          indent depth;
          char w ']'
      | Obj [] -> raw w "{}"
      | Obj (first :: rest) ->
          char w '{';
          field (depth + 1) first;
          fields (depth + 1) rest;
          indent depth;
          char w '}'
    and item depth value =
      indent depth;
      go depth value
    and items depth = function
      | [] -> ()
      | value :: rest ->
          char w ',';
          item depth value;
          items depth rest
    and field depth (key, value) =
      indent depth;
      string w key;
      raw w (if pretty then ": " else ":");
      go depth value
    and fields depth = function
      | [] -> ()
      | kv :: rest ->
          char w ',';
          field depth kv;
          fields depth rest
    in
    go 0 json

  (* One scratch writer per domain, reused across calls.  A nested call
     (a [to_string] inside another's [f]) gets a fresh writer, and a
     buffer grown past [retain] is dropped so one huge reply does not pin
     its memory. *)
  let initial = 4096
  let retain = 1 lsl 20
  let scratch = Domain.DLS.new_key (fun () -> create initial)

  let to_string f =
    let shared = Domain.DLS.get scratch in
    let w = if shared.busy then create initial else shared in
    w.busy <- true;
    w.len <- 0;
    let release () =
      w.busy <- false;
      if Bytes.length w.buf > retain then w.buf <- Bytes.create initial
    in
    match f w with
    | () ->
        let s = Bytes.sub_string w.buf 0 w.len in
        release ();
        s
    | exception exn ->
        release ();
        raise exn
end

let to_string ?pretty json = Writer.to_string (fun w -> Writer.value ?pretty w json)

(* ---------- parsing ---------- *)

exception Parse_error of int * string

(* The scanner reads bytes in place: [peek] answers '\000' past the end
   (only [parse_value] has to tell that apart from a NUL byte, which no
   other branch accepts either), a string without escapes is one
   [String.sub] and an integer of at most 18 digits is accumulated
   inline.  Everything else takes the general path; offsets and messages
   are those of the plain recursive-descent reading. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then String.unsafe_get text !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get text !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      advance ()
    done
  in
  let skip_digits () =
    while
      !pos < n
      && match String.unsafe_get text !pos with '0' .. '9' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The general string reader: the opening quote is consumed and the
     plain bytes from [start] up to the first escape are scanned. *)
  let parse_escaped_string start =
    let buf = Buffer.create 16 in
    Buffer.add_substring buf text start (!pos - start);
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub text !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "bad \\u escape"
            in
            (* Only BMP code points below 0x80 round-trip exactly; encode the
               rest as UTF-8 so well-formedness checks still pass. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  (* A string whose escapes each stand for one character (a backslash
     then one of the eight letters and marks below) is measured first,
     then unescaped into one string of the exact size.  [stop] is the
     closing quote, [escapes] the count of escapes; the bytes are known
     good. *)
  let unescape start stop escapes =
    let out = Bytes.create (stop - start - escapes) in
    let i = ref start and o = ref 0 in
    while !i < stop do
      let c = String.unsafe_get text !i in
      if c = '\\' then begin
        Bytes.unsafe_set out !o
          (match String.unsafe_get text (!i + 1) with
          | 'b' -> '\b'
          | 'f' -> '\012'
          | 'n' -> '\n'
          | 'r' -> '\r'
          | 't' -> '\t'
          | c -> c);
        i := !i + 2
      end
      else begin
        Bytes.unsafe_set out !o c;
        incr i
      end;
      incr o
    done;
    Bytes.unsafe_to_string out
  in
  (* [pos] is on the first backslash.  Anything but single-character
     escapes up to the closing quote goes back to the general reader,
     from the same start, so its results and errors are unchanged. *)
  let parse_escapes start =
    let i = ref !pos and escapes = ref 0 and stop = ref (-1) in
    while !stop < 0 && !i < n do
      match String.unsafe_get text !i with
      | '"' -> stop := !i
      | '\\' -> (
          match if !i + 1 < n then String.unsafe_get text (!i + 1) else 'u' with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
              incr escapes;
              i := !i + 2
          | _ -> i := n)
      | _ -> incr i
    done;
    if !stop < 0 then parse_escaped_string start
    else begin
      pos := !stop + 1;
      unescape start !stop !escapes
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get text !pos with '"' | '\\' -> false | _ -> true
    do
      advance ()
    done;
    if !pos >= n then fail "unterminated string"
    else if String.unsafe_get text !pos = '"' then begin
      advance ();
      String.sub text start (!pos - 1 - start)
    end
    else parse_escapes start
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    let digits_start = !pos in
    skip_digits ();
    let digits_stop = !pos in
    let is_float = ref false in
    if peek () = '.' then begin
      is_float := true;
      advance ();
      skip_digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
        is_float := true;
        advance ();
        (match peek () with '+' | '-' -> advance () | _ -> ());
        skip_digits ()
    | _ -> ());
    let digits = digits_stop - digits_start in
    if (not !is_float) && digits >= 1 && digits <= 18 then begin
      (* below 10^18 < max_int: no overflow, same value as int_of_string *)
      let v = ref 0 in
      for i = digits_start to digits_stop - 1 do
        v := (10 * !v) + (Char.code (String.unsafe_get text i) - 48)
      done;
      Int (if digits_start > start then - !v else !v)
    end
    else
      let s = String.sub text start (!pos - start) in
      let float_or_fail s =
        (* [float_of_string] would raise on bare punctuation like "." or
           "-e5" that survives the scanner — keep the parser total. *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "expected number"
      in
      if s = "" || s = "-" then fail "expected number"
      else if !is_float then float_or_fail s
      else
        match int_of_string_opt s with
        | Some i -> Int i
        | None -> float_or_fail s
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                fields ((key, value) :: acc)
            | '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                items (value :: acc)
            | ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let of_table ~title ~columns ~rows =
  Obj
    [
      ("title", String title);
      ("columns", List (List.map (fun c -> String c) columns));
      ("rows", List (List.map (fun r -> List (List.map (fun c -> String c) r)) rows));
    ]
