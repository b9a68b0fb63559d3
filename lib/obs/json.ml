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
  let position w = w.len

  let repeat w at n =
    if at < 0 || n < 0 || at + n > w.len then invalid_arg "Json.Writer.repeat";
    reserve w n;
    Bytes.blit w.buf at w.buf w.len n;
    w.len <- w.len + n

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

  let rec value w (json : json) =
    match json with
    | Null -> raw w "null"
    | Bool b -> raw w (if b then "true" else "false")
    | Int i -> int w i
    | Float x -> float w x
    | String s -> string w s
    | List [] -> raw w "[]"
    | List (first :: rest) ->
        char w '[';
        value w first;
        items w rest;
        char w ']'
    | Obj [] -> raw w "{}"
    | Obj (first :: rest) ->
        char w '{';
        field w first;
        fields w rest;
        char w '}'

  and items w = function
    | [] -> ()
    | v :: rest ->
        char w ',';
        value w v;
        items w rest

  and field w (key, v) =
    string w key;
    char w ':';
    value w v

  and fields w = function
    | [] -> ()
    | kv :: rest ->
        char w ',';
        field w kv;
        fields w rest

  (* A newline and [depth] two-space indents. *)
  let indent w depth =
    reserve w (1 + (2 * depth));
    Bytes.unsafe_set w.buf w.len '\n';
    Bytes.unsafe_fill w.buf (w.len + 1) (2 * depth) ' ';
    w.len <- w.len + 1 + (2 * depth)

  (* Where the pretty pass puts its runs: a writer, or straight onto a
     channel. *)
  type sink = Into of t | Onto of out_channel

  let spaces = String.make 64 ' '

  let sink_sub sink s off n =
    match sink with Into w -> raw_sub w s off n | Onto oc -> output_substring oc s off n

  let sink_char sink c = match sink with Into w -> char w c | Onto oc -> output_char oc c

  let sink_indent sink depth =
    match sink with
    | Into w -> indent w depth
    | Onto oc ->
        output_char oc '\n';
        let left = ref (2 * depth) in
        while !left > 0 do
          let k = min !left (String.length spaces) in
          output_substring oc spaces 0 k;
          left := !left - k
        done

  (* One pass over the compact bytes [s.[0 .. n-1]]: everything between
     two structural bytes (a string, a number, a literal, an empty
     container) goes to the sink as one run. *)
  let pretty sink s n =
    let depth = ref 0 and run = ref 0 and i = ref 0 in
    let flush upto =
      sink_sub sink s !run (upto - !run);
      run := upto
    in
    let at j =
      if j >= n then invalid_arg "Json.pretty: unterminated string";
      String.unsafe_get s j
    in
    while !i < n do
      match String.unsafe_get s !i with
      | '"' ->
          incr i;
          while at !i <> '"' do
            if at !i = '\\' then incr i;
            incr i
          done;
          incr i
      | ('{' | '[') as c
        when !i + 1 < n && String.unsafe_get s (!i + 1) = (if c = '{' then '}' else ']') ->
          i := !i + 2
      | '{' | '[' ->
          incr i;
          flush !i;
          incr depth;
          sink_indent sink !depth
      | '}' | ']' ->
          flush !i;
          decr depth;
          sink_indent sink !depth;
          incr i
      | ',' ->
          incr i;
          flush !i;
          sink_indent sink !depth
      | ':' ->
          incr i;
          flush !i;
          sink_char sink ' '
      | _ -> incr i
    done;
    flush n

  (* One scratch writer per domain, reused across calls.  A nested call
     (a [to_string] inside another's [f]) gets a fresh writer, and a
     buffer grown past [retain] is dropped so one huge reply does not pin
     its memory. *)
  let initial = 4096
  let retain = 1 lsl 20
  let scratch = Domain.DLS.new_key (fun () -> create initial)

  (* [f] writes into a scratch writer, then [k] reads what it wrote. *)
  let with_scratch f k =
    let shared = Domain.DLS.get scratch in
    let w = if shared.busy then create initial else shared in
    w.busy <- true;
    w.len <- 0;
    let release () =
      w.busy <- false;
      if Bytes.length w.buf > retain then w.buf <- Bytes.create initial
    in
    match
      f w;
      k w
    with
    | result ->
        release ();
        result
    | exception exn ->
        release ();
        raise exn

  let to_string f = with_scratch f (fun w -> Bytes.sub_string w.buf 0 w.len)

  (* The pass reads the writer's bytes in place: nothing is copied out. *)
  let output_pretty oc f =
    with_scratch f (fun w -> pretty (Onto oc) (Bytes.unsafe_to_string w.buf) w.len)
end

let pretty compact =
  Writer.to_string (fun w -> Writer.pretty (Writer.Into w) compact (String.length compact))

let output_pretty = Writer.output_pretty

let to_string ?pretty:(indent = false) json =
  let compact = Writer.to_string (fun w -> Writer.value w json) in
  if indent then pretty compact else compact

(* ---------- reading ---------- *)

module Reader = struct
  exception Error of int * string

  type t = {
    text : string;
    mutable pos : int;
    (* The last string read, between its quotes: its bytes are
       [text.[start .. stop - 1]], [length] bytes once unescaped, so it has
       an escape exactly when [length < stop - start]. *)
    mutable start : int;
    mutable stop : int;
    mutable length : int;
    (* The last number read. *)
    mutable int_value : int;
    mutable float_value : float;
  }

  let fail_at at msg = raise (Error (at, msg))
  let fail r msg = fail_at r.pos msg

  (* '\000' past the end: no branch that reads it accepts a NUL byte
     either. *)
  let[@inline] byte r =
    if r.pos < String.length r.text then String.unsafe_get r.text r.pos else '\000'

  let skip_ws r =
    let text = r.text in
    let n = String.length text in
    while
      r.pos < n
      &&
      match String.unsafe_get text r.pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      r.pos <- r.pos + 1
    done

  let expect r c =
    if byte r = c then r.pos <- r.pos + 1 else fail r (Printf.sprintf "expected %C" c)

  let literal r word =
    let n = String.length word in
    if r.pos + n <= String.length r.text && String.sub r.text r.pos n = word then
      r.pos <- r.pos + n
    else fail r ("expected " ^ word)

  let position r = r.pos
  let seek r pos = r.pos <- pos

  let peek r =
    skip_ws r;
    if r.pos >= String.length r.text then fail r "unexpected end of input";
    match String.unsafe_get r.text r.pos with
    | '{' -> `Object
    | '[' -> `Array
    | '"' -> `String
    | 't' | 'f' -> `Bool
    | 'n' -> `Null
    | _ -> `Number

  let bool r =
    if byte r = 't' then (
      literal r "true";
      true)
    else (
      literal r "false";
      false)

  let null r = literal r "null"

  (* ---------- strings ---------- *)

  (* The code point of the four hex digits at [i], or -1. *)
  let hex4 text i =
    let code = ref 0 in
    for k = i to i + 3 do
      let d =
        match String.unsafe_get text k with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> -1
      in
      code := if d < 0 || !code < 0 then -1 else (16 * !code) + d
    done;
    !code

  (* \u escapes are written as UTF-8: only code points below 0x80 read
     back as one byte. *)
  let utf8_length code = if code < 0x80 then 1 else if code < 0x800 then 2 else 3

  (* Runs up to the first quote or backslash are scanned in a tight loop;
     each escape is checked where it stands, so the first malformed one
     fails at its own offset. *)
  let span r =
    expect r '"';
    let text = r.text in
    let n = String.length text in
    let start = r.pos in
    let i = ref start in
    let length = ref 0 in
    let closed = ref false in
    while not !closed do
      let run = !i in
      while !i < n && match String.unsafe_get text !i with '"' | '\\' -> false | _ -> true do
        incr i
      done;
      length := !length + (!i - run);
      if !i >= n then fail_at !i "unterminated string";
      let c = String.unsafe_get text !i in
      incr i;
      if c = '"' then closed := true
      else begin
        if !i >= n then fail_at !i "unterminated escape";
        let e = String.unsafe_get text !i in
        incr i;
        match e with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr length
        | 'u' ->
            if !i + 4 > n then fail_at !i "truncated \\u escape";
            let code = hex4 text !i in
            i := !i + 4;
            if code < 0 then fail_at !i "bad \\u escape";
            length := !length + utf8_length code
        | _ -> fail_at !i "unknown escape"
      end
    done;
    r.pos <- !i;
    r.start <- start;
    r.stop <- !i - 1;
    r.length <- !length

  let[@inline] escaped r = r.length < r.stop - r.start

  let[@inline] put out o c =
    Bytes.unsafe_set out o c;
    o + 1

  let unescape r =
    let text = r.text and out = Bytes.create r.length in
    let i = ref r.start and o = ref 0 in
    while !i < r.stop do
      let c = String.unsafe_get text !i in
      if c <> '\\' then begin
        o := put out !o c;
        incr i
      end
      else begin
        (match String.unsafe_get text (!i + 1) with
        | 'b' -> o := put out !o '\b'
        | 'f' -> o := put out !o '\012'
        | 'n' -> o := put out !o '\n'
        | 'r' -> o := put out !o '\r'
        | 't' -> o := put out !o '\t'
        | 'u' ->
            let code = hex4 text (!i + 2) in
            if code < 0x80 then o := put out !o (Char.chr code)
            else if code < 0x800 then begin
              o := put out !o (Char.chr (0xC0 lor (code lsr 6)));
              o := put out !o (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              o := put out !o (Char.chr (0xE0 lor (code lsr 12)));
              o := put out !o (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              o := put out !o (Char.chr (0x80 lor (code land 0x3F)))
            end;
            i := !i + 4
        | c -> o := put out !o c);
        i := !i + 2
      end
    done;
    Bytes.unsafe_to_string out

  let span_text r =
    if escaped r then unescape r else String.sub r.text r.start r.length

  (* [a.[i .. i + n - 1]] = [b.[j .. j + n - 1]], eight bytes a step. *)
  let same_bytes a i b j n =
    let k = ref 0 in
    while !k + 8 <= n && String.get_int64_ne a (i + !k) = String.get_int64_ne b (j + !k) do
      k := !k + 8
    done;
    while !k < n && String.unsafe_get a (i + !k) = String.unsafe_get b (j + !k) do
      incr k
    done;
    !k = n

  let span_is r s =
    r.length = String.length s
    && if escaped r then String.equal (unescape r) s else same_bytes r.text r.start s 0 r.length

  let spelling r = String.sub r.text r.start (r.stop - r.start)

  let spelled r s =
    let n = r.stop - r.start in
    String.length s = n && same_bytes r.text r.start s 0 n

  (* The bytes [text.[start .. stop - 1]], eight a step: each word is
     xored in, multiplied by the 64-bit FNV prime and folded so its high
     bits reach the low ones, which pick a hash table's bucket. *)
  let hash_bytes text start stop =
    let mix h w =
      let x = (h lxor w) * 0x100000001b3 in
      x lxor (x lsr 29)
    in
    let h = ref (stop - start) and i = ref start in
    while !i + 8 <= stop do
      h := mix !h (Int64.to_int (String.get_int64_ne text !i));
      i := !i + 8
    done;
    while !i < stop do
      h := mix !h (Char.code (String.unsafe_get text !i));
      incr i
    done;
    !h land max_int

  let spelling_hash r = hash_bytes r.text r.start r.stop

  let hash_ahead r n =
    hash_bytes r.text r.pos (min (String.length r.text) (r.pos + max 0 n))

  (* The last word first: runs that differ often differ at their end. *)
  let repeats r at n =
    let text = r.text in
    at >= 0 && n >= 0
    && at + n <= String.length text
    && r.pos + n <= String.length text
    && (n < 8
       || String.get_int64_ne text (r.pos + n - 8) = String.get_int64_ne text (at + n - 8))
    && same_bytes text r.pos text at n

  (* ---------- numbers ---------- *)

  let skip_digits r =
    let text = r.text in
    let n = String.length text in
    while r.pos < n && match String.unsafe_get text r.pos with '0' .. '9' -> true | _ -> false do
      r.pos <- r.pos + 1
    done

  (* An integer of at most 18 digits is accumulated inline; anything else
     goes through [int_of_string] and [float_of_string], whose verdicts
     decide between Int, Float and an error. *)
  let number r =
    let text = r.text in
    let start = r.pos in
    if byte r = '-' then r.pos <- r.pos + 1;
    let digits_start = r.pos in
    skip_digits r;
    let digits_stop = r.pos in
    let is_float = ref false in
    if byte r = '.' then begin
      is_float := true;
      r.pos <- r.pos + 1;
      skip_digits r
    end;
    (match byte r with
    | 'e' | 'E' ->
        is_float := true;
        r.pos <- r.pos + 1;
        (match byte r with '+' | '-' -> r.pos <- r.pos + 1 | _ -> ());
        skip_digits r
    | _ -> ());
    let digits = digits_stop - digits_start in
    if (not !is_float) && digits >= 1 && digits <= 18 then begin
      (* below 10^18 < max_int: no overflow, same value as int_of_string *)
      let v = ref 0 in
      for i = digits_start to digits_stop - 1 do
        v := (10 * !v) + (Char.code (String.unsafe_get text i) - 48)
      done;
      r.int_value <- (if digits_start > start then - !v else !v);
      true
    end
    else
      let s = String.sub text start (r.pos - start) in
      (* [float_of_string] would raise on bare punctuation like "." or
         "-e5" that survives the scanner *)
      let float_or_fail s =
        match float_of_string_opt s with
        | Some f ->
            r.float_value <- f;
            false
        | None -> fail r "expected number"
      in
      if s = "" || s = "-" then fail r "expected number"
      else if !is_float then float_or_fail s
      else
        match int_of_string_opt s with
        | Some i ->
            r.int_value <- i;
            true
        | None -> float_or_fail s

  let int_value r = r.int_value
  let float_value r = r.float_value

  (* ---------- containers ---------- *)

  let key r =
    skip_ws r;
    span r;
    skip_ws r;
    expect r ':'

  let first_member r =
    r.pos <- r.pos + 1;
    skip_ws r;
    if byte r = '}' then begin
      r.pos <- r.pos + 1;
      false
    end
    else begin
      key r;
      true
    end

  let next_member r =
    skip_ws r;
    match byte r with
    | ',' ->
        r.pos <- r.pos + 1;
        key r;
        true
    | '}' ->
        r.pos <- r.pos + 1;
        false
    | _ -> fail r "expected ',' or '}'"

  let first_item r =
    r.pos <- r.pos + 1;
    skip_ws r;
    if byte r = ']' then begin
      r.pos <- r.pos + 1;
      false
    end
    else true

  let next_item r =
    skip_ws r;
    match byte r with
    | ',' ->
        r.pos <- r.pos + 1;
        true
    | ']' ->
        r.pos <- r.pos + 1;
        false
    | _ -> fail r "expected ',' or ']'"

  let rec skip r =
    match peek r with
    | `Object ->
        if first_member r then begin
          skip r;
          while next_member r do
            skip r
          done
        end
    | `Array ->
        if first_item r then begin
          skip r;
          while next_item r do
            skip r
          done
        end
    | `String -> span r
    | `Number -> ignore (number r)
    | `Bool -> ignore (bool r)
    | `Null -> null r

  let finish r =
    skip_ws r;
    if r.pos <> String.length r.text then fail r "trailing garbage"

  let read text f =
    let r =
      {
        text;
        pos = 0;
        start = 0;
        stop = 0;
        length = 0;
        int_value = 0;
        float_value = 0.;
      }
    in
    match f r with
    | v -> Ok v
    | exception Error (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
end

let parse text =
  let module R = Reader in
  let rec value r =
    match R.peek r with
    | `Object ->
        if R.first_member r then begin
          let rec members acc =
            let key = R.span_text r in
            let acc = (key, value r) :: acc in
            if R.next_member r then members acc else List.rev acc
          in
          Obj (members [])
        end
        else Obj []
    | `Array ->
        if R.first_item r then begin
          let rec items acc =
            let acc = value r :: acc in
            if R.next_item r then items acc else List.rev acc
          in
          List (items [])
        end
        else List []
    | `String ->
        R.span r;
        String (R.span_text r)
    | `Number -> if R.number r then Int (R.int_value r) else Float (R.float_value r)
    | `Bool -> Bool (R.bool r)
    | `Null ->
        R.null r;
        Null
  in
  R.read text (fun r ->
      let v = value r in
      R.finish r;
      v)

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
