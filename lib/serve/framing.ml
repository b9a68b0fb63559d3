(* ---------- input: JSONL frames out of read chunks ---------- *)

(* The unfinished line of one connection.  Its buffer keeps its capacity
   between lines up to [retain] bytes, so a client streaming large frames
   does not regrow it per frame; a longer line's buffer is released once
   the line is handed over. *)
type input = Buffer.t

let input () = Buffer.create 1
let pending = Buffer.length
let retain = 1 lsl 20

(* Whitespace as [String.trim] reads it: a line of nothing else is not
   a frame. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec blank_bytes b from stop =
  from >= stop || (is_space (Bytes.unsafe_get b from) && blank_bytes b (from + 1) stop)

let rec blank_pending pending from stop =
  from >= stop || (is_space (Buffer.nth pending from) && blank_pending pending (from + 1) stop)

let rec newline_bytewise b from stop =
  if from >= stop then -1
  else if Bytes.unsafe_get b from = '\n' then from
  else newline_bytewise b (from + 1) stop

(* Eight bytes per step: [x] has a zero byte, that is the word has a
   '\n', iff [(x - 0x0101..) land (lnot x) land 0x8080..] is non-zero. *)
let rec newline b from stop =
  if from + 8 > stop then newline_bytewise b from stop
  else
    let x = Int64.logxor (Bytes.get_int64_ne b from) 0x0a0a0a0a0a0a0a0aL in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
      <> 0L
    then newline_bytewise b from (from + 8)
    else newline b (from + 8) stop

(* Allocates nothing but the lines it hands over (and the pending
   buffer's growth). *)
let rec feed pending chunk off n frame =
  let stop = off + n in
  let nl = newline chunk off stop in
  if nl < 0 then Buffer.add_subbytes pending chunk off n
  else begin
    let p = Buffer.length pending and k = nl - off in
    let blank = blank_pending pending 0 p && blank_bytes chunk off nl in
    let line =
      if blank then ""
      else if p = 0 then Bytes.sub_string chunk off k
      else begin
        let line = Bytes.create (p + k) in
        Buffer.blit pending 0 line 0 p;
        Bytes.blit chunk off line p k;
        Bytes.unsafe_to_string line
      end
    in
    if p > retain then Buffer.reset pending else Buffer.clear pending;
    if not blank then frame line;
    feed pending chunk (nl + 1) (stop - nl - 1) frame
  end

(* ---------- output: reply strings drained as the socket takes them ---------- *)

type output = { replies : string Queue.t; mutable head_off : int }

let output () = { replies = Queue.create (); head_off = 0 }
let push o reply = if reply <> "" then Queue.add reply o.replies
let is_empty o = Queue.is_empty o.replies

(* Replies shorter than [small] ride together in one write through
   [gather]; anything longer is written from its own string. *)
let small = 4096
let gather = Bytes.create 65536

let rec advance o n =
  if n > 0 then begin
    let head = Queue.peek o.replies in
    let rest = String.length head - o.head_off in
    if n >= rest then begin
      ignore (Queue.pop o.replies);
      o.head_off <- 0;
      advance o (n - rest)
    end
    else o.head_off <- o.head_off + n
  end

let rec fill len replies =
  match replies () with
  | Seq.Cons (s, more)
    when String.length s < small && len + String.length s <= Bytes.length gather ->
      Bytes.blit_string s 0 gather len (String.length s);
      fill (len + String.length s) more
  | _ -> len

let rec flush o ~write =
  match Queue.peek_opt o.replies with
  | None -> ()
  | Some head ->
      let rest = String.length head - o.head_off in
      let buf, off, len =
        if rest >= small || Queue.length o.replies = 1 then
          (Bytes.unsafe_of_string head, o.head_off, rest)
        else begin
          Bytes.blit_string head o.head_off gather 0 rest;
          (gather, 0, fill rest (Seq.drop 1 (Queue.to_seq o.replies)))
        end
      in
      let n = write buf off len in
      advance o n;
      if n = len then flush o ~write
