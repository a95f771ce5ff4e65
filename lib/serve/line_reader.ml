(* The held bytes are buf.[head .. tail); none of buf.[head .. scan) is a
   newline, so [next] resumes its scan where the last one stopped. *)

type t = {
  mutable buf : Bytes.t;
  mutable head : int;
  mutable tail : int;
  mutable scan : int;
  max_line : int;
}

exception Too_long

let chunk = 4096

let create ?(max_line = max_int) () =
  { buf = Bytes.create chunk; head = 0; tail = 0; scan = 0; max_line }

(* Room for [n] more bytes: slide the held bytes to the front, doubling
   the buffer when that is not enough, so a line of L bytes costs O(L)
   copying in all. *)
let reserve t n =
  if t.tail + n > Bytes.length t.buf then begin
    let held = t.tail - t.head in
    let size = ref (Bytes.length t.buf) in
    while held + n > !size do
      size := 2 * !size
    done;
    let dst = if !size > Bytes.length t.buf then Bytes.create !size else t.buf in
    Bytes.blit t.buf t.head dst 0 held;
    t.buf <- dst;
    t.scan <- t.scan - t.head;
    t.head <- 0;
    t.tail <- held
  end

let read t fd =
  reserve t chunk;
  let n = Unix.read fd t.buf t.tail (Bytes.length t.buf - t.tail) in
  t.tail <- t.tail + n;
  n

let feed t b off len =
  reserve t len;
  Bytes.blit b off t.buf t.tail len;
  t.tail <- t.tail + len

let rec newline buf i tail =
  if i = tail then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) tail

let next t =
  let nl = newline t.buf t.scan t.tail in
  if nl < 0 then begin
    t.scan <- t.tail;
    if t.tail - t.head > t.max_line then raise Too_long;
    None
  end
  else if nl - t.head > t.max_line then raise Too_long
  else begin
    let line = Bytes.sub_string t.buf t.head (nl - t.head) in
    t.head <- nl + 1;
    t.scan <- t.head;
    if t.head = t.tail then begin
      (* drained: restart at the front *)
      t.head <- 0;
      t.tail <- 0;
      t.scan <- 0
    end;
    Some line
  end
