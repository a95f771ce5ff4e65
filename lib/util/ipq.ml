(* Bounds-unchecked indexing for the heap's internals.  Every index
   below is a heap position under [len], and [len] never exceeds the
   arrays' length ([push] grows them first), so the runtime check would
   only cost time. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type t = {
  mutable prio : int array;
  mutable ord : int array;  (* push stamps: (prio, ord) orders entries *)
  mutable payload : int array;
  mutable len : int;
  mutable stamp : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0; ord = Array.make capacity 0;
    payload = Array.make capacity 0; len = 0; stamp = 0 }

let clear q =
  q.len <- 0;
  q.stamp <- 0

let grow q =
  let double a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 q.len;
    b
  in
  q.prio <- double q.prio;
  q.ord <- double q.ord;
  q.payload <- double q.payload

(* A new entry has the largest stamp, so it moves up only past a
   strictly larger priority. *)
let push q prio payload =
  if q.len = Array.length q.prio then grow q;
  let prios = q.prio and ords = q.ord and payloads = q.payload in
  let ord = q.stamp in
  q.stamp <- ord + 1;
  let i = ref q.len in
  q.len <- q.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if prios.!(parent) > prio then begin
      prios.!(!i) <- prios.!(parent);
      ords.!(!i) <- ords.!(parent);
      payloads.!(!i) <- payloads.!(parent);
      i := parent
    end
    else continue_ := false
  done;
  prios.!(!i) <- prio;
  ords.!(!i) <- ord;
  payloads.!(!i) <- payload

let peek_priority q = if q.len = 0 then -1 else q.prio.!(0)

let peek_payload q =
  if q.len = 0 then invalid_arg "Ipq.peek_payload: empty" else q.payload.!(0)

(* Entry [i] pops before one of priority [p] and stamp [o]. *)
let before prio ord i p o = prio.!(i) < p || (prio.!(i) = p && ord.!(i) < o)

(* Called with the last entry at index [len], just cut off: it moves
   down from the root past every entry that pops before it. *)
let sift_down q =
  let len = q.len in
  let prio = q.prio and ord = q.ord and payload = q.payload in
  let p = prio.!(len) and o = ord.!(len) and x = payload.!(len) in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= len then continue_ := false
    else begin
      let c =
        if l + 1 < len && before prio ord (l + 1) prio.!(l) ord.!(l) then l + 1
        else l
      in
      if before prio ord c p o then begin
        prio.!(!i) <- prio.!(c);
        ord.!(!i) <- ord.!(c);
        payload.!(!i) <- payload.!(c);
        i := c
      end
      else continue_ := false
    end
  done;
  prio.!(!i) <- p;
  ord.!(!i) <- o;
  payload.!(!i) <- x

let pop_payload q =
  if q.len = 0 then invalid_arg "Ipq.pop_payload: empty"
  else begin
    let x = q.payload.!(0) in
    q.len <- q.len - 1;
    if q.len > 0 then sift_down q;
    x
  end

let to_array q =
  let entries =
    Array.init q.len (fun i -> (q.prio.(i), q.ord.(i), q.payload.(i)))
  in
  Array.sort compare entries;
  Array.map (fun (p, _, x) -> (p, x)) entries
