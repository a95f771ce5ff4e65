(* Bounds-unchecked indexing for the heap's internals.  Every index
   below is a heap position under [len], and [len] never exceeds the
   arrays' length ([push] grows them first), so the runtime check would
   only cost time. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type t = {
  mutable prio : int array;
  mutable payload : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0; payload = Array.make capacity 0; len = 0 }

let is_empty q = q.len = 0
let length q = q.len

let grow q =
  let cap = Array.length q.prio in
  let prio = Array.make (2 * cap) 0 in
  let payload = Array.make (2 * cap) 0 in
  Array.blit q.prio 0 prio 0 q.len;
  Array.blit q.payload 0 payload 0 q.len;
  q.prio <- prio;
  q.payload <- payload

let push q prio payload =
  if q.len = Array.length q.prio then grow q;
  let prios = q.prio and payloads = q.payload in
  let i = ref q.len in
  q.len <- q.len + 1;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if prios.!(parent) > prio then begin
      prios.!(!i) <- prios.!(parent);
      payloads.!(!i) <- payloads.!(parent);
      i := parent
    end
    else continue_ := false
  done;
  prios.!(!i) <- prio;
  payloads.!(!i) <- payload

let peek_priority q = if q.len = 0 then -1 else q.prio.!(0)

(* Called with the last entry at index [len], just cut off: it moves
   down from the root. *)
let sift_down q =
  let len = q.len in
  let prio = q.prio and payload = q.payload in
  let p = prio.!(len) and x = payload.!(len) in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= len then continue_ := false
    else begin
      let c = if l + 1 < len && prio.!(l + 1) < prio.!(l) then l + 1 else l in
      if prio.!(c) < p then begin
        prio.!(!i) <- prio.!(c);
        payload.!(!i) <- payload.!(c);
        i := c
      end
      else continue_ := false
    end
  done;
  prio.!(!i) <- p;
  payload.!(!i) <- x

let peek_payload q =
  if q.len = 0 then invalid_arg "Ipq.peek_payload: empty" else q.payload.!(0)

let drop_min q =
  if q.len > 0 then begin
    q.len <- q.len - 1;
    if q.len > 0 then sift_down q
  end

let pop_payload q =
  if q.len = 0 then invalid_arg "Ipq.pop_payload: empty"
  else begin
    let x = q.payload.!(0) in
    drop_min q;
    x
  end

let clear q = q.len <- 0

let to_array q = Array.init q.len (fun i -> (q.prio.(i), q.payload.(i)))

let of_array entries =
  let q = create ~capacity:(Array.length entries) () in
  Array.iteri
    (fun i (prio, payload) ->
      q.prio.(i) <- prio;
      q.payload.(i) <- payload)
    entries;
  q.len <- Array.length entries;
  q
