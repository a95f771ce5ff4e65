open Dfg
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report

(* Bounds-unchecked indexing for the dispatch path.  Every index written
   with [.!()] is a cell, port, slot, PE or event-slab number that the
   engine itself produced or that [restore] checked before writing
   anything: cells, ports and slots come from [Arena.build]; a slab slot
   from the slab's free stack, which holds only slots below its
   capacity; a queued event's port is an arc port of the arena and a
   cell's PE lies in [0, n_pe), from placement or from [check_state].
   The arrays indexed are the arena's and the machine's own, whose
   lengths never change after [create_arena] ([restore] blits into them
   and checks the lengths first), and the event queue's, which it
   indexes by bucket ([land mask]) or by a payload below the length of
   its links ([append] grows them first).  The runtime check would only
   cost time (this build has no flambda to eliminate it). *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type stats = {
  dispatches : int;
  fu_ops : int;
  am_ops : int;
  result_packets : int;
  ack_packets : int;
  retransmits : int;
  corruptions : int;
  corrupt_detected : int;
  corrupt_healed : int;
  pe_dispatches : int array;
}

type result = {
  outputs : (string * (int * Value.t) list) list;
  stats : stats;
  end_time : int;
  quiescent : bool;
  stall : SR.t option;
  violations : Fault.Violation.t list;
  checkpoints : int;
  recoveries : int;
}

(* [port]: the consumer-side global port of the arc the event travels *)
type event =
  | Deliver of {
      port : int;
      seq : int;
      value : Value.t;  (* payload as delivered (possibly corrupted) *)
      crc : int;  (* producer-side checksum of the payload as sent *)
    }
  | Ack of { port : int; seq : int }
  | Retransmit of { port : int; seq : int }

(* Resend delay for the given 0-based attempt: exponential backoff
   capped at 16 base timeouts so a lossy channel cannot push the next
   probe arbitrarily far out. *)
let retry_delay (r : Run_config.recovery) attempt =
  let cap = r.retransmit_after * 16 in
  let rec go d k = if k <= 0 || d >= cap then min d cap else go (d * r.retransmit_backoff) (k - 1) in
  go r.retransmit_after attempt

(* A pipelined server pool: each member accepts one operation per cycle;
   a request entering at [t] starts at the earliest slot of the least
   loaded member. *)
type pool = { mutable next_free : int array }

let pool_create n = { next_free = Array.make (max n 1) 0 }

let pool_start pool t =
  let next_free = pool.next_free in
  let best = ref 0 in
  for i = 1 to Array.length next_free - 1 do
    if next_free.(i) < next_free.(!best) then best := i
  done;
  let start = max t next_free.(!best) in
  next_free.(!best) <- start + 1;
  start

(* Per-PE dispatch servers. *)
let pe_start pes pe t =
  let start = max t pes.!(pe) in
  pes.!(pe) <- start + 1;
  start

let uses_fu (op : Opcode.t) =
  match op with
  | Opcode.Arith _ | Opcode.Compare _ | Opcode.Logic _ | Opcode.Neg
  | Opcode.Not | Opcode.Math _ ->
    true
  | _ -> false

type 'resume snap = {
  sn_time : int;
  sn_last_progress : int;
  sn_stats : stats;
  sn_run : Run_state.t;
  sn_pe : int array;
  sn_cons_seq : int array;
  sn_recv_seq : int array;
  sn_sent : int array;
  sn_out_attempts : int array;
  sn_out_value : Value.t array;
  sn_corrupt_pend : int array;
  sn_events : (int * event) array;  (* in the order they apply *)
  sn_pes : int array;
  sn_fus : int array;
  sn_ams : int array;
  sn_pe_dead : bool array;
  sn_sanitizer : San.snapshot option;
  sn_resume : 'resume;
}

type state = unit snap

type resume = {
  rs_crash_done : bool;
  rs_next_checkpoint : int;
  rs_checkpoints : int;
  rs_recoveries : int;
  rs_rollback : state option;
}

type snapshot = resume snap

(* The event slab.  A queued event is an int: the index of a slot in
   these flat arrays, which [events] orders by time.  A slot holds what
   the arena cannot tell: the event kind, the consumer-side global port,
   the sequence number and, for a delivery, the payload and its
   producer-side checksum.  Producer, consumer cell and local port are
   [port_producer], [port_cell] and [port_sub] of that port.  Free slots
   sit on a stack; the arrays double when it runs out. *)
type slab = {
  mutable kind : Bytes.t;
  mutable port : int array;
  mutable seq : int array;
  mutable value : Value.t array;  (* deliveries only *)
  mutable crc : int array;  (* deliveries only, and only when [crc_on] *)
  mutable free : int array;
  mutable n_free : int;
}

let ev_deliver = '\000'
let ev_ack = '\001'
let ev_retransmit = '\002'

(* A slab of [cap] slots, all free. *)
let slab_create cap =
  { kind = Bytes.make cap ev_retransmit; port = Array.make cap 0;
    seq = Array.make cap 0; value = Array.make cap Arena.dummy_value;
    crc = Array.make cap 0; free = Array.init cap (fun k -> cap - 1 - k);
    n_free = cap }

(* Called with every slot taken: the slots move into a slab twice the
   size, whose free slots are then exactly the new ones. *)
let slab_grow s =
  let cap = Array.length s.port in
  let b = slab_create (2 * cap) in
  Bytes.blit s.kind 0 b.kind 0 cap;
  Array.blit s.port 0 b.port 0 cap;
  Array.blit s.seq 0 b.seq 0 cap;
  Array.blit s.value 0 b.value 0 cap;
  Array.blit s.crc 0 b.crc 0 cap;
  s.kind <- b.kind;
  s.port <- b.port;
  s.seq <- b.seq;
  s.value <- b.value;
  s.crc <- b.crc;
  s.free <- b.free;
  s.n_free <- cap

let take_slot s =
  if s.n_free = 0 then slab_grow s;
  s.n_free <- s.n_free - 1;
  s.free.!(s.n_free)

let free_slot s i =
  s.free.!(s.n_free) <- i;
  s.n_free <- s.n_free + 1

(* Free every slot. *)
let slab_clear s =
  let cap = Array.length s.free in
  for k = 0 to cap - 1 do
    s.free.(k) <- cap - 1 - k
  done;
  s.n_free <- cap

(* The event queue: a timing wheel with one time per bucket.  For every
   time [t] in [base, base + horizon), bucket [t land mask] holds the
   events due at [t] as a FIFO list linked through [next], which is
   indexed by payload (the engine's payloads are slab slots).  Events
   due later wait in the overflow, a [Df_util.Ipq] keyed by time, which
   pops equal times in push order; they move into their bucket when
   [start] brings [base] within [horizon] of their time.  A push reaches
   a bucket only once its time is within [horizon] of [base], so the
   overflow's events of a time are in their bucket before anything
   later of that time is queued, and every bucket stays in queue
   order. *)
module Wheel = struct
  module Ipq = Df_util.Ipq

  let horizon = 1024
  let mask = horizon - 1

  type t = {
    head : int array;  (* per bucket: its first payload, or -1 *)
    tail : int array;  (* per bucket: its last payload, or -1 *)
    mutable next : int array;  (* per payload: the next in its bucket *)
    mutable base : int;
    mutable in_ring : int;
    over : Ipq.t;  (* payloads due at [base + horizon] or later *)
    mutable in_over : int;
        (* the overflow's entry count, kept here so that a time step
           makes no call into [Ipq] while the overflow is empty *)
  }

  let create () =
    { head = Array.make horizon (-1); tail = Array.make horizon (-1);
      next = Array.make 16 (-1); base = 0; in_ring = 0; over = Ipq.create ();
      in_over = 0 }

  let length w = w.in_ring + w.in_over

  let clear w ~base =
    Array.fill w.head 0 horizon (-1);
    Array.fill w.tail 0 horizon (-1);
    w.base <- base;
    w.in_ring <- 0;
    w.in_over <- 0;
    Ipq.clear w.over

  (* Link [x] at the tail of the bucket of time [t]. *)
  let append w t x =
    if x >= Array.length w.next then begin
      let next = Array.make (2 * (x + 1)) (-1) in
      Array.blit w.next 0 next 0 (Array.length w.next);
      w.next <- next
    end;
    let b = t land mask in
    w.next.!(x) <- -1;
    let last = w.tail.!(b) in
    if last < 0 then w.head.!(b) <- x else w.next.!(last) <- x;
    w.tail.!(b) <- x;
    w.in_ring <- w.in_ring + 1

  (* Queue payload [x] at time [t >= base]. *)
  let push w t x =
    if t - w.base < horizon then append w t x
    else begin
      Ipq.push w.over t x;
      w.in_over <- w.in_over + 1
    end

  (* The earliest time anything is due, or [-1] when nothing is queued.
     Every bucketed event is due before every overflow event. *)
  let next_time w =
    if w.in_ring > 0 then begin
      let t = ref w.base in
      while w.head.!(!t land mask) < 0 do
        incr t
      done;
      !t
    end
    else Ipq.peek_priority w.over

  (* The payload that applies first of those due at [t = next_time w],
     and its removal. *)
  let first w t =
    if t - w.base < horizon then w.head.!(t land mask)
    else Ipq.peek_payload w.over

  let unlink_head w b =
    let x = w.head.!(b) in
    let nx = w.next.!(x) in
    w.head.!(b) <- nx;
    if nx < 0 then w.tail.!(b) <- -1;
    w.in_ring <- w.in_ring - 1;
    x

  let pop_over w =
    w.in_over <- w.in_over - 1;
    Ipq.pop_payload w.over

  let drop_first w t =
    if t - w.base < horizon then ignore (unlink_head w (t land mask))
    else ignore (pop_over w)

  (* Make [t = next_time w] the current time: the overflow's events due
     before [t + horizon] move into their buckets, in their order. *)
  let start w t =
    w.base <- t;
    let limit = t + horizon in
    while w.in_over > 0 && Ipq.peek_priority w.over < limit do
      let at = Ipq.peek_priority w.over in
      append w at (pop_over w)
    done

  (* The next payload due at the current time, removed, or [-1] when
     none is left. *)
  let take w =
    let b = w.base land mask in
    if w.head.!(b) < 0 then -1 else unlink_head w b

  (* Every queued [(time, payload)], in the order they apply. *)
  let to_array w =
    let ring = ref [] in
    for t = w.base + horizon - 1 downto w.base do
      let items = ref [] and x = ref w.head.(t land mask) in
      while !x >= 0 do
        items := (t, !x) :: !items;
        x := w.next.(!x)
      done;
      ring := List.rev_append !items !ring
    done;
    Array.append (Array.of_list !ring) (Ipq.to_array w.over)
end

type t = {
  arch : Arch.t;
  max_time : int;
  tracer : Obs.Tracer.t;
  tracer_on : bool;
  fault : FP.t option;
  sanitizer : San.t;
  watchdog : int option;
  recovery : Run_config.recovery option;
  integrity : bool;
  (* Checksums are computed only where a payload can differ from what
     its producer sent, i.e. under a fault plan, or where they are
     verified.  Elsewhere a snapshot derives them from the payload. *)
  crc_on : bool;
  san_on : bool;
  crash : (int * int) option;  (* the fault plan's PE crash *)
  arena : Arena.t;
  st : Run_state.t;
  (* per-cell flat lookups precomputed from the arena: the dispatch path
     branches on a bool instead of re-matching the opcode every firing *)
  cell_uses_fu : bool array;
  boundary : bool array;  (* produces a completed array value (feeds an Output) *)
  (* Run state only the machine has, flat like [st].  [pe] is per cell,
     the rest per global port.  The recovery protocol's arrays stay
     inert without a policy.  At most one packet per port is ever
     unacknowledged (the producer cannot refire before its
     acknowledge), so that packet is the port's latest: sequence
     number [sent - 1]. *)
  pe : int array;  (* hosting PE *)
  cons_seq : int array;  (* packets consumed and acknowledged *)
  recv_seq : int array;  (* packets accepted *)
  sent : int array;  (* packets the port's producer sent *)
  out_attempts : int array;  (* resends of the unacknowledged packet, or -1 *)
  out_value : Value.t array;  (* that packet's payload *)
  (* sequence number of a packet discarded as corrupt and not yet
     replaced by a clean copy (-1: none) — consulted when a
     retransmission lands so the heal is visible in trace and counters *)
  corrupt_pend : int array;
  events : Wheel.t;  (* slab slots by time *)
  slab : slab;
  pes : int array;
  fus : pool;
  ams : pool;
  pe_dead : bool array;
  mutable crash_done : bool;
  mutable dispatches : int;
  mutable fu_ops : int;
  mutable am_ops : int;
  mutable result_packets : int;
  mutable ack_packets : int;
  mutable retransmits : int;
  mutable corruptions : int;
  mutable corrupt_detected : int;
  mutable corrupt_healed : int;
  pe_dispatches : int array;
  mutable now : int;
  mutable last_progress : int;
  (* Deliver/Ack events still queued.  When this hits zero the only
     queued events are retransmission timers, which lets the engine ask
     whether they can ever change state again (see [advance]). *)
  mutable live_events : int;
  (* cells to re-examine: an int ring, [in_dirty] bounds it at n *)
  dirty : int array;
  mutable dirty_head : int;
  mutable dirty_len : int;
  in_dirty : Bytes.t;
  mutable next_checkpoint : int;
  (* the crash rollback target: the last checkpoint, kept only while a
     crash is still to strike (see [rollback_pending]) *)
  mutable rollback : state option;
  mutable checkpoints : int;
  mutable recoveries : int;
  mutable quiescent : bool;
  mutable watchdog_tripped : bool;
  mutable finished : bool;
}

let stats_of m : stats =
  {
    dispatches = m.dispatches;
    fu_ops = m.fu_ops;
    am_ops = m.am_ops;
    result_packets = m.result_packets;
    ack_packets = m.ack_packets;
    retransmits = m.retransmits;
    corruptions = m.corruptions;
    corrupt_detected = m.corrupt_detected;
    corrupt_healed = m.corrupt_healed;
    pe_dispatches = Array.copy m.pe_dispatches;
  }

(* A slab slot holding an event of [kind] for global port [p]; the
   caller queues it, and parks a delivery's payload in it. *)
let new_event m kind p seq =
  let s = m.slab in
  let i = take_slot s in
  Bytes.unsafe_set s.kind i kind;
  s.port.!(i) <- p;
  s.seq.!(i) <- seq;
  if kind <> ev_retransmit then m.live_events <- m.live_events + 1;
  i

let schedule m t kind p seq = Wheel.push m.events t (new_event m kind p seq)

let schedule_deliver m t p seq value crc =
  let i = new_event m ev_deliver p seq in
  m.slab.value.!(i) <- value;
  m.slab.crc.!(i) <- crc;
  Wheel.push m.events t i

(* ------------------------------------------------------------------ *)
(* snapshot / restore                                                 *)
(* ------------------------------------------------------------------ *)

(* The public form of slab slot [i].  A delivery queued without a
   checksum carried a payload no fault could have touched, so the
   checksum its producer would have attached is that of the payload. *)
let event_of_slot m i =
  let s = m.slab in
  let port = s.port.(i) and seq = s.seq.(i) in
  let kind = Bytes.get s.kind i in
  if kind = ev_deliver then
    let value = s.value.(i) in
    Deliver
      { port; seq; value;
        crc = (if m.crc_on then s.crc.(i) else Integrity.checksum_value value) }
  else if kind = ev_ack then Ack { port; seq }
  else Retransmit { port; seq }

let events_of_slab m =
  Array.map (fun (t, i) -> (t, event_of_slot m i)) (Wheel.to_array m.events)

let state m : state =
  {
    sn_time = m.now;
    sn_last_progress = m.last_progress;
    sn_stats = stats_of m;
    sn_run = Run_state.snapshot m.st;
    sn_pe = Array.copy m.pe;
    sn_cons_seq = Array.copy m.cons_seq;
    sn_recv_seq = Array.copy m.recv_seq;
    sn_sent = Array.copy m.sent;
    sn_out_attempts = Array.copy m.out_attempts;
    (* canonical: payload slots of acknowledged packets are blanked *)
    sn_out_value =
      Array.mapi
        (fun p v -> if m.out_attempts.(p) >= 0 then v else Arena.dummy_value)
        m.out_value;
    sn_corrupt_pend = Array.copy m.corrupt_pend;
    sn_events = events_of_slab m;
    sn_pes = Array.copy m.pes;
    sn_fus = Array.copy m.fus.next_free;
    sn_ams = Array.copy m.ams.next_free;
    sn_pe_dead = Array.copy m.pe_dead;
    sn_sanitizer = San.snapshot m.sanitizer;
    sn_resume = ();
  }

(* A rollback target matters only while a crash is still to strike a
   machine that recovers from it. *)
let rollback_pending m =
  m.recovery <> None && (not m.crash_done) && Option.is_some m.crash

let snapshot m : snapshot =
  {
    (state m) with
    sn_resume =
      {
        rs_crash_done = m.crash_done;
        rs_next_checkpoint = m.next_checkpoint;
        rs_checkpoints = m.checkpoints;
        rs_recoveries = m.recoveries;
        rs_rollback = (if rollback_pending m then m.rollback else None);
      };
  }

let mark_all m =
  let n = m.arena.Arena.n in
  for id = 0 to n - 1 do
    m.dirty.(id) <- id
  done;
  Bytes.fill m.in_dirty 0 n '\001';
  m.dirty_head <- 0;
  m.dirty_len <- n

(* Queue the events of a snapshot taken at [time], in the order listed,
   which is the order they apply. *)
let load_events m ~time events =
  slab_clear m.slab;
  Wheel.clear m.events ~base:time;
  m.live_events <- 0;
  Array.iter
    (fun (t, ev) ->
      match ev with
      | Deliver { port; seq; value; crc } ->
        schedule_deliver m t port seq value crc
      | Ack { port; seq } -> schedule m t ev_ack port seq
      | Retransmit { port; seq } -> schedule m t ev_retransmit port seq)
    events

(* A snapshot's shape and the fields the engine indexes with, all
   checked before anything is overwritten: a refused restore leaves the
   machine as it was, and the engine's unchecked indices (see [.!()])
   hold for whatever [restore] accepts.  This is the only check a
   snapshot meets: [Run_state.restore] and [San.restore] write what it
   accepted without checking again.  A field is named as in the
   checkpoint document. *)
let check_state m (s : _ snap) =
  let fail fmt =
    Printf.ksprintf (fun e -> invalid_arg ("Machine_engine.restore: " ^ e)) fmt
  in
  let st = m.st and r = s.sn_run in
  (* every per-cell and per-port array has the length of the machine's *)
  let fits field snap mine what =
    if Array.length snap <> Array.length mine then
      fail "%s has length %d, the graph has %d %s" field (Array.length snap)
        (Array.length mine) what
  in
  fits "pe" s.sn_pe m.pe "cells";
  fits "acks" r.Run_state.pending_acks st.Run_state.pending_acks "cells";
  fits "cur" r.Run_state.cursor st.Run_state.cursor "cells";
  fits "fifo" r.Run_state.fifo_buf st.Run_state.fifo_buf "cells";
  fits "col" r.Run_state.collected st.Run_state.collected "cells";
  fits "ops" r.Run_state.present st.Run_state.present "ports";
  fits "ops" r.Run_state.value st.Run_state.value "ports";
  fits "cons" s.sn_cons_seq m.cons_seq "ports";
  fits "recv" s.sn_recv_seq m.recv_seq "ports";
  fits "sent" s.sn_sent m.sent "ports";
  fits "att" s.sn_out_attempts m.out_attempts "ports";
  fits "outv" s.sn_out_value m.out_value "ports";
  fits "cpend" s.sn_corrupt_pend m.corrupt_pend "ports";
  let n_pe = Array.length m.pes in
  if
    Array.length s.sn_pes <> n_pe
    || Array.length s.sn_fus <> Array.length m.fus.next_free
    || Array.length s.sn_ams <> Array.length m.ams.next_free
  then fail "snapshot is for a different arch";
  Array.iteri
    (fun id pe ->
      if pe < 0 || pe >= n_pe then
        fail "pe of cell %d is %d, outside the arch's PEs 0..%d" id pe
          (n_pe - 1))
    s.sn_pe;
  let per_pe field len =
    if len <> n_pe then
      fail "%s has length %d, the arch has %d PEs" field len n_pe
  in
  per_pe "pe_dead" (Array.length s.sn_pe_dead);
  per_pe "pe_dispatches" (Array.length s.sn_stats.pe_dispatches);
  Array.iteri
    (fun id c -> if c < 0 then fail "cur of cell %d is %d, below 0" id c)
    r.Run_state.cursor;
  Array.iteri
    (fun id items ->
      let cap = Array.length st.Run_state.fifo_buf.(id) in
      if Array.length items > cap then
        fail "fifo of cell %d holds %d items, its capacity is %d" id
          (Array.length items) cap)
    r.Run_state.fifo_buf;
  Option.iter (fail "sanitizer: %s") (San.misfit m.sanitizer s.sn_sanitizer);
  (* every queued event is due after the snapshot's time, listed in the
     order the events apply, and travels an arc of the arena *)
  Array.iteri
    (fun k (t, ev) ->
      if t <= s.sn_time then
        fail "events[%d] is due at %d, not after the snapshot's time %d" k t
          s.sn_time;
      if k > 0 && t < fst s.sn_events.(k - 1) then
        fail "events[%d] is due at %d, before events[%d] at %d" k t (k - 1)
          (fst s.sn_events.(k - 1));
      let (Deliver { port; _ } | Ack { port; _ } | Retransmit { port; _ }) =
        ev
      in
      if not (Arena.is_arc m.arena port) then
        fail "events[%d]: port %d is not an arc port of this graph" k port)
    s.sn_events

(* Reinstate machine state: everything a crash rollback rewinds.  The
   checkpoint clock, the crash flag, the rollback target and the
   checkpoint/recovery counters are left to the caller. *)
let restore_state m (s : _ snap) =
  check_state m s;
  Run_state.restore m.st s.sn_run;
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  m.now <- s.sn_time;
  m.last_progress <- s.sn_last_progress;
  blit s.sn_pe m.pe;
  blit s.sn_cons_seq m.cons_seq;
  blit s.sn_recv_seq m.recv_seq;
  blit s.sn_sent m.sent;
  blit s.sn_out_attempts m.out_attempts;
  blit s.sn_out_value m.out_value;
  blit s.sn_corrupt_pend m.corrupt_pend;
  load_events m ~time:s.sn_time s.sn_events;
  blit s.sn_pes m.pes;
  m.fus.next_free <- Array.copy s.sn_fus;
  m.ams.next_free <- Array.copy s.sn_ams;
  blit s.sn_pe_dead m.pe_dead;
  let stats = s.sn_stats in
  m.dispatches <- stats.dispatches;
  m.fu_ops <- stats.fu_ops;
  m.am_ops <- stats.am_ops;
  m.result_packets <- stats.result_packets;
  m.ack_packets <- stats.ack_packets;
  m.retransmits <- stats.retransmits;
  m.corruptions <- stats.corruptions;
  m.corrupt_detected <- stats.corrupt_detected;
  m.corrupt_healed <- stats.corrupt_healed;
  blit stats.pe_dispatches m.pe_dispatches;
  San.restore m.sanitizer s.sn_sanitizer;
  m.quiescent <- false;
  m.watchdog_tripped <- false;
  m.finished <- false;
  mark_all m

let restore m (sn : snapshot) =
  Option.iter (check_state m) sn.sn_resume.rs_rollback;
  restore_state m sn;
  let r = sn.sn_resume in
  m.crash_done <- r.rs_crash_done;
  m.next_checkpoint <- r.rs_next_checkpoint;
  m.checkpoints <- r.rs_checkpoints;
  m.recoveries <- r.rs_recoveries;
  m.rollback <- r.rs_rollback

(* ------------------------------------------------------------------ *)
(* construction                                                       *)
(* ------------------------------------------------------------------ *)

(* The machine model's default time budget is larger than the graph
   engine's: resource latencies stretch the same workload. *)
let default_max_time = 30_000_000

let default_config = Run_config.(default |> with_max_time default_max_time)

let create_arena (cfg : Run_config.t) ~(arch : Arch.t) (a : Arena.t) ~inputs =
  let max_time = cfg.Run_config.max_time in
  let tracer = cfg.Run_config.tracer in
  let fault = cfg.Run_config.fault in
  let watchdog = cfg.Run_config.watchdog in
  let recovery = cfg.Run_config.recovery in
  let integrity = cfg.Run_config.integrity in
  (match Run_config.check cfg with Error e -> invalid_arg e | Ok () -> ());
  (* every event is then due after the time it is queued at, which the
     event queue and [check_state] rely on *)
  if
    arch.Arch.rn_latency < 1 || arch.Arch.fu_latency < 0
    || arch.Arch.am_latency < 0
  then
    invalid_arg
      "Machine_engine: the arch needs rn_latency >= 1, fu_latency >= 0 and \
       am_latency >= 0";
  let sanitizer =
    if cfg.Run_config.sanitize then San.create a.Arena.graph else San.null
  in
  let st = Run_state.create ~who:"Machine_engine.run" a ~inputs in
  let n = max a.Arena.n 1 and n_ports = max a.Arena.n_ports 1 in
  (* block boundaries: producers feeding an Output cell *)
  let boundary = Array.make n false in
  for id = 0 to a.Arena.n - 1 do
    match a.Arena.ops.(id) with
    | Opcode.Output _ ->
      let src = a.Arena.port_producer.(a.Arena.port_base.(id)) in
      if src >= 0 then boundary.(src) <- true
    | _ -> ()
  done;
  let n_pe = max 1 arch.Arch.n_pe in
  let m =
    {
      arch;
      max_time;
      tracer;
      tracer_on = Obs.Tracer.enabled tracer;
      fault;
      sanitizer;
      watchdog;
      recovery;
      integrity;
      crc_on = integrity || Option.is_some fault;
      san_on = San.enabled sanitizer;
      crash = Option.bind fault FP.crash;
      arena = a;
      st;
      cell_uses_fu = Array.map uses_fu a.Arena.ops;
      boundary;
      pe = Array.init n (fun id -> id mod n_pe);
      cons_seq = Array.make n_ports 0;
      recv_seq = Array.make n_ports 0;
      sent = Array.make n_ports 0;
      out_attempts = Array.make n_ports (-1);
      out_value = Array.make n_ports Arena.dummy_value;
      corrupt_pend = Array.make n_ports (-1);
      events = Wheel.create ();
      slab = slab_create 16;
      pes = Array.make n_pe 0;
      fus = pool_create arch.Arch.n_fu;
      ams = pool_create arch.Arch.n_am;
      pe_dead = Array.make n_pe false;
      crash_done = false;
      dispatches = 0;
      fu_ops = 0;
      am_ops = 0;
      result_packets = 0;
      ack_packets = 0;
      retransmits = 0;
      corruptions = 0;
      corrupt_detected = 0;
      corrupt_healed = 0;
      pe_dispatches = Array.make n_pe 0;
      now = 0;
      last_progress = 0;
      live_events = 0;
      dirty = Array.make n 0;
      dirty_head = 0;
      dirty_len = 0;
      in_dirty = Bytes.make n '\000';
      next_checkpoint = max_int;
      rollback = None;
      checkpoints = 0;
      recoveries = 0;
      quiescent = false;
      watchdog_tripped = false;
      finished = false;
    }
  in
  (match recovery with
  | None -> ()
  | Some r ->
    (* Program-load tokens are logically packets the producer already
       sent: give each a protocol entry and a retransmission timer so a
       lost acknowledge for an initial token is recoverable too. *)
    for p = 0 to a.Arena.n_ports - 1 do
      if a.Arena.port_kind.(p) = Arena.kind_init then begin
        m.recv_seq.(p) <- 1;
        let src = a.Arena.port_producer.(p) in
        if src >= 0 then begin
          m.sent.(p) <- 1;
          m.out_attempts.(p) <- 0;
          m.out_value.(p) <- a.Arena.port_value.(p);
          schedule m r.retransmit_after ev_retransmit p 0
        end
      end
    done;
    if r.checkpoint_every > 0 then m.next_checkpoint <- r.checkpoint_every;
    (* the implicit t=0 checkpoint: a crash before the first periodic
       checkpoint rolls back to program load *)
    if rollback_pending m then m.rollback <- Some (state m));
  mark_all m;
  m

let create_cfg cfg ~arch g ~inputs = create_arena cfg ~arch (Arena.build g) ~inputs

(* ------------------------------------------------------------------ *)
(* the event loop                                                     *)
(* ------------------------------------------------------------------ *)

let emit_fault m kind ~src ~dst ~extra =
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fault_injected
         { time = m.now; track = m.pe.(dst); kind; src; dst; extra })

let emit_violation m (v : Fault.Violation.t) =
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Violation
         { time = v.Fault.Violation.v_time;
           track = m.pe.(v.Fault.Violation.v_node);
           node = v.Fault.Violation.v_node;
           label = v.Fault.Violation.v_label;
           kind = Fault.Violation.kind_name v.Fault.Violation.v_kind;
           detail = v.Fault.Violation.v_detail })

let mark m id =
  if Bytes.unsafe_get m.in_dirty id = '\000' then begin
    Bytes.unsafe_set m.in_dirty id '\001';
    let n = Array.length m.dirty in
    let tail = m.dirty_head + m.dirty_len in
    m.dirty.!(if tail >= n then tail - n else tail) <- id;
    m.dirty_len <- m.dirty_len + 1
  end

(* Deliver one result packet copy to global port [p] ([port] of cell
   [dst]), subject to network faults.  [seq] identifies the packet on
   its channel when recovery is on.  The checksum travels with the
   packet as computed by the producer; a corruption fault flips a
   payload bit *after* that, so the mismatch is observable at the
   consumer iff integrity checking is on. *)
let deliver_packet m ~src ~p ~dst ~port ~seq ~value ~base =
  let crc = if m.crc_on then Integrity.checksum_value value else 0 in
  let deliver_at =
    match m.fault with
    | None -> base
    | Some f ->
      let extra = FP.result_delay f ~time:base ~src ~dst ~port in
      if extra > 0 then emit_fault m "delay" ~src ~dst ~extra;
      base + extra
  in
  let dropped =
    match m.fault with
    | None -> false
    | Some f -> FP.drop_result f ~time:base ~src ~dst ~port
  in
  if dropped then
    (* the packet is lost in the routing network: without recovery its
       consumer starves; with recovery the retransmission timer resends *)
    emit_fault m "drop" ~src ~dst ~extra:0
  else begin
    let value =
      match m.fault with
      | None -> value
      | Some f -> (
        match FP.corrupt_result f ~time:base ~src ~dst ~port value with
        | None -> value
        | Some corrupted ->
          m.corruptions <- m.corruptions + 1;
          if m.tracer_on then
            Obs.Tracer.emit m.tracer
              (Obs.Event.Corrupt_injected
                 { time = base; track = m.pe.(dst); src; dst; port;
                   was = Value.to_string value;
                   became = Value.to_string corrupted });
          corrupted)
    in
    schedule_deliver m deliver_at p seq value crc;
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Deliver
           { time = deliver_at; track = m.pe.(dst); src; dst; port;
             value = Value.to_string value })
  end;
  deliver_at

let am_latency m src ~ready_at =
  m.arch.Arch.am_latency
  + (match m.fault with
    | None -> 0
    | Some f -> FP.am_extra f ~node:src ~time:ready_at)

(* Fire a cell: PE dispatch, optional FU execution, then packet
   delivery through RN or AM depending on the policy and whether the
   producer is a block boundary. *)
let send m src slot value ~ready_at =
  let a = m.arena in
  let s = a.Arena.slot_base.!(src) + slot in
  let db = a.Arena.dest_base.!(s) and de = a.Arena.dest_base.!(s + 1) in
  for d = db to de - 1 do
    let gp = a.Arena.dest_port.!(d) in
    let ep_node = a.Arena.port_cell.!(gp) in
    let ep_port = a.Arena.port_sub.!(gp) in
    m.result_packets <- m.result_packets + 1;
    let base =
      match m.arch.Arch.array_policy with
      | Arch.Stored when m.boundary.!(src) -> (
        match a.Arena.ops.!(ep_node) with
        | Opcode.Output _ ->
          (* final results are stored once *)
          m.am_ops <- m.am_ops + 1;
          pool_start m.ams ready_at + am_latency m src ~ready_at
        | _ ->
          (* write by the producer, read by the consumer *)
          m.am_ops <- m.am_ops + 2;
          let write_done = pool_start m.ams ready_at + am_latency m src ~ready_at in
          pool_start m.ams write_done + am_latency m src ~ready_at)
      | _ -> ready_at + m.arch.Arch.rn_latency
    in
    let seq =
      match m.recovery with
      | None -> 0
      | Some r ->
        let seq = m.sent.!(gp) in
        m.sent.!(gp) <- seq + 1;
        m.out_attempts.!(gp) <- 0;
        m.out_value.!(gp) <- value;
        schedule m (ready_at + r.retransmit_after) ev_retransmit gp seq;
        seq
    in
    let deliver_at =
      deliver_packet m ~src ~p:gp ~dst:ep_node ~port:ep_port ~seq ~value ~base
    in
    (* a misbehaving routing network may deliver the same result
       packet twice — without recovery, the breach the sanitizer
       exists to catch; with recovery, deduplicated by sequence *)
    match m.fault with
    | Some f
      when FP.duplicate f ~time:ready_at ~src ~dst:ep_node ~port:ep_port ->
      m.result_packets <- m.result_packets + 1;
      emit_fault m "dup" ~src ~dst:ep_node ~extra:0;
      schedule_deliver m (deliver_at + 1) gp seq value
        (Integrity.checksum_value value)
    | _ -> ()
  done;
  if m.san_on then
    San.on_send m.sanitizer ~time:ready_at ~node:src ~count:(de - db);
  m.st.Run_state.pending_acks.!(src) <-
    m.st.Run_state.pending_acks.!(src) + (de - db)

(* Send (or resend) an acknowledge for the packet [seq] consumed on
   global port [p] of cell [from_node], subject to ack faults. *)
let send_ack m ~p ~from_node ~seq ~dst ~acked_at =
  m.ack_packets <- m.ack_packets + 1;
  let dropped =
    match m.fault with
    | None -> false
    | Some f -> FP.drop_ack f ~time:acked_at ~src:from_node ~dst
  in
  if dropped then
    (* the acknowledge is lost in the network: without recovery its
       producer starves; with recovery the producer's retransmission
       provokes a fresh acknowledge *)
    emit_fault m "drop-ack" ~src:from_node ~dst ~extra:0
  else begin
    let extra =
      match m.fault with
      | None -> 0
      | Some f -> FP.ack_delay f ~time:acked_at ~src:from_node ~dst
    in
    if extra > 0 then emit_fault m "ack-delay" ~src:from_node ~dst ~extra;
    let at = acked_at + m.arch.Arch.rn_latency + extra in
    schedule m at ev_ack p seq;
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Ack
           { time = at; track = m.pe.(dst); src = from_node; dst })
  end

(* Empty global port [p] and acknowledge its producer. *)
let consume m p ~acked_at =
  let a = m.arena in
  if a.Arena.port_kind.!(p) <> Arena.kind_const then begin
    let id = a.Arena.port_cell.!(p) in
    (if m.san_on then
       match
         San.on_consume m.sanitizer ~time:m.now ~node:id
           ~port:a.Arena.port_sub.(p)
       with
       | Some v -> emit_violation m v
       | None -> ());
    m.st.Run_state.present.!(p) <- false;
    let src = a.Arena.port_producer.!(p) in
    if src >= 0 then begin
      let seq = m.cons_seq.!(p) in
      m.cons_seq.!(p) <- seq + 1;
      send_ack m ~p ~from_node:id ~seq ~dst:src ~acked_at
    end
  end

let dispatch m id =
  let pe = m.pe.!(id) in
  m.dispatches <- m.dispatches + 1;
  m.pe_dispatches.!(pe) <- m.pe_dispatches.!(pe) + 1;
  let stall =
    match m.fault with
    | None -> 0
    | Some f -> FP.pe_stall f ~pe ~time:m.now
  in
  if stall > 0 then emit_fault m "pe-stall" ~src:id ~dst:id ~extra:stall;
  let start = pe_start m.pes pe (m.now + stall) in
  let done_at =
    if m.cell_uses_fu.!(id) then begin
      m.fu_ops <- m.fu_ops + 1;
      let fu_latency =
        m.arch.Arch.fu_latency
        + (match m.fault with
          | None -> 0
          | Some f -> FP.fu_extra f ~node:id ~time:start)
      in
      pool_start m.fus (start + 1) + fu_latency
    end
    else start + 1
  in
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fire
         { time = start; dur = max 1 (done_at - start); track = pe; node = id;
           label = m.arena.Arena.labels.!(id);
           op = Opcode.name m.arena.Arena.ops.!(id) });
  done_at

(* ---- firing rules, one helper per opcode family; [b] is the cell's
   first global port ---- *)

let finish_compute m id b value =
  let done_at = dispatch m id in
  for p = b to m.arena.Arena.port_base.!(id + 1) - 1 do
    consume m p ~acked_at:done_at
  done;
  send m id 0 value ~ready_at:done_at;
  true

let fire_gate m id b ~tgate =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.!(b) && present.!(b + 1) then begin
    let ctl = Value.to_bool v.!(b) in
    let data = v.!(b + 1) in
    let pass = if tgate then ctl else not ctl in
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    consume m (b + 1) ~acked_at:done_at;
    if pass then send m id 0 data ~ready_at:done_at;
    true
  end
  else false

let fire_switch m id b =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.!(b) && present.!(b + 1) then begin
    let ctl = Value.to_bool v.!(b) in
    let data = v.!(b + 1) in
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    consume m (b + 1) ~acked_at:done_at;
    send m id (if ctl then 0 else 1) data ~ready_at:done_at;
    true
  end
  else false

let fire_merge m id b =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.!(b) then begin
    let sel = if Value.to_bool v.!(b) then 1 else 2 in
    if present.!(b + sel) then begin
      let data = v.!(b + sel) in
      let done_at = dispatch m id in
      consume m b ~acked_at:done_at;
      consume m (b + sel) ~acked_at:done_at;
      send m id 0 data ~ready_at:done_at;
      true
    end
    else false
  end
  else false

let fire_merge_switch m id b =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.!(b) && present.!(b + 3) then begin
    let sel = if Value.to_bool v.!(b) then 1 else 2 in
    if present.!(b + sel) then begin
      let data = v.!(b + sel) in
      let d = Value.to_bool v.!(b + 3) in
      let done_at = dispatch m id in
      consume m b ~acked_at:done_at;
      consume m (b + sel) ~acked_at:done_at;
      consume m (b + 3) ~acked_at:done_at;
      send m id 0 data ~ready_at:done_at;
      if d then send m id 1 data ~ready_at:done_at;
      true
    end
    else false
  end
  else false

let fire_fifo m id b k ~acks_clear =
  let st = m.st in
  let buf = st.Run_state.fifo_buf.!(id) in
  let progressed = ref false in
  if acks_clear && st.Run_state.fifo_len.!(id) > 0 then begin
    let h = st.Run_state.fifo_head.!(id) in
    let v = buf.(h) in
    st.Run_state.fifo_head.!(id) <-
      (if h + 1 = Array.length buf then 0 else h + 1);
    st.Run_state.fifo_len.!(id) <- st.Run_state.fifo_len.!(id) - 1;
    let done_at = dispatch m id in
    send m id 0 v ~ready_at:done_at;
    progressed := true
  end;
  if st.Run_state.present.!(b) && st.Run_state.fifo_len.!(id) < k then begin
    let tail = st.Run_state.fifo_head.!(id) + st.Run_state.fifo_len.!(id) in
    let tail =
      if tail >= Array.length buf then tail - Array.length buf else tail
    in
    buf.(tail) <- st.Run_state.value.!(b);
    st.Run_state.fifo_len.!(id) <- st.Run_state.fifo_len.!(id) + 1;
    consume m b ~acked_at:m.now;
    progressed := true
  end;
  !progressed

(* Emit the next packet of a generator ([Input], [Iota], [Bool_source]). *)
let fire_source m id v =
  m.st.Run_state.cursor.!(id) <- m.st.Run_state.cursor.!(id) + 1;
  let done_at = dispatch m id in
  send m id 0 v ~ready_at:done_at;
  true

let fire_output m id b =
  let st = m.st in
  if st.Run_state.present.!(b) then begin
    st.Run_state.collected.!(id) <-
      (m.now, st.Run_state.value.!(b)) :: st.Run_state.collected.!(id);
    (if m.san_on then
       match San.on_output m.sanitizer ~time:m.now ~node:id with
       | Some viol -> emit_violation m viol
       | None -> ());
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    true
  end
  else false

let fire_sink m id b =
  if m.st.Run_state.present.!(b) then begin
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    true
  end
  else false

let try_fire m id =
  let open Opcode in
  if m.pe_dead.!(m.pe.!(id)) then false
  else
    let st = m.st in
    let present = st.Run_state.present and v = st.Run_state.value in
    let acks_clear = st.Run_state.pending_acks.!(id) = 0 in
    let b = m.arena.Arena.port_base.!(id) in
    match m.arena.Arena.ops.!(id) with
    | Id -> acks_clear && present.!(b) && finish_compute m id b v.!(b)
    | Arith op ->
      acks_clear && present.!(b) && present.!(b + 1)
      && finish_compute m id b (Opcode.apply_arith op v.!(b) v.!(b + 1))
    | Compare op ->
      acks_clear && present.!(b) && present.!(b + 1)
      && finish_compute m id b (Opcode.apply_cmp op v.!(b) v.!(b + 1))
    | Logic op ->
      acks_clear && present.!(b) && present.!(b + 1)
      && finish_compute m id b (Opcode.apply_logic op v.!(b) v.!(b + 1))
    | Math mf ->
      acks_clear && present.!(b)
      && finish_compute m id b (Opcode.apply_math mf v.!(b))
    | Neg ->
      acks_clear && present.!(b)
      && finish_compute m id b
           (match v.!(b) with
           | Value.Int i -> Value.Int (-i)
           | Value.Real f -> Value.Real (-.f)
           | Value.Bool _ -> invalid_arg "NEG of boolean")
    | Not ->
      acks_clear && present.!(b)
      && finish_compute m id b (Value.Bool (not (Value.to_bool v.!(b))))
    | Tgate -> acks_clear && fire_gate m id b ~tgate:true
    | Fgate -> acks_clear && fire_gate m id b ~tgate:false
    | Switch -> acks_clear && fire_switch m id b
    | Merge -> acks_clear && fire_merge m id b
    | Merge_switch -> acks_clear && fire_merge_switch m id b
    | Fifo k -> fire_fifo m id b k ~acks_clear
    | Bool_source seq -> (
      acks_clear
      &&
      match Ctlseq.nth seq st.Run_state.cursor.!(id) with
      | None -> false
      | Some bit -> fire_source m id (Value.Bool bit))
    | Iota { lo; hi; rep } ->
      acks_clear
      && fire_source m id
           (Value.Int (lo + (st.Run_state.cursor.!(id) / rep mod (hi - lo + 1))))
    | Input _ ->
      let stream = st.Run_state.stream.!(id) and i = st.Run_state.cursor.!(id) in
      acks_clear && i < Array.length stream && fire_source m id stream.(i)
    | Output _ -> fire_output m id b
    | Sink -> fire_sink m id b

(* The recovery protocol's view of global port [p]: is the packet
   [seq] still unacknowledged, and is it resident (accepted but not yet
   consumed) at its consumer? *)
let outstanding m p ~seq = m.out_attempts.!(p) >= 0 && m.sent.!(p) - 1 = seq

let resident m p ~seq = m.recv_seq.!(p) > seq && m.cons_seq.!(p) <= seq

let acked m dst =
  match if m.san_on then San.on_ack m.sanitizer ~time:m.now ~dst else None with
  | Some v -> emit_violation m v
  | None ->
    m.st.Run_state.pending_acks.!(dst) <- m.st.Run_state.pending_acks.!(dst) - 1

(* Delivery of packet [seq] (payload [value], producer checksum [crc])
   to global port [p]. *)
let apply_deliver m p seq value crc =
  let a = m.arena in
  let src = a.Arena.port_producer.!(p) in
  let dst = a.Arena.port_cell.!(p) and port = a.Arena.port_sub.!(p) in
  if m.integrity && not (Integrity.verify_value value crc) then begin
    (* checksum mismatch: the payload was corrupted in flight.  Discard
       the packet — from here on it behaves exactly like a drop, so
       without recovery the consumer starves (and the wedge surfaces
       through watchdog/conservation), while with recovery the
       producer's retransmission timer resends a clean copy. *)
    m.corrupt_detected <- m.corrupt_detected + 1;
    if m.recovery <> None && seq >= m.recv_seq.!(p) then
      m.corrupt_pend.!(p) <- seq;
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Corrupt_detected
           { time = m.now; track = m.pe.(dst); src; dst; port; seq })
  end
  else if m.recovery <> None && seq < m.recv_seq.!(p) then begin
    (* stale duplicate (retransmission of a packet already accepted, or
       a network dup).  If the original was already consumed, its
       acknowledge may have been the casualty — acknowledge again; if it
       is still resident, stay silent: the pending acknowledge will go
       out at consume time. *)
    if seq < m.cons_seq.!(p) then
      send_ack m ~p ~from_node:dst ~seq ~dst:src ~acked_at:m.now
  end
  else begin
    (match
       if m.san_on then San.on_deliver m.sanitizer ~time:m.now ~src ~dst ~port
       else None
     with
    | Some v -> emit_violation m v (* drop: engine state is untrustworthy *)
    | None ->
      if m.recovery <> None then begin
        m.recv_seq.!(p) <- seq + 1;
        if m.corrupt_pend.!(p) = seq then begin
          m.corrupt_pend.!(p) <- -1;
          m.corrupt_healed <- m.corrupt_healed + 1;
          if m.tracer_on then
            Obs.Tracer.emit m.tracer
              (Obs.Event.Corrupt_healed
                 { time = m.now; track = m.pe.(dst); src; dst; port; seq })
        end
      end;
      if m.st.Run_state.present.!(p) then begin
        if not m.san_on then
          invalid_arg
            (Printf.sprintf "machine: arc capacity violated at %s#%d.%d"
               a.Arena.labels.(dst) dst port)
      end
      else begin
        m.st.Run_state.present.!(p) <- true;
        m.st.Run_state.value.!(p) <- value
      end);
    mark m dst
  end

(* Acknowledge of packet [seq] consumed on global port [p]. *)
let apply_ack m p seq =
  let dst = m.arena.Arena.port_producer.!(p) in
  match m.recovery with
  | None ->
    acked m dst;
    mark m dst
  | Some _ ->
    (* acknowledges are idempotent under recovery: only the first one
       for a given packet frees the producer *)
    if outstanding m p ~seq then begin
      m.out_attempts.!(p) <- -1;
      acked m dst;
      mark m dst
    end

(* Retransmission timer of packet [seq] on global port [p]. *)
let apply_retransmit m p seq =
  match m.recovery with
  | None -> ()
  | Some r ->
    (* nothing to do once the packet was acknowledged *)
    if outstanding m p ~seq then begin
      let attempts = m.out_attempts.!(p) in
      if resident m p ~seq then
        (* The packet is resident, unconsumed, at the consumer: a resend
           could only be deduplicated, and the acknowledge is not due
           until the consumer fires.  Hold the timer without charging an
           attempt — the retry budget is for packets and acknowledges
           actually missing, not for a consumer that is slow to drain
           its store.  (Hardware would learn this from a receipt status
           piggybacked on the routing network; the simulator reads the
           consumer's store directly.) *)
        schedule m (m.now + retry_delay r attempts) ev_retransmit p seq
      else if attempts < r.max_retransmits then begin
        let a = m.arena in
        let src = a.Arena.port_producer.!(p) in
        let dst = a.Arena.port_cell.!(p) and port = a.Arena.port_sub.!(p) in
        let attempts = attempts + 1 in
        m.out_attempts.!(p) <- attempts;
        m.retransmits <- m.retransmits + 1;
        m.result_packets <- m.result_packets + 1;
        if m.tracer_on then
          Obs.Tracer.emit m.tracer
            (Obs.Event.Retransmit
               { time = m.now; track = m.pe.(src); src; dst; port;
                 attempt = attempts });
        ignore
          (deliver_packet m ~src ~p ~dst ~port ~seq ~value:m.out_value.!(p)
             ~base:(m.now + m.arch.Arch.rn_latency));
        schedule m (m.now + retry_delay r attempts) ev_retransmit p seq;
        (* an active resend is protocol liveness, not silence: the
           no-progress watchdog must not fire while the backoff chain is
           still probing.  A truly wedged channel still terminates: once
           retries are exhausted nothing reschedules and the queue
           drains to a quiescent (and visibly wrong) stop. *)
        m.last_progress <- m.now
      end
      (* else: retries exhausted — the channel is declared lost and the
         wedge surfaces as a stall / conservation violation *)
    end

(* Apply the event in slab slot [i].  The slot is read out and freed
   first: applying may queue new events, which may reuse it. *)
let apply_event m i =
  let s = m.slab in
  let kind = Bytes.unsafe_get s.kind i in
  let p = s.port.!(i) and seq = s.seq.!(i) in
  let value = s.value.!(i) and crc = s.crc.!(i) in
  free_slot s i;
  if kind = ev_retransmit then apply_retransmit m p seq
  else begin
    m.live_events <- m.live_events - 1;
    if kind = ev_deliver then apply_deliver m p seq value crc
    else apply_ack m p seq
  end

(* True when every unacknowledged packet in the system is already
   resident, unconsumed, at its consumer.  Resending any of them can
   only produce duplicates that the sequence check silently drops, and
   their acknowledges only come due if the consumer fires — so if the
   dirty queue is drained and no Deliver/Ack is in flight, no future
   event can change machine state: the remaining retransmission timers
   are noise and the machine is quiescent.  (This is what lets runs
   with free-running generator cells terminate: the generator's final
   token parks on an arc forever, and without this test its timer would
   keep the event queue alive until the watchdog misfired.) *)
let only_futile_outstanding m =
  let futile = ref true in
  for p = 0 to Array.length m.out_attempts - 1 do
    if m.out_attempts.(p) >= 0 && not (resident m p ~seq:(m.sent.(p) - 1))
    then futile := false
  done;
  !futile

(* Drop timer events whose packet has been acknowledged: they carry no
   work, and letting them advance the clock would make a clean drain
   look like a watchdog stall. *)
let rec skip_stale_retransmits m =
  let t = Wheel.next_time m.events in
  if t >= 0 then begin
    let s = m.slab in
    let i = Wheel.first m.events t in
    if
      Bytes.unsafe_get s.kind i = ev_retransmit
      && not (outstanding m s.port.!(i) ~seq:s.seq.!(i))
    then begin
      Wheel.drop_first m.events t;
      free_slot s i;
      skip_stale_retransmits m
    end
  end

let take_checkpoint m =
  if rollback_pending m then m.rollback <- Some (state m);
  m.checkpoints <- m.checkpoints + 1;
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Checkpoint
         { time = m.now; track = 0; seq = m.checkpoints;
           in_flight = Wheel.length m.events })

let do_crash m pe crash_at =
  m.crash_done <- true;
  if pe < Array.length m.pe_dead then begin
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Fault_injected
           { time = crash_at; track = pe; kind = "pe-crash"; src = pe;
             dst = pe; extra = 0 });
    match m.recovery with
    | None ->
      (* fail-stop with no recovery: the PE's cells are gone for good;
         the run wedges and the stall report names the dead PE *)
      m.pe_dead.(pe) <- true
    | Some r ->
      (* quiesce-and-rollback: surviving PEs discard the post-checkpoint
         timeline (cheap in a simulator, a barrier on hardware), the
         dead PE's cells are re-hosted, and the machine replays.  The
         acknowledge discipline makes the replay safe: output values are
         a function of the checkpoint state alone. *)
      let snap =
        match m.rollback with
        | Some s -> s
        | None -> assert false (* kept from create while a crash is pending *)
      in
      restore_state m snap;
      if r.checkpoint_every > 0 then
        m.next_checkpoint <- m.now + r.checkpoint_every;
      m.pe_dead.(pe) <- true;
      let alive p = not m.pe_dead.(p) in
      let remapped = ref 0 in
      for id = 0 to m.arena.Arena.n - 1 do
        if m.pe_dead.(m.pe.(id)) then begin
          m.pe.(id) <- Arch.place m.arch ~alive id;
          incr remapped
        end
      done;
      m.recoveries <- m.recoveries + 1;
      if m.tracer_on then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Recovery
             { time = crash_at; track = pe; pe; restored_to = snap.sn_time;
               remapped = !remapped })
  end

(* Nothing queued can change machine state any more: the machine is
   quiescent, unless the planned crash is still due, in which case it
   strikes the silent machine.  Returns whether to keep running. *)
let settle m =
  match m.crash with
  | Some (pe, at) when (not m.crash_done) && at <= m.max_time ->
    do_crash m pe (max at m.now);
    true
  | _ ->
    m.quiescent <- true;
    m.finished <- true;
    false

let advance m ~until =
  let continue_ = ref (not m.finished) in
  while !continue_ do
    let fired_any = ref false in
    while m.dirty_len > 0 do
      let id = m.dirty.!(m.dirty_head) in
      m.dirty_head <-
        (if m.dirty_head + 1 = Array.length m.dirty then 0 else m.dirty_head + 1);
      m.dirty_len <- m.dirty_len - 1;
      Bytes.unsafe_set m.in_dirty id '\000';
      if try_fire m id then begin
        fired_any := true;
        (* tried again only if it owes no acknowledge and its rule can
           hold again with no new arrival *)
        if m.st.Run_state.pending_acks.!(id) = 0 && Arena.refires m.arena id
        then mark m id
      end
    done;
    if !fired_any then m.last_progress <- m.now;
    if m.san_on && San.tripped m.sanitizer then begin
      m.finished <- true;
      continue_ := false
    end
    else begin
      (* only retransmission timers can be stale *)
      if Wheel.length m.events > m.live_events then
        skip_stale_retransmits m;
      let t = Wheel.next_time m.events in
      if t < 0 then continue_ := settle m
      else if m.live_events = 0 && only_futile_outstanding m then
        (* only futile retransmission timers left *)
        continue_ := settle m
      else
        match m.crash with
        | Some (pe, at) when (not m.crash_done) && at <= t -> do_crash m pe at
        | _ ->
          if t > m.max_time then begin
            m.finished <- true;
            continue_ := false
          end
          else if
            match m.watchdog with
            | Some k -> t - m.last_progress > k
            | None -> false
          then begin
            m.watchdog_tripped <- true;
            m.finished <- true;
            continue_ := false
          end
          else if t > until then continue_ := false
          else begin
            if t >= m.next_checkpoint then begin
              take_checkpoint m;
              m.next_checkpoint <-
                t
                + (match m.recovery with
                  | Some r -> max 1 r.checkpoint_every
                  | None -> max_int)
            end;
            m.now <- t;
            Wheel.start m.events t;
            let i = ref (Wheel.take m.events) in
            while !i >= 0 do
              apply_event m !i;
              i := Wheel.take m.events
            done
          end
    end
  done

let finished m = m.finished

let result m =
  let a = m.arena in
  if
    m.finished && m.quiescent
    && San.enabled m.sanitizer
    && not (San.tripped m.sanitizer)
  then
    List.iter (emit_violation m)
      (San.on_quiescence m.sanitizer ~time:m.now ~held:(Run_state.held a m.st));
  let build_stall reason =
    let dead_pes =
      List.filter (Array.get m.pe_dead)
        (List.init (Array.length m.pe_dead) Fun.id)
    in
    Run_state.stall ~dead_pes m.tracer ~track:(Array.get m.pe) a m.st
      ~time:m.now ~reason
  in
  let stall =
    if not m.finished then None
    else if San.tripped m.sanitizer then None
    else if m.watchdog_tripped then build_stall SR.No_progress
    else if m.quiescent then build_stall SR.Deadlock
    else build_stall SR.Max_time_exhausted
  in
  {
    outputs = Run_state.outputs a m.st;
    stats = stats_of m;
    end_time = m.now;
    quiescent = m.quiescent;
    stall;
    violations = San.violations m.sanitizer;
    checkpoints = m.checkpoints;
    recoveries = m.recoveries;
  }

let run_arena cfg ~arch a ~inputs =
  let m = create_arena cfg ~arch a ~inputs in
  advance m ~until:max_int;
  result m

let run_cfg cfg ~arch g ~inputs = run_arena cfg ~arch (Arena.build g) ~inputs

let am_fraction (stats : stats) =
  (* same class of bug as the PR 1 initiation_interval fix: an empty run
     has no defined AM fraction — report nan, not a spurious 0
     (Df_util.Conventions states the repo-wide rule) *)
  Df_util.Conventions.ratio
    (float_of_int stats.am_ops)
    (float_of_int (stats.dispatches + stats.am_ops))

let stream result name =
  Df_util.Conventions.lookup_stream ~who:"Machine_engine" result.outputs name

let output_values result name = List.map snd (stream result name)

let output_times result name = List.map fst (stream result name)
