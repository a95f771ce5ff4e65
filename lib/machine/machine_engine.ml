open Dfg
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report

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

type event =
  | Deliver of {
      src : int;
      dst : int;
      port : int;
      seq : int;
      value : Value.t;  (* payload as delivered (possibly corrupted) *)
      crc : int;  (* producer-side checksum of the payload as sent *)
    }
  | Ack of { dst : int; from_node : int; from_port : int; seq : int }
  | Retransmit of { src : int; dst : int; port : int; seq : int }

type recovery = Run_config.recovery = {
  checkpoint_every : int;
  retransmit_after : int;
  retransmit_backoff : int;
  max_retransmits : int;
}

let default_recovery = Run_config.default_recovery

let check_recovery r =
  if r.checkpoint_every < 0 then
    invalid_arg "Machine_engine: checkpoint-every < 0";
  if r.retransmit_after <= 0 then
    invalid_arg "Machine_engine: retransmit-after <= 0";
  if r.retransmit_backoff < 1 then
    invalid_arg "Machine_engine: retransmit-backoff < 1";
  if r.max_retransmits < 0 then
    invalid_arg "Machine_engine: max-retransmits < 0";
  r

(* Resend delay for the given 0-based attempt: exponential backoff
   capped at 16 base timeouts so a lossy channel cannot push the next
   probe arbitrarily far out. *)
let retry_delay r attempt =
  let cap = r.retransmit_after * 16 in
  let rec go d k = if k <= 0 || d >= cap then min d cap else go (d * r.retransmit_backoff) (k - 1) in
  go r.retransmit_after attempt

(* A pipelined server pool: each member accepts one operation per cycle;
   a request entering at [t] starts at the earliest slot of the least
   loaded member. *)
type pool = { mutable next_free : int array }

let pool_create n = { next_free = Array.make (max n 1) 0 }

let pool_start pool t =
  let best = ref 0 in
  Array.iteri
    (fun i f -> if f < pool.next_free.(!best) then best := i)
    pool.next_free;
  let start = max t pool.next_free.(!best) in
  pool.next_free.(!best) <- start + 1;
  start

(* Per-PE dispatch servers. *)
let pe_start pes pe t =
  let start = max t pes.(pe) in
  pes.(pe) <- start + 1;
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
  sn_events : (int * event) array;  (* exact heap layout, see Pqueue *)
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

type t = {
  arch : Arch.t;
  max_time : int;
  tracer : Obs.Tracer.t;
  fault : FP.t option;
  sanitizer : San.t;
  watchdog : int option;
  recovery : recovery option;
  integrity : bool;
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
  mutable events : event Df_util.Pqueue.t;
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
  dirty : int Queue.t;
  in_dirty : bool array;
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

(* ------------------------------------------------------------------ *)
(* snapshot / restore                                                 *)
(* ------------------------------------------------------------------ *)

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
    sn_events = Df_util.Pqueue.to_array m.events;
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
  m.recovery <> None && (not m.crash_done)
  && Option.is_some (Option.bind m.fault FP.crash)

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
  Queue.clear m.dirty;
  for id = 0 to m.arena.Arena.n - 1 do
    m.in_dirty.(id) <- true;
    Queue.add id m.dirty
  done

(* Reinstate machine state: everything a crash rollback rewinds.  The
   checkpoint clock, the crash flag, the rollback target and the
   checkpoint/recovery counters are left to the caller. *)
let restore_state m (s : _ snap) =
  if
    Array.length s.sn_pe <> Array.length m.pe
    || Array.length s.sn_cons_seq <> Array.length m.cons_seq
  then invalid_arg "Machine_engine.restore: snapshot is for a different graph";
  if
    Array.length s.sn_pes <> Array.length m.pes
    || Array.length s.sn_fus <> Array.length m.fus.next_free
    || Array.length s.sn_ams <> Array.length m.ams.next_free
  then invalid_arg "Machine_engine.restore: snapshot is for a different arch";
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
  m.events <- Df_util.Pqueue.of_array s.sn_events;
  m.live_events <-
    Array.fold_left
      (fun acc (_, ev) ->
        match ev with Retransmit _ -> acc | Deliver _ | Ack _ -> acc + 1)
      0 s.sn_events;
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

let create_cfg (cfg : Run_config.t) ~(arch : Arch.t) g ~inputs =
  let max_time = cfg.Run_config.max_time in
  let tracer = cfg.Run_config.tracer in
  let fault = cfg.Run_config.fault in
  let sanitizer = cfg.Run_config.sanitizer in
  let watchdog = cfg.Run_config.watchdog in
  let recovery = cfg.Run_config.recovery in
  let integrity = cfg.Run_config.integrity in
  (match Graph.validate g with
  | Ok () -> ()
  | Error es ->
    invalid_arg ("Machine_engine.run: invalid graph:\n" ^ String.concat "\n" es));
  (match watchdog with
  | Some k when k <= 0 -> invalid_arg "Machine_engine.run: watchdog window <= 0"
  | _ -> ());
  let recovery = Option.map check_recovery recovery in
  let a = Arena.build g in
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
      fault;
      sanitizer;
      watchdog;
      recovery;
      integrity;
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
      events = Df_util.Pqueue.create ();
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
      dirty = Queue.create ();
      in_dirty = Array.make n false;
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
          Df_util.Pqueue.push m.events r.retransmit_after
            (Retransmit
               { src; dst = a.Arena.port_cell.(p); port = a.Arena.port_sub.(p);
                 seq = 0 })
        end
      end
    done;
    if r.checkpoint_every > 0 then m.next_checkpoint <- r.checkpoint_every;
    (* the implicit t=0 checkpoint: a crash before the first periodic
       checkpoint rolls back to program load *)
    if rollback_pending m then m.rollback <- Some (state m));
  mark_all m;
  m

(* ------------------------------------------------------------------ *)
(* the event loop                                                     *)
(* ------------------------------------------------------------------ *)

let emit_fault m kind ~src ~dst ~extra =
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fault_injected
         { time = m.now; track = m.pe.(dst); kind; src; dst; extra })

let emit_violation m (v : Fault.Violation.t) =
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Violation
         { time = v.Fault.Violation.v_time;
           track = m.pe.(v.Fault.Violation.v_node);
           node = v.Fault.Violation.v_node;
           label = v.Fault.Violation.v_label;
           kind = Fault.Violation.kind_name v.Fault.Violation.v_kind;
           detail = v.Fault.Violation.v_detail })

let mark m id =
  if not m.in_dirty.(id) then begin
    m.in_dirty.(id) <- true;
    Queue.add id m.dirty
  end

let schedule m t ev =
  (match ev with
  | Retransmit _ -> ()
  | Deliver _ | Ack _ -> m.live_events <- m.live_events + 1);
  Df_util.Pqueue.push m.events t ev

(* Deliver one result packet copy to [ep], subject to network faults.
   [seq] identifies the packet on its channel when recovery is on.  The
   checksum travels with the packet as computed by the producer; a
   corruption fault flips a payload bit *after* that, so the mismatch is
   observable at the consumer iff integrity checking is on. *)
let deliver_packet m ~src ~dst ~port ~seq ~value ~base =
  let crc = Integrity.checksum_value value in
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
          if Obs.Tracer.enabled m.tracer then
            Obs.Tracer.emit m.tracer
              (Obs.Event.Corrupt_injected
                 { time = base; track = m.pe.(dst); src; dst; port;
                   was = Value.to_string value;
                   became = Value.to_string corrupted });
          corrupted)
    in
    schedule m deliver_at (Deliver { src; dst; port; seq; value; crc });
    if Obs.Tracer.enabled m.tracer then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Deliver
           { time = deliver_at; track = m.pe.(dst); src; dst; port;
             value = Value.to_string value })
  end;
  deliver_at

(* Fire a cell: PE dispatch, optional FU execution, then packet
   delivery through RN or AM depending on the policy and whether the
   producer is a block boundary. *)
let send m src slot value ~ready_at =
  let a = m.arena in
  let s = a.Arena.slot_base.(src) + slot in
  let db = a.Arena.dest_base.(s) and de = a.Arena.dest_base.(s + 1) in
  for d = db to de - 1 do
    let gp = a.Arena.dest_port.(d) in
    let ep_node = a.Arena.port_cell.(gp) in
    let ep_port = a.Arena.port_sub.(gp) in
    m.result_packets <- m.result_packets + 1;
    let am_latency () =
      m.arch.Arch.am_latency
      + (match m.fault with
        | None -> 0
        | Some f -> FP.am_extra f ~node:src ~time:ready_at)
    in
    let base =
      match m.arch.Arch.array_policy with
      | Arch.Stored when m.boundary.(src) -> (
        match a.Arena.ops.(ep_node) with
        | Opcode.Output _ ->
          (* final results are stored once *)
          m.am_ops <- m.am_ops + 1;
          pool_start m.ams ready_at + am_latency ()
        | _ ->
          (* write by the producer, read by the consumer *)
          m.am_ops <- m.am_ops + 2;
          let write_done = pool_start m.ams ready_at + am_latency () in
          pool_start m.ams write_done + am_latency ())
      | _ -> ready_at + m.arch.Arch.rn_latency
    in
    let seq =
      match m.recovery with
      | None -> 0
      | Some r ->
        let seq = m.sent.(gp) in
        m.sent.(gp) <- seq + 1;
        m.out_attempts.(gp) <- 0;
        m.out_value.(gp) <- value;
        schedule m
          (ready_at + r.retransmit_after)
          (Retransmit { src; dst = ep_node; port = ep_port; seq });
        seq
    in
    let deliver_at =
      deliver_packet m ~src ~dst:ep_node ~port:ep_port ~seq ~value ~base
    in
    (* a misbehaving routing network may deliver the same result
       packet twice — without recovery, the breach the sanitizer
       exists to catch; with recovery, deduplicated by sequence *)
    match m.fault with
    | Some f
      when FP.duplicate f ~time:ready_at ~src ~dst:ep_node ~port:ep_port ->
      m.result_packets <- m.result_packets + 1;
      emit_fault m "dup" ~src ~dst:ep_node ~extra:0;
      schedule m (deliver_at + 1)
        (Deliver
           { src; dst = ep_node; port = ep_port; seq; value;
             crc = Integrity.checksum_value value })
    | _ -> ()
  done;
  San.on_send m.sanitizer ~time:ready_at ~node:src ~count:(de - db);
  m.st.Run_state.pending_acks.(src) <-
    m.st.Run_state.pending_acks.(src) + (de - db)

(* Send (or resend) an acknowledge for the packet [seq] consumed on
   [from.port], subject to ack faults. *)
let send_ack m ~from_node ~from_port ~seq ~dst ~acked_at =
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
    schedule m at (Ack { dst; from_node; from_port; seq });
    if Obs.Tracer.enabled m.tracer then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Ack
           { time = at; track = m.pe.(dst); src = from_node; dst })
  end

(* Empty global port [p] and acknowledge its producer. *)
let consume m p ~acked_at =
  let a = m.arena in
  if a.Arena.port_kind.(p) <> Arena.kind_const then begin
    let id = a.Arena.port_cell.(p) and port = a.Arena.port_sub.(p) in
    (match San.on_consume m.sanitizer ~time:m.now ~node:id ~port with
    | Some v -> emit_violation m v
    | None -> ());
    m.st.Run_state.present.(p) <- false;
    let src = a.Arena.port_producer.(p) in
    if src >= 0 then begin
      let seq = m.cons_seq.(p) in
      m.cons_seq.(p) <- seq + 1;
      send_ack m ~from_node:id ~from_port:port ~seq ~dst:src ~acked_at
    end
  end

let dispatch m id =
  let pe = m.pe.(id) in
  m.dispatches <- m.dispatches + 1;
  m.pe_dispatches.(pe) <- m.pe_dispatches.(pe) + 1;
  let stall =
    match m.fault with
    | None -> 0
    | Some f -> FP.pe_stall f ~pe ~time:m.now
  in
  if stall > 0 then emit_fault m "pe-stall" ~src:id ~dst:id ~extra:stall;
  let start = pe_start m.pes pe (m.now + stall) in
  let done_at =
    if m.cell_uses_fu.(id) then begin
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
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fire
         { time = start; dur = max 1 (done_at - start); track = pe; node = id;
           label = m.arena.Arena.labels.(id);
           op = Opcode.name m.arena.Arena.ops.(id) });
  done_at

(* ---- firing rules, one helper per opcode family; [b] is the cell's
   first global port ---- *)

let finish_compute m id b value =
  let done_at = dispatch m id in
  for p = b to m.arena.Arena.port_base.(id + 1) - 1 do
    consume m p ~acked_at:done_at
  done;
  send m id 0 value ~ready_at:done_at;
  true

let fire_gate m id b ~tgate =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.(b) && present.(b + 1) then begin
    let ctl = Value.to_bool v.(b) in
    let data = v.(b + 1) in
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
  if present.(b) && present.(b + 1) then begin
    let ctl = Value.to_bool v.(b) in
    let data = v.(b + 1) in
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    consume m (b + 1) ~acked_at:done_at;
    send m id (if ctl then 0 else 1) data ~ready_at:done_at;
    true
  end
  else false

let fire_merge m id b =
  let present = m.st.Run_state.present and v = m.st.Run_state.value in
  if present.(b) then begin
    let sel = if Value.to_bool v.(b) then 1 else 2 in
    if present.(b + sel) then begin
      let data = v.(b + sel) in
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
  if present.(b) && present.(b + 3) then begin
    let sel = if Value.to_bool v.(b) then 1 else 2 in
    if present.(b + sel) then begin
      let data = v.(b + sel) in
      let d = Value.to_bool v.(b + 3) in
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
  let buf = st.Run_state.fifo_buf.(id) in
  let progressed = ref false in
  if acks_clear && st.Run_state.fifo_len.(id) > 0 then begin
    let h = st.Run_state.fifo_head.(id) in
    let v = buf.(h) in
    st.Run_state.fifo_head.(id) <-
      (if h + 1 = Array.length buf then 0 else h + 1);
    st.Run_state.fifo_len.(id) <- st.Run_state.fifo_len.(id) - 1;
    let done_at = dispatch m id in
    send m id 0 v ~ready_at:done_at;
    progressed := true
  end;
  if st.Run_state.present.(b) && st.Run_state.fifo_len.(id) < k then begin
    let tail = st.Run_state.fifo_head.(id) + st.Run_state.fifo_len.(id) in
    let tail =
      if tail >= Array.length buf then tail - Array.length buf else tail
    in
    buf.(tail) <- st.Run_state.value.(b);
    st.Run_state.fifo_len.(id) <- st.Run_state.fifo_len.(id) + 1;
    consume m b ~acked_at:m.now;
    progressed := true
  end;
  !progressed

(* Emit the next packet of a generator ([Input], [Iota], [Bool_source]). *)
let fire_source m id v =
  m.st.Run_state.cursor.(id) <- m.st.Run_state.cursor.(id) + 1;
  let done_at = dispatch m id in
  send m id 0 v ~ready_at:done_at;
  true

let fire_output m id b =
  let st = m.st in
  if st.Run_state.present.(b) then begin
    st.Run_state.collected.(id) <-
      (m.now, st.Run_state.value.(b)) :: st.Run_state.collected.(id);
    (match San.on_output m.sanitizer ~time:m.now ~node:id with
    | Some viol -> emit_violation m viol
    | None -> ());
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    true
  end
  else false

let fire_sink m id b =
  if m.st.Run_state.present.(b) then begin
    let done_at = dispatch m id in
    consume m b ~acked_at:done_at;
    true
  end
  else false

let try_fire m id =
  let open Opcode in
  if m.pe_dead.(m.pe.(id)) then false
  else
    let st = m.st in
    let present = st.Run_state.present and v = st.Run_state.value in
    let acks_clear = st.Run_state.pending_acks.(id) = 0 in
    let b = m.arena.Arena.port_base.(id) in
    match m.arena.Arena.ops.(id) with
    | Id -> acks_clear && present.(b) && finish_compute m id b v.(b)
    | Arith op ->
      acks_clear && present.(b) && present.(b + 1)
      && finish_compute m id b (Opcode.apply_arith op v.(b) v.(b + 1))
    | Compare op ->
      acks_clear && present.(b) && present.(b + 1)
      && finish_compute m id b (Opcode.apply_cmp op v.(b) v.(b + 1))
    | Logic op ->
      acks_clear && present.(b) && present.(b + 1)
      && finish_compute m id b (Opcode.apply_logic op v.(b) v.(b + 1))
    | Math mf ->
      acks_clear && present.(b)
      && finish_compute m id b (Opcode.apply_math mf v.(b))
    | Neg ->
      acks_clear && present.(b)
      && finish_compute m id b
           (match v.(b) with
           | Value.Int i -> Value.Int (-i)
           | Value.Real f -> Value.Real (-.f)
           | Value.Bool _ -> invalid_arg "NEG of boolean")
    | Not ->
      acks_clear && present.(b)
      && finish_compute m id b (Value.Bool (not (Value.to_bool v.(b))))
    | Tgate -> acks_clear && fire_gate m id b ~tgate:true
    | Fgate -> acks_clear && fire_gate m id b ~tgate:false
    | Switch -> acks_clear && fire_switch m id b
    | Merge -> acks_clear && fire_merge m id b
    | Merge_switch -> acks_clear && fire_merge_switch m id b
    | Fifo k -> fire_fifo m id b k ~acks_clear
    | Bool_source seq -> (
      acks_clear
      &&
      match Ctlseq.nth seq st.Run_state.cursor.(id) with
      | None -> false
      | Some bit -> fire_source m id (Value.Bool bit))
    | Iota { lo; hi; rep } ->
      acks_clear
      && fire_source m id
           (Value.Int (lo + (st.Run_state.cursor.(id) / rep mod (hi - lo + 1))))
    | Input _ ->
      let stream = st.Run_state.stream.(id) and i = st.Run_state.cursor.(id) in
      acks_clear && i < Array.length stream && fire_source m id stream.(i)
    | Output _ -> fire_output m id b
    | Sink -> fire_sink m id b

(* The recovery protocol's view of global port [p]: is the packet
   [seq] still unacknowledged, and is it resident (accepted but not yet
   consumed) at its consumer? *)
let outstanding m p ~seq = m.out_attempts.(p) >= 0 && m.sent.(p) - 1 = seq

let resident m p ~seq = m.recv_seq.(p) > seq && m.cons_seq.(p) <= seq

let apply_event m = function
  | Deliver { src; dst; port; seq; value; crc } -> (
    let p = m.arena.Arena.port_base.(dst) + port in
    if m.integrity && not (Integrity.verify_value value crc) then begin
      (* checksum mismatch: the payload was corrupted in flight.  Discard
         the packet — from here on it behaves exactly like a drop, so
         without recovery the consumer starves (and the wedge surfaces
         through watchdog/conservation), while with recovery the
         producer's retransmission timer resends a clean copy. *)
      m.corrupt_detected <- m.corrupt_detected + 1;
      if m.recovery <> None && seq >= m.recv_seq.(p) then
        m.corrupt_pend.(p) <- seq;
      if Obs.Tracer.enabled m.tracer then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Corrupt_detected
             { time = m.now; track = m.pe.(dst); src; dst; port; seq })
    end
    else
      match m.recovery with
      | Some _ when seq < m.recv_seq.(p) ->
        (* stale duplicate (retransmission of a packet already accepted,
           or a network dup).  If the original was already consumed, its
           acknowledge may have been the casualty — acknowledge again; if
           it is still resident, stay silent: the pending acknowledge
           will go out at consume time. *)
        if seq < m.cons_seq.(p) then
          send_ack m ~from_node:dst ~from_port:port ~seq ~dst:src
            ~acked_at:m.now
      | _ ->
        (match San.on_deliver m.sanitizer ~time:m.now ~src ~dst ~port with
        | Some v -> emit_violation m v (* drop: engine state is untrustworthy *)
        | None ->
          if m.recovery <> None then begin
            m.recv_seq.(p) <- seq + 1;
            if m.corrupt_pend.(p) = seq then begin
              m.corrupt_pend.(p) <- -1;
              m.corrupt_healed <- m.corrupt_healed + 1;
              if Obs.Tracer.enabled m.tracer then
                Obs.Tracer.emit m.tracer
                  (Obs.Event.Corrupt_healed
                     { time = m.now; track = m.pe.(dst); src; dst; port; seq })
            end
          end;
          if m.st.Run_state.present.(p) then begin
            if not (San.enabled m.sanitizer) then
              invalid_arg
                (Printf.sprintf "machine: arc capacity violated at %s#%d.%d"
                   m.arena.Arena.labels.(dst) dst port)
          end
          else begin
            m.st.Run_state.present.(p) <- true;
            m.st.Run_state.value.(p) <- value
          end);
        mark m dst)
  | Ack { dst; from_node; from_port; seq } -> (
    let acked () =
      match San.on_ack m.sanitizer ~time:m.now ~dst with
      | Some v -> emit_violation m v
      | None ->
        m.st.Run_state.pending_acks.(dst) <-
          m.st.Run_state.pending_acks.(dst) - 1
    in
    match m.recovery with
    | None ->
      acked ();
      mark m dst
    | Some _ ->
      (* acknowledges are idempotent under recovery: only the first one
         for a given packet frees the producer *)
      let p = m.arena.Arena.port_base.(from_node) + from_port in
      if outstanding m p ~seq then begin
        m.out_attempts.(p) <- -1;
        acked ();
        mark m dst
      end)
  | Retransmit { src; dst; port; seq } -> (
    match m.recovery with
    | None -> ()
    | Some r ->
      let p = m.arena.Arena.port_base.(dst) + port in
      (* nothing to do once the packet was acknowledged *)
      if outstanding m p ~seq then begin
        let attempts = m.out_attempts.(p) in
        if resident m p ~seq then
          (* The packet is resident, unconsumed, at the consumer: a
             resend could only be deduplicated, and the acknowledge is
             not due until the consumer fires.  Hold the timer without
             charging an attempt — the retry budget is for packets and
             acknowledges actually missing, not for a consumer that is
             slow to drain its store.  (Hardware would learn this from
             a receipt status piggybacked on the routing network; the
             simulator reads the consumer's store directly.) *)
          schedule m
            (m.now + retry_delay r attempts)
            (Retransmit { src; dst; port; seq })
        else if attempts < r.max_retransmits then begin
          let attempts = attempts + 1 in
          m.out_attempts.(p) <- attempts;
          m.retransmits <- m.retransmits + 1;
          m.result_packets <- m.result_packets + 1;
          if Obs.Tracer.enabled m.tracer then
            Obs.Tracer.emit m.tracer
              (Obs.Event.Retransmit
                 { time = m.now; track = m.pe.(src); src; dst; port;
                   attempt = attempts });
          ignore
            (deliver_packet m ~src ~dst ~port ~seq ~value:m.out_value.(p)
               ~base:(m.now + m.arch.Arch.rn_latency));
          schedule m
            (m.now + retry_delay r attempts)
            (Retransmit { src; dst; port; seq });
          (* an active resend is protocol liveness, not silence: the
             no-progress watchdog must not fire while the backoff chain
             is still probing.  A truly wedged channel still terminates:
             once retries are exhausted nothing reschedules and the
             queue drains to a quiescent (and visibly wrong) stop. *)
          m.last_progress <- m.now
        end
        (* else: retries exhausted — the channel is declared lost and the
           wedge surfaces as a stall / conservation violation *)
      end)

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
  Array.iteri
    (fun p attempts ->
      if attempts >= 0 && not (resident m p ~seq:(m.sent.(p) - 1)) then
        futile := false)
    m.out_attempts;
  !futile

(* Drop timer events whose packet has been acknowledged: they carry no
   work, and letting them advance the clock would make a clean drain
   look like a watchdog stall. *)
let rec skip_stale_retransmits m =
  match Df_util.Pqueue.peek m.events with
  | Some (_, Retransmit { dst; port; seq; _ })
    when not (outstanding m (m.arena.Arena.port_base.(dst) + port) ~seq) ->
    Df_util.Pqueue.drop_min m.events;
    skip_stale_retransmits m
  | _ -> ()

let take_checkpoint m =
  if rollback_pending m then m.rollback <- Some (state m);
  m.checkpoints <- m.checkpoints + 1;
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Checkpoint
         { time = m.now; track = 0; seq = m.checkpoints;
           in_flight = Df_util.Pqueue.length m.events })

let do_crash m pe crash_at =
  m.crash_done <- true;
  if pe < Array.length m.pe_dead then begin
    if Obs.Tracer.enabled m.tracer then
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
      if Obs.Tracer.enabled m.tracer then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Recovery
             { time = crash_at; track = pe; pe; restored_to = snap.sn_time;
               remapped = !remapped })
  end

let advance m ~until =
  let continue_ = ref (not m.finished) in
  while !continue_ do
    let fired_any = ref false in
    let rec drain () =
      match Queue.take_opt m.dirty with
      | None -> ()
      | Some id ->
        m.in_dirty.(id) <- false;
        if try_fire m id then begin
          fired_any := true;
          mark m id
        end;
        drain ()
    in
    drain ();
    if !fired_any then m.last_progress <- m.now;
    if San.tripped m.sanitizer then begin
      m.finished <- true;
      continue_ := false
    end
    else begin
      skip_stale_retransmits m;
      let crash_pending =
        if m.crash_done then None
        else Option.bind m.fault FP.crash
      in
      match Df_util.Pqueue.peek_priority m.events with
      | None -> (
        (* quiescent — unless the crash is still due, in which case it
           strikes a silent machine *)
        match crash_pending with
        | Some (pe, at) when at <= m.max_time -> do_crash m pe (max at m.now)
        | _ ->
          m.quiescent <- true;
          m.finished <- true;
          continue_ := false)
      | Some _ when m.live_events = 0 && only_futile_outstanding m -> (
        (* only futile retransmission timers left: quiescent *)
        match crash_pending with
        | Some (pe, at) when at <= m.max_time -> do_crash m pe (max at m.now)
        | _ ->
          m.quiescent <- true;
          m.finished <- true;
          continue_ := false)
      | Some t -> (
        match crash_pending with
        | Some (pe, at) when at <= t -> do_crash m pe at
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
            let rec apply_all () =
              match Df_util.Pqueue.peek_priority m.events with
              | Some t' when t' = t -> (
                match Df_util.Pqueue.pop m.events with
                | Some (_, ev) ->
                  (match ev with
                  | Retransmit _ -> ()
                  | Deliver _ | Ack _ ->
                    m.live_events <- m.live_events - 1);
                  apply_event m ev;
                  apply_all ()
                | None -> ())
              | _ -> ()
            in
            apply_all ()
          end)
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

let run_cfg cfg ~(arch : Arch.t) g ~inputs =
  let m = create_cfg cfg ~arch g ~inputs in
  advance m ~until:max_int;
  result m

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
