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

(* Recovery protocol state: one entry per result packet sent but not yet
   acknowledged.  The static dataflow discipline guarantees at most one
   packet is ever outstanding per (consumer, port) channel, so the
   channel sequence number both orders packets and identifies them. *)
type out_entry = {
  o_dst : int;
  o_port : int;
  o_seq : int;
  o_value : Value.t;
  mutable o_attempts : int;
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

type cell = {
  node : Graph.node;
  operands : Value.t option array;
  mutable pending_acks : int;
  mutable queue : Value.t list;
  mutable queue_len : int;
  mutable cursor : int;
  stream : Value.t array;
  mutable collected : (int * Value.t) list;
  producer : int array;
  mutable pe : int;
  boundary : bool;  (* produces a completed array value (feeds an Output) *)
  (* recovery-only protocol state (inert without a recovery policy) *)
  recv_seq : int array;  (* per port: packets accepted so far *)
  cons_seq : int array;  (* per port: packets consumed and acknowledged *)
  mutable outstanding : out_entry list;
  sent : (int * int, int) Hashtbl.t;  (* (dst, port) -> packets sent *)
  (* (port, seq) of packets discarded as corrupt and not yet replaced by
     a clean copy — consulted when a retransmission finally lands so the
     heal is visible in the trace and counters *)
  mutable corrupt_pend : (int * int) list;
}

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

type cell_snapshot = {
  cs_operands : Value.t option array;
  cs_pending_acks : int;
  cs_queue : Value.t list;
  cs_cursor : int;
  cs_collected : (int * Value.t) list;
  cs_pe : int;
  cs_recv_seq : int array;
  cs_cons_seq : int array;
  cs_outstanding : out_entry list;
  cs_sent : ((int * int) * int) list;  (* sorted by key *)
  cs_corrupt_pend : (int * int) list;
}

type snapshot = {
  sn_time : int;
  sn_last_progress : int;
  sn_cells : cell_snapshot array;
  sn_events : (int * event) array;  (* exact heap layout, see Pqueue *)
  sn_pes : int array;
  sn_fus : int array;
  sn_ams : int array;
  sn_pe_dead : bool array;
  sn_stats : stats;
  sn_sanitizer : San.snapshot option;
}

type t = {
  graph : Graph.t;
  arch : Arch.t;
  max_time : int;
  tracer : Obs.Tracer.t;
  fault : FP.t option;
  sanitizer : San.t;
  watchdog : int option;
  recovery : recovery option;
  integrity : bool;
  cells : cell array;
  arena : Arena.t;
  (* per-cell flat lookups precomputed from the arena: the dispatch path
     branches on a bool instead of re-matching the opcode every firing *)
  cell_uses_fu : bool array;
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
  mutable last_snapshot : snapshot option;
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

let copy_entry e =
  {
    o_dst = e.o_dst;
    o_port = e.o_port;
    o_seq = e.o_seq;
    o_value = e.o_value;
    o_attempts = e.o_attempts;
  }

let snapshot_cell c =
  {
    cs_operands = Array.copy c.operands;
    cs_pending_acks = c.pending_acks;
    cs_queue = c.queue;
    cs_cursor = c.cursor;
    cs_collected = c.collected;
    cs_pe = c.pe;
    cs_recv_seq = Array.copy c.recv_seq;
    cs_cons_seq = Array.copy c.cons_seq;
    cs_outstanding = List.map copy_entry c.outstanding;
    cs_sent =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.sent []
      |> List.sort compare;
    cs_corrupt_pend = c.corrupt_pend;
  }

let snapshot m =
  {
    sn_time = m.now;
    sn_last_progress = m.last_progress;
    sn_cells = Array.map snapshot_cell m.cells;
    sn_events = Df_util.Pqueue.to_array m.events;
    sn_pes = Array.copy m.pes;
    sn_fus = Array.copy m.fus.next_free;
    sn_ams = Array.copy m.ams.next_free;
    sn_pe_dead = Array.copy m.pe_dead;
    sn_stats = stats_of m;
    sn_sanitizer = San.snapshot m.sanitizer;
  }

let mark_all m =
  Queue.clear m.dirty;
  Array.fill m.in_dirty 0 (Array.length m.in_dirty) false;
  for id = 0 to Array.length m.cells - 1 do
    m.in_dirty.(id) <- true;
    Queue.add id m.dirty
  done

let restore m snap =
  if Array.length snap.sn_cells <> Array.length m.cells then
    invalid_arg "Machine_engine.restore: snapshot is for a different graph";
  if
    Array.length snap.sn_pes <> Array.length m.pes
    || Array.length snap.sn_fus <> Array.length m.fus.next_free
    || Array.length snap.sn_ams <> Array.length m.ams.next_free
  then invalid_arg "Machine_engine.restore: snapshot is for a different arch";
  m.now <- snap.sn_time;
  m.last_progress <- snap.sn_last_progress;
  Array.iteri
    (fun id cs ->
      let c = m.cells.(id) in
      Array.blit cs.cs_operands 0 c.operands 0 (Array.length c.operands);
      c.pending_acks <- cs.cs_pending_acks;
      c.queue <- cs.cs_queue;
      c.queue_len <- List.length cs.cs_queue;
      c.cursor <- cs.cs_cursor;
      c.collected <- cs.cs_collected;
      c.pe <- cs.cs_pe;
      Array.blit cs.cs_recv_seq 0 c.recv_seq 0 (Array.length c.recv_seq);
      Array.blit cs.cs_cons_seq 0 c.cons_seq 0 (Array.length c.cons_seq);
      c.outstanding <- List.map copy_entry cs.cs_outstanding;
      Hashtbl.reset c.sent;
      List.iter (fun (k, v) -> Hashtbl.replace c.sent k v) cs.cs_sent;
      c.corrupt_pend <- cs.cs_corrupt_pend)
    snap.sn_cells;
  m.events <- Df_util.Pqueue.of_array snap.sn_events;
  m.live_events <-
    Array.fold_left
      (fun acc (_, ev) ->
        match ev with Retransmit _ -> acc | Deliver _ | Ack _ -> acc + 1)
      0 snap.sn_events;
  Array.blit snap.sn_pes 0 m.pes 0 (Array.length m.pes);
  m.fus.next_free <- Array.copy snap.sn_fus;
  m.ams.next_free <- Array.copy snap.sn_ams;
  Array.blit snap.sn_pe_dead 0 m.pe_dead 0 (Array.length m.pe_dead);
  m.dispatches <- snap.sn_stats.dispatches;
  m.fu_ops <- snap.sn_stats.fu_ops;
  m.am_ops <- snap.sn_stats.am_ops;
  m.result_packets <- snap.sn_stats.result_packets;
  m.ack_packets <- snap.sn_stats.ack_packets;
  m.retransmits <- snap.sn_stats.retransmits;
  m.corruptions <- snap.sn_stats.corruptions;
  m.corrupt_detected <- snap.sn_stats.corrupt_detected;
  m.corrupt_healed <- snap.sn_stats.corrupt_healed;
  Array.blit snap.sn_stats.pe_dispatches 0 m.pe_dispatches 0
    (Array.length m.pe_dispatches);
  San.restore m.sanitizer snap.sn_sanitizer;
  m.quiescent <- false;
  m.watchdog_tripped <- false;
  m.finished <- false;
  (match m.recovery with
  | Some r when r.checkpoint_every > 0 ->
    m.next_checkpoint <- m.now + r.checkpoint_every
  | _ -> ());
  mark_all m

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
  let arena = Arena.build g in
  let n = Graph.node_count g in
  let producers = Graph.producers g in
  (* block boundaries: producers feeding an Output cell *)
  let boundary = Array.make n false in
  Graph.iter_nodes g (fun node ->
      match node.Graph.op with
      | Opcode.Output _ -> (
        match producers.(node.Graph.id).(0) with
        | [| (src, _) |] -> boundary.(src) <- true
        | _ -> ())
      | _ -> ());
  let cells =
    Array.init n (fun id ->
        let node = Graph.node g id in
        let arity = Array.length node.Graph.inputs in
        let operands = Array.make arity None in
        let producer = Array.make arity (-1) in
        Array.iteri
          (fun port binding ->
            (match producers.(id).(port) with
            | [| (src, _) |] -> producer.(port) <- src
            | _ -> ());
            match binding with
            | Graph.In_arc_init v -> operands.(port) <- Some v
            | Graph.In_arc | Graph.In_const _ -> ())
          node.Graph.inputs;
        let stream =
          match node.Graph.op with
          | Opcode.Input name ->
            Array.of_list
              (Df_util.Conventions.lookup_feed ~who:"Machine_engine.run"
                 inputs name)
          | _ -> [||]
        in
        {
          node;
          operands;
          pending_acks = 0;
          queue = [];
          queue_len = 0;
          cursor = 0;
          stream;
          collected = [];
          producer;
          pe = id mod max 1 arch.Arch.n_pe;
          boundary = boundary.(id);
          recv_seq = Array.make arity 0;
          cons_seq = Array.make arity 0;
          outstanding = [];
          sent = Hashtbl.create 4;
          corrupt_pend = [];
        })
  in
  Array.iter
    (fun cell ->
      Array.iteri
        (fun port binding ->
          match binding with
          | Graph.In_arc_init _ ->
            let src = cell.producer.(port) in
            if src >= 0 then
              cells.(src).pending_acks <- cells.(src).pending_acks + 1
          | Graph.In_arc | Graph.In_const _ -> ())
        cell.node.Graph.inputs)
    cells;
  let events : event Df_util.Pqueue.t = Df_util.Pqueue.create () in
  let m =
    {
      graph = g;
      arch;
      max_time;
      tracer;
      fault;
      sanitizer;
      watchdog;
      recovery;
      integrity;
      cells;
      arena;
      cell_uses_fu =
        Array.init n (fun id -> uses_fu (Graph.node g id).Graph.op);
      events;
      pes = Array.make (max 1 arch.Arch.n_pe) 0;
      fus = pool_create arch.Arch.n_fu;
      ams = pool_create arch.Arch.n_am;
      pe_dead = Array.make (max 1 arch.Arch.n_pe) false;
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
      pe_dispatches = Array.make (max 1 arch.Arch.n_pe) 0;
      now = 0;
      last_progress = 0;
      live_events = 0;
      dirty = Queue.create ();
      in_dirty = Array.make n false;
      next_checkpoint = max_int;
      last_snapshot = None;
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
    Array.iter
      (fun cell ->
        Array.iteri
          (fun port binding ->
            match binding with
            | Graph.In_arc_init v ->
              let src = cell.producer.(port) in
              cell.recv_seq.(port) <- 1;
              if src >= 0 then begin
                let p = cells.(src) in
                p.outstanding <-
                  {
                    o_dst = cell.node.Graph.id;
                    o_port = port;
                    o_seq = 0;
                    o_value = v;
                    o_attempts = 0;
                  }
                  :: p.outstanding;
                Hashtbl.replace p.sent (cell.node.Graph.id, port) 1;
                Df_util.Pqueue.push events r.retransmit_after
                  (Retransmit
                     { src; dst = cell.node.Graph.id; port; seq = 0 })
              end
            | Graph.In_arc | Graph.In_const _ -> ())
          cell.node.Graph.inputs)
      cells;
    if r.checkpoint_every > 0 then m.next_checkpoint <- r.checkpoint_every;
    (* the implicit t=0 checkpoint: a crash before the first periodic
       checkpoint rolls back to program load *)
    m.last_snapshot <- Some (snapshot m));
  mark_all m;
  m

(* ------------------------------------------------------------------ *)
(* the event loop                                                     *)
(* ------------------------------------------------------------------ *)

let emit_fault m kind ~src ~dst ~extra =
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fault_injected
         { time = m.now; track = m.cells.(dst).pe; kind; src; dst; extra })

let emit_violation m (v : Fault.Violation.t) =
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Violation
         { time = v.Fault.Violation.v_time;
           track = m.cells.(v.Fault.Violation.v_node).pe;
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
                 { time = base; track = m.cells.(dst).pe; src; dst; port;
                   was = Value.to_string value;
                   became = Value.to_string corrupted });
          corrupted)
    in
    schedule m deliver_at (Deliver { src; dst; port; seq; value; crc });
    if Obs.Tracer.enabled m.tracer then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Deliver
           { time = deliver_at; track = m.cells.(dst).pe; src; dst; port;
             value = Value.to_string value })
  end;
  deliver_at

(* Fire a cell: PE dispatch, optional FU execution, then packet
   delivery through RN or AM depending on the policy and whether the
   producer is a block boundary. *)
let send m cell slot value ~ready_at =
  let src = cell.node.Graph.id in
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
      | Arch.Stored when cell.boundary -> (
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
        let key = (ep_node, ep_port) in
        let seq = Option.value ~default:0 (Hashtbl.find_opt cell.sent key) in
        Hashtbl.replace cell.sent key (seq + 1);
        cell.outstanding <-
          {
            o_dst = ep_node;
            o_port = ep_port;
            o_seq = seq;
            o_value = value;
            o_attempts = 0;
          }
          :: cell.outstanding;
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
  cell.pending_acks <- cell.pending_acks + (de - db)

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
           { time = at; track = m.cells.(dst).pe; src = from_node; dst })
  end

let consume m cell port ~acked_at =
  match cell.node.Graph.inputs.(port) with
  | Graph.In_const _ -> ()
  | Graph.In_arc | Graph.In_arc_init _ ->
    (match
       San.on_consume m.sanitizer ~time:m.now ~node:cell.node.Graph.id ~port
     with
    | Some v -> emit_violation m v
    | None -> ());
    cell.operands.(port) <- None;
    let src = cell.producer.(port) in
    if src >= 0 then begin
      let seq = cell.cons_seq.(port) in
      cell.cons_seq.(port) <- seq + 1;
      send_ack m ~from_node:cell.node.Graph.id ~from_port:port ~seq ~dst:src
        ~acked_at
    end

let ready cell port =
  match cell.node.Graph.inputs.(port) with
  | Graph.In_const v -> Some v
  | Graph.In_arc | Graph.In_arc_init _ -> cell.operands.(port)

let dispatch m cell =
  m.dispatches <- m.dispatches + 1;
  m.pe_dispatches.(cell.pe) <- m.pe_dispatches.(cell.pe) + 1;
  let stall =
    match m.fault with
    | None -> 0
    | Some f -> FP.pe_stall f ~pe:cell.pe ~time:m.now
  in
  if stall > 0 then
    emit_fault m "pe-stall" ~src:cell.node.Graph.id ~dst:cell.node.Graph.id
      ~extra:stall;
  let start = pe_start m.pes cell.pe (m.now + stall) in
  let done_at =
    if m.cell_uses_fu.(cell.node.Graph.id) then begin
      m.fu_ops <- m.fu_ops + 1;
      let fu_latency =
        m.arch.Arch.fu_latency
        + (match m.fault with
          | None -> 0
          | Some f -> FP.fu_extra f ~node:cell.node.Graph.id ~time:start)
      in
      pool_start m.fus (start + 1) + fu_latency
    end
    else start + 1
  in
  if Obs.Tracer.enabled m.tracer then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fire
         { time = start; dur = max 1 (done_at - start); track = cell.pe;
           node = cell.node.Graph.id; label = cell.node.Graph.label;
           op = Opcode.name cell.node.Graph.op });
  done_at

(* ---- firing rules, one helper per opcode family ---- *)

let all_ready cell =
  let arity = Array.length cell.node.Graph.inputs in
  let rec go p = p >= arity || (ready cell p <> None && go (p + 1)) in
  go 0

let opnd cell port = Option.get (ready cell port)

let finish_compute m cell value =
  let done_at = dispatch m cell in
  Array.iteri
    (fun port _ -> consume m cell port ~acked_at:done_at)
    cell.node.Graph.inputs;
  send m cell 0 value ~ready_at:done_at;
  true

let fire_gate m cell ~tgate =
  if cell.pending_acks = 0 && all_ready cell then begin
    let ctl = Value.to_bool (opnd cell 0) in
    let data = opnd cell 1 in
    let pass = if tgate then ctl else not ctl in
    let done_at = dispatch m cell in
    consume m cell 0 ~acked_at:done_at;
    consume m cell 1 ~acked_at:done_at;
    if pass then send m cell 0 data ~ready_at:done_at;
    true
  end
  else false

let fire_switch m cell =
  if cell.pending_acks = 0 && all_ready cell then begin
    let ctl = Value.to_bool (opnd cell 0) in
    let data = opnd cell 1 in
    let done_at = dispatch m cell in
    consume m cell 0 ~acked_at:done_at;
    consume m cell 1 ~acked_at:done_at;
    send m cell (if ctl then 0 else 1) data ~ready_at:done_at;
    true
  end
  else false

let fire_merge m cell =
  if cell.pending_acks = 0 then begin
    match ready cell 0 with
    | None -> false
    | Some ctl -> (
      let sel = if Value.to_bool ctl then 1 else 2 in
      match ready cell sel with
      | None -> false
      | Some data ->
        let done_at = dispatch m cell in
        consume m cell 0 ~acked_at:done_at;
        consume m cell sel ~acked_at:done_at;
        send m cell 0 data ~ready_at:done_at;
        true)
  end
  else false

let fire_merge_switch m cell =
  if cell.pending_acks = 0 then begin
    match (ready cell 0, ready cell 3) with
    | Some ctl, Some d -> (
      let sel = if Value.to_bool ctl then 1 else 2 in
      match ready cell sel with
      | None -> false
      | Some data ->
        let done_at = dispatch m cell in
        consume m cell 0 ~acked_at:done_at;
        consume m cell sel ~acked_at:done_at;
        consume m cell 3 ~acked_at:done_at;
        send m cell 0 data ~ready_at:done_at;
        if Value.to_bool d then send m cell 1 data ~ready_at:done_at;
        true)
    | _ -> false
  end
  else false

let fire_fifo m cell k =
  let progressed = ref false in
  if cell.pending_acks = 0 && cell.queue_len > 0 then begin
    match cell.queue with
    | v :: rest ->
      cell.queue <- rest;
      cell.queue_len <- cell.queue_len - 1;
      let done_at = dispatch m cell in
      send m cell 0 v ~ready_at:done_at;
      progressed := true
    | [] -> assert false
  end;
  (match cell.operands.(0) with
  | Some v when cell.queue_len < k ->
    cell.queue <- cell.queue @ [ v ];
    cell.queue_len <- cell.queue_len + 1;
    consume m cell 0 ~acked_at:m.now;
    progressed := true
  | _ -> ());
  !progressed

let fire_bool_source m cell seq =
  if cell.pending_acks = 0 then begin
    match Ctlseq.nth seq cell.cursor with
    | None -> false
    | Some b ->
      cell.cursor <- cell.cursor + 1;
      let done_at = dispatch m cell in
      send m cell 0 (Value.Bool b) ~ready_at:done_at;
      true
  end
  else false

let fire_iota m cell ~lo ~hi ~rep =
  if cell.pending_acks = 0 then begin
    let span = hi - lo + 1 in
    let v = lo + (cell.cursor / rep mod span) in
    cell.cursor <- cell.cursor + 1;
    let done_at = dispatch m cell in
    send m cell 0 (Value.Int v) ~ready_at:done_at;
    true
  end
  else false

let fire_input m cell =
  if cell.pending_acks = 0 && cell.cursor < Array.length cell.stream
  then begin
    let v = cell.stream.(cell.cursor) in
    cell.cursor <- cell.cursor + 1;
    let done_at = dispatch m cell in
    send m cell 0 v ~ready_at:done_at;
    true
  end
  else false

let fire_output m cell =
  match cell.operands.(0) with
  | Some v ->
    cell.collected <- (m.now, v) :: cell.collected;
    (match
       San.on_output m.sanitizer ~time:m.now ~node:cell.node.Graph.id
     with
    | Some viol -> emit_violation m viol
    | None -> ());
    let done_at = dispatch m cell in
    consume m cell 0 ~acked_at:done_at;
    true
  | None -> false

let fire_sink m cell =
  match cell.operands.(0) with
  | Some _ ->
    let done_at = dispatch m cell in
    consume m cell 0 ~acked_at:done_at;
    true
  | None -> false

let try_fire m cell =
  let open Opcode in
  if m.pe_dead.(cell.pe) then false
  else
    let node = cell.node in
    match node.Graph.op with
    | Id | Arith _ | Compare _ | Logic _ | Neg | Not | Math _ ->
      if cell.pending_acks = 0 && all_ready cell then
        let value =
          match node.Graph.op with
          | Id -> opnd cell 0
          | Arith op -> Opcode.apply_arith op (opnd cell 0) (opnd cell 1)
          | Compare op -> Opcode.apply_cmp op (opnd cell 0) (opnd cell 1)
          | Logic op -> Opcode.apply_logic op (opnd cell 0) (opnd cell 1)
          | Math mf -> Opcode.apply_math mf (opnd cell 0)
          | Neg -> (
            match opnd cell 0 with
            | Value.Int i -> Value.Int (-i)
            | Value.Real f -> Value.Real (-.f)
            | Value.Bool _ -> invalid_arg "NEG of boolean")
          | Not -> Value.Bool (not (Value.to_bool (opnd cell 0)))
          | _ -> assert false
        in
        finish_compute m cell value
      else false
    | Tgate -> fire_gate m cell ~tgate:true
    | Fgate -> fire_gate m cell ~tgate:false
    | Switch -> fire_switch m cell
    | Merge -> fire_merge m cell
    | Merge_switch -> fire_merge_switch m cell
    | Fifo k -> fire_fifo m cell k
    | Bool_source seq -> fire_bool_source m cell seq
    | Iota { lo; hi; rep } -> fire_iota m cell ~lo ~hi ~rep
    | Input _ -> fire_input m cell
    | Output _ -> fire_output m cell
    | Sink -> fire_sink m cell

let find_outstanding cell ~dst ~port ~seq =
  List.find_opt
    (fun e -> e.o_dst = dst && e.o_port = port && e.o_seq = seq)
    cell.outstanding

let remove_outstanding cell ~dst ~port ~seq =
  cell.outstanding <-
    List.filter
      (fun e -> not (e.o_dst = dst && e.o_port = port && e.o_seq = seq))
      cell.outstanding

let apply_event m = function
  | Deliver { src; dst; port; seq; value; crc } -> (
    let cell = m.cells.(dst) in
    if m.integrity && not (Integrity.verify_value value crc) then begin
      (* checksum mismatch: the payload was corrupted in flight.  Discard
         the packet — from here on it behaves exactly like a drop, so
         without recovery the consumer starves (and the wedge surfaces
         through watchdog/conservation), while with recovery the
         producer's retransmission timer resends a clean copy. *)
      m.corrupt_detected <- m.corrupt_detected + 1;
      if
        m.recovery <> None && seq >= cell.recv_seq.(port)
        && not (List.mem (port, seq) cell.corrupt_pend)
      then cell.corrupt_pend <- (port, seq) :: cell.corrupt_pend;
      if Obs.Tracer.enabled m.tracer then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Corrupt_detected
             { time = m.now; track = cell.pe; src; dst; port; seq })
    end
    else
      match m.recovery with
      | Some _ when seq < cell.recv_seq.(port) ->
        (* stale duplicate (retransmission of a packet already accepted,
           or a network dup).  If the original was already consumed, its
           acknowledge may have been the casualty — acknowledge again; if
           it is still resident, stay silent: the pending acknowledge
           will go out at consume time. *)
        if seq < cell.cons_seq.(port) then
          send_ack m ~from_node:dst ~from_port:port ~seq ~dst:src
            ~acked_at:m.now
      | _ ->
        (match San.on_deliver m.sanitizer ~time:m.now ~src ~dst ~port with
        | Some v -> emit_violation m v (* drop: engine state is untrustworthy *)
        | None -> (
          if m.recovery <> None then begin
            cell.recv_seq.(port) <- seq + 1;
            if List.mem (port, seq) cell.corrupt_pend then begin
              cell.corrupt_pend <-
                List.filter (fun ps -> ps <> (port, seq)) cell.corrupt_pend;
              m.corrupt_healed <- m.corrupt_healed + 1;
              if Obs.Tracer.enabled m.tracer then
                Obs.Tracer.emit m.tracer
                  (Obs.Event.Corrupt_healed
                     { time = m.now; track = cell.pe; src; dst; port; seq })
            end
          end;
          match cell.operands.(port) with
          | Some _ ->
            if not (San.enabled m.sanitizer) then
              invalid_arg
                (Printf.sprintf "machine: arc capacity violated at %s#%d.%d"
                   cell.node.Graph.label dst port)
          | None -> cell.operands.(port) <- Some value));
        mark m dst)
  | Ack { dst; from_node; from_port; seq } -> (
    let cell = m.cells.(dst) in
    match m.recovery with
    | None ->
      (match San.on_ack m.sanitizer ~time:m.now ~dst with
      | Some v -> emit_violation m v
      | None -> cell.pending_acks <- cell.pending_acks - 1);
      mark m dst
    | Some _ -> (
      (* acknowledges are idempotent under recovery: only the first one
         for a given packet frees the producer *)
      match find_outstanding cell ~dst:from_node ~port:from_port ~seq with
      | None -> ()
      | Some _ ->
        remove_outstanding cell ~dst:from_node ~port:from_port ~seq;
        (match San.on_ack m.sanitizer ~time:m.now ~dst with
        | Some v -> emit_violation m v
        | None -> cell.pending_acks <- cell.pending_acks - 1);
        mark m dst))
  | Retransmit { src; dst; port; seq } -> (
    match m.recovery with
    | None -> ()
    | Some r -> (
      let cell = m.cells.(src) in
      match find_outstanding cell ~dst ~port ~seq with
      | None -> ()  (* acknowledged in the meantime *)
      | Some e ->
        let consumer = m.cells.(dst) in
        if
          consumer.recv_seq.(port) > seq && consumer.cons_seq.(port) <= seq
        then
          (* The packet is resident, unconsumed, at the consumer: a
             resend could only be deduplicated, and the acknowledge is
             not due until the consumer fires.  Hold the timer without
             charging an attempt — the retry budget is for packets and
             acknowledges actually missing, not for a consumer that is
             slow to drain its store.  (Hardware would learn this from
             a receipt status piggybacked on the routing network; the
             simulator reads the consumer's store directly.) *)
          schedule m
            (m.now + retry_delay r e.o_attempts)
            (Retransmit { src; dst; port; seq })
        else if e.o_attempts < r.max_retransmits then begin
          e.o_attempts <- e.o_attempts + 1;
          m.retransmits <- m.retransmits + 1;
          m.result_packets <- m.result_packets + 1;
          if Obs.Tracer.enabled m.tracer then
            Obs.Tracer.emit m.tracer
              (Obs.Event.Retransmit
                 { time = m.now; track = cell.pe; src; dst; port;
                   attempt = e.o_attempts });
          ignore
            (deliver_packet m ~src ~dst ~port ~seq ~value:e.o_value
               ~base:(m.now + m.arch.Arch.rn_latency));
          schedule m
            (m.now + retry_delay r e.o_attempts)
            (Retransmit { src; dst; port; seq });
          (* an active resend is protocol liveness, not silence: the
             no-progress watchdog must not fire while the backoff chain
             is still probing.  A truly wedged channel still terminates:
             once retries are exhausted nothing reschedules and the
             queue drains to a quiescent (and visibly wrong) stop. *)
          m.last_progress <- m.now
        end
        (* else: retries exhausted — the channel is declared lost and the
           wedge surfaces as a stall / conservation violation *)))

(* Drop timer events whose packet has been acknowledged: they carry no
   work, and letting them advance the clock would make a clean drain
   look like a watchdog stall. *)
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
  Array.for_all
    (fun cell ->
      List.for_all
        (fun e ->
          let c = m.cells.(e.o_dst) in
          c.recv_seq.(e.o_port) > e.o_seq && c.cons_seq.(e.o_port) <= e.o_seq)
        cell.outstanding)
    m.cells

let rec skip_stale_retransmits m =
  match Df_util.Pqueue.peek m.events with
  | Some (_, Retransmit { src; dst; port; seq })
    when find_outstanding m.cells.(src) ~dst ~port ~seq = None ->
    Df_util.Pqueue.drop_min m.events;
    skip_stale_retransmits m
  | _ -> ()

let take_checkpoint m =
  m.last_snapshot <- Some (snapshot m);
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
    | Some _ ->
      (* quiesce-and-rollback: surviving PEs discard the post-checkpoint
         timeline (cheap in a simulator, a barrier on hardware), the
         dead PE's cells are re-hosted, and the machine replays.  The
         acknowledge discipline makes the replay safe: output values are
         a function of the checkpoint state alone. *)
      let snap =
        match m.last_snapshot with
        | Some s -> s
        | None -> assert false (* taken at create when recovery is on *)
      in
      restore m snap;
      m.pe_dead.(pe) <- true;
      let alive p = not m.pe_dead.(p) in
      let remapped = ref 0 in
      Array.iter
        (fun c ->
          if m.pe_dead.(c.pe) then begin
            c.pe <- Arch.place m.arch ~alive c.node.Graph.id;
            incr remapped
          end)
        m.cells;
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
        if try_fire m m.cells.(id) then begin
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

let build_stall m reason =
  let blocked = ref [] in
  let edges = ref [] in
  Array.iter
    (fun cell ->
      let id = cell.node.Graph.id in
      let held = ref [] and missing = ref [] in
      Array.iteri
        (fun port binding ->
          match binding with
          | Graph.In_const _ -> ()
          | Graph.In_arc | Graph.In_arc_init _ -> (
            match cell.operands.(port) with
            | Some v -> held := (port, Value.to_string v) :: !held
            | None ->
              missing := port :: !missing;
              let src = cell.producer.(port) in
              if src >= 0 then edges := (id, src) :: !edges))
        cell.node.Graph.inputs;
      let held = List.rev !held and missing = List.rev !missing in
      if cell.pending_acks > 0 then
        Array.iter
          (List.iter (fun { Graph.ep_node; ep_port } ->
               if
                 m.cells.(ep_node).operands.(ep_port) <> None
                 && m.cells.(ep_node).producer.(ep_port) = id
               then edges := (id, ep_node) :: !edges))
          cell.node.Graph.dests;
      let pending_inputs =
        match cell.node.Graph.op with
        | Opcode.Input _ -> Array.length cell.stream - cell.cursor
        | _ -> 0
      in
      if
        held <> [] || cell.queue_len > 0 || pending_inputs > 0
        || cell.pending_acks > 0
      then begin
        let b =
          {
            SR.b_node = id;
            b_label = cell.node.Graph.label;
            b_op = Opcode.name cell.node.Graph.op;
            b_missing = missing;
            b_held = held;
            b_pending_acks = cell.pending_acks;
            b_queue_len = cell.queue_len;
            b_pending_inputs = pending_inputs;
          }
        in
        if Obs.Tracer.enabled m.tracer then
          Obs.Tracer.emit m.tracer
            (Obs.Event.Stall
               { time = m.now; track = cell.pe; node = id;
                 label = cell.node.Graph.label;
                 reason = SR.blocked_line b });
        blocked := b :: !blocked
      end)
    m.cells;
  let dead_pes =
    let out = ref [] in
    Array.iteri (fun pe dead -> if dead then out := pe :: !out) m.pe_dead;
    List.rev !out
  in
  match List.rev !blocked with
  | [] -> None
  | blocked ->
    Some (SR.make ~dead_pes ~time:m.now ~reason ~blocked ~edges:!edges ())

let result m =
  let outputs =
    List.map
      (fun (name, id) -> (name, List.rev m.cells.(id).collected))
      (Graph.outputs m.graph)
  in
  if
    m.finished && m.quiescent
    && San.enabled m.sanitizer
    && not (San.tripped m.sanitizer)
  then
    List.iter (emit_violation m)
      (San.on_quiescence m.sanitizer ~time:m.now
         ~held:(fun node port -> m.cells.(node).operands.(port) <> None));
  let stall =
    if not m.finished then None
    else if San.tripped m.sanitizer then None
    else if m.watchdog_tripped then build_stall m SR.No_progress
    else if m.quiescent then build_stall m SR.Deadlock
    else build_stall m SR.Max_time_exhausted
  in
  {
    outputs;
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

let engine arch : (module Engine_intf.ENGINE with type result = result) =
  (module struct
    type nonrec result = result

    let run cfg g ~inputs = run_cfg cfg ~arch g ~inputs
    let output_values = output_values
    let output_times = output_times
  end)
