open Dfg
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report

exception Protocol_error of string

type result = {
  outputs : (string * (int * Value.t) list) list;
  fire_counts : int array;
  fire_times : int list array;
  end_time : int;
  quiescent : bool;
  stuck : SR.t option;
  violations : Fault.Violation.t list;
}

let protocol fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* Bounds-unchecked indexing for the hot loop.  Every index written with
   [.!()] is an arena-internal invariant — a port / cell / slot number
   produced by [Arena.build] and never taken from user input — so the
   runtime check would only cost time (this build has no flambda to
   eliminate it). *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* The hot loop runs entirely on the flat arena: dynamic state is a set
   of parallel arrays indexed by the arena's global port / cell numbers.
   A firing applies its effects at once, each stamped with the time it
   takes effect, so there is no event pass:

   - a result packet lands in its destination port when it is sent, and
     [arrive.(p)] holds its arrival time; the port reads full only once
     [now] reaches that.  The port is always empty at send time, because
     a producer cannot refire until its previous packet on the arc was
     consumed and acknowledged.
   - an acknowledge decrements the producer's [pending_acks] when the
     consumer fires, and [ack_ready] keeps the latest arrival time among
     them: a cell's acknowledges are in once the count is 0 and [now]
     has reached [ack_ready].

   What is left of a packet or an acknowledge is a cell to wake at its
   arrival time.  Almost every wake is for [now + 1] and goes on the
   [frontier], once per cell (the [woken] stamp); only fault-delayed
   wakes need a real priority queue ([far]).  Wakes are pushed in send
   and consume order and each cell keeps its first one: that order is
   the order cells are tried in at each time, which [engine.behaviour]
   pins together with the trace.  A run stopped with packets in flight
   first takes them back (see the end of [run_arena]). *)

let run_arena (cfg : Run_config.t) (a : Arena.t) ~inputs =
  let max_time = cfg.Run_config.max_time in
  let record_firings = cfg.Run_config.record_firings in
  let tracer = cfg.Run_config.tracer in
  let fault = cfg.Run_config.fault in
  let watchdog = cfg.Run_config.watchdog in
  (match Run_config.check cfg with Error e -> invalid_arg e | Ok () -> ());
  let sanitizer =
    if cfg.Run_config.sanitize then San.create a.Arena.graph else San.null
  in
  let n = a.Arena.n in
  let ops = a.Arena.ops in
  let labels = a.Arena.labels in
  let port_base = a.Arena.port_base in
  let port_cell = a.Arena.port_cell in
  let port_sub = a.Arena.port_sub in
  let port_kind = a.Arena.port_kind in
  let port_producer = a.Arena.port_producer in
  let slot_base = a.Arena.slot_base in
  let dest_base = a.Arena.dest_base in
  let dest_port = a.Arena.dest_port in
  (* ---- dynamic state ---- *)
  let st = Run_state.create ~who:"Engine.run" a ~inputs in
  let present = st.Run_state.present in
  let pvalue = st.Run_state.value in
  let pending_acks = st.Run_state.pending_acks in
  let cursor = st.Run_state.cursor in
  let stream = st.Run_state.stream in
  let collected = st.Run_state.collected in
  let fifo_buf = st.Run_state.fifo_buf in
  let fifo_head = st.Run_state.fifo_head in
  let fifo_len = st.Run_state.fifo_len in
  let n_ports = max a.Arena.n_ports 1 in
  let arrive = Array.make n_ports 0 in
  let ack_at = Array.make n_ports 0 in
  let ack_ready = Array.make (max n 1) 0 in
  (* ---- wakes ---- *)
  let frontier = Array.make (max n 1) 0 in
  let frontier_len = ref 0 in
  let woken = Array.make (max n 1) (-1) in
  let far = Df_util.Ipq.create () in
  let now = ref 0 in
  let wake id at =
    if at > !now + 1 then Df_util.Ipq.push far at id
    else if woken.!(id) <> at then begin
      woken.!(id) <- at;
      frontier.!(!frontier_len) <- id;
      incr frontier_len
    end
  in
  let[@inline] full p = present.!(p) && arrive.!(p) <= !now in
  let[@inline] acks_in id =
    pending_acks.!(id) = 0 && ack_ready.!(id) <= !now
  in
  let fire_counts = Array.make n 0 in
  let fire_times = Array.make n [] in
  let tracer_on = Obs.Tracer.enabled tracer in
  let san_on = San.enabled sanitizer in
  let emit_fault kind ~src ~dst ~extra =
    if tracer_on then
      Obs.Tracer.emit tracer
        (Obs.Event.Fault_injected
           { time = !now; track = dst; kind; src; dst; extra })
  in
  let emit_violation (v : Fault.Violation.t) =
    if tracer_on then
      Obs.Tracer.emit tracer
        (Obs.Event.Violation
           { time = v.Fault.Violation.v_time; track = v.Fault.Violation.v_node;
             node = v.Fault.Violation.v_node;
             label = v.Fault.Violation.v_label;
             kind = Fault.Violation.kind_name v.Fault.Violation.v_kind;
             detail = v.Fault.Violation.v_detail })
  in
  let land_packet p value at =
    present.!(p) <- true;
    pvalue.!(p) <- value;
    arrive.!(p) <- at
  in
  let send id slot value =
    let s = slot_base.!(id) + slot in
    let db = dest_base.!(s) and de = dest_base.!(s + 1) in
    for d = db to de - 1 do
      let p = dest_port.!(d) in
      let dst = port_cell.!(p) in
      (* The graph-level simulator honours only delay faults: they
         respect the one-packet-per-arc discipline, so a correct graph
         must be insensitive to them. *)
      let extra =
        match fault with
        | None -> 0
        | Some f ->
          FP.result_delay f ~time:!now ~src:id ~dst ~port:port_sub.(p)
      in
      if extra > 0 then emit_fault "delay" ~src:id ~dst ~extra;
      let at = !now + 1 + extra in
      (if san_on then (
         match
           San.on_deliver sanitizer ~time:at ~src:port_producer.(p) ~dst
             ~port:port_sub.(p)
         with
         | Some v -> emit_violation v (* drop: engine state is untrustworthy *)
         | None -> if not present.(p) then land_packet p value at)
       else if present.!(p) then
         protocol "arc capacity violated: %s#%d port %d received while full"
           labels.(dst) dst port_sub.(p)
       else land_packet p value at);
      wake dst at;
      if tracer_on then
        Obs.Tracer.emit tracer
          (Obs.Event.Deliver
             { time = at; track = dst; src = id; dst; port = port_sub.(p);
               value = Value.to_string value })
    done;
    if san_on then San.on_send sanitizer ~time:!now ~node:id ~count:(de - db);
    pending_acks.!(id) <- pending_acks.!(id) + (de - db)
  in
  let take_ack p src at =
    pending_acks.!(src) <- pending_acks.!(src) - 1;
    ack_at.!(p) <- at;
    if at > ack_ready.!(src) then ack_ready.!(src) <- at
  in
  let consume_port p =
    if port_kind.!(p) <> Arena.kind_const then begin
      let id = port_cell.!(p) in
      if san_on then (
        match San.on_consume sanitizer ~time:!now ~node:id ~port:port_sub.(p)
        with
        | Some v -> emit_violation v
        | None -> ());
      if not present.!(p) && not san_on then
        protocol "%s#%d consumed an empty port" labels.(id) id;
      present.!(p) <- false;
      let src = port_producer.!(p) in
      if src >= 0 then begin
        let extra =
          match fault with
          | None -> 0
          | Some f -> FP.ack_delay f ~time:!now ~src:id ~dst:src
        in
        if extra > 0 then emit_fault "ack-delay" ~src:id ~dst:src ~extra;
        let at = !now + 1 + extra in
        (if san_on then (
           match San.on_ack sanitizer ~time:at ~dst:src with
           | Some v -> emit_violation v
           | None -> if pending_acks.(src) > 0 then take_ack p src at)
         else if pending_acks.!(src) <= 0 then
           protocol "%s#%d received an unexpected acknowledge" labels.(src)
             src
         else take_ack p src at);
        wake src at;
        if tracer_on then
          Obs.Tracer.emit tracer
            (Obs.Event.Ack { time = at; track = src; src = id; dst = src })
      end
    end
  in
  let record_fire id =
    if tracer_on then
      Obs.Tracer.emit tracer
        (Obs.Event.Fire
           { time = !now; dur = 1; track = id; node = id;
             label = labels.(id); op = Opcode.name ops.(id) });
    fire_counts.!(id) <- fire_counts.!(id) + 1;
    if record_firings then fire_times.(id) <- !now :: fire_times.(id)
  in
  (* ---- firing rules, one helper per opcode family ---- *)
  let fire_compute id b result =
    record_fire id;
    let e = port_base.!(id + 1) in
    for p = b to e - 1 do
      consume_port p
    done;
    send id 0 result;
    true
  in
  let fire_gate id tgate =
    let b = port_base.!(id) in
    if acks_in id && full b && full (b + 1) then begin
      let ctl = Value.to_bool pvalue.!(b) in
      let data = pvalue.!(b + 1) in
      let pass = if tgate then ctl else not ctl in
      record_fire id;
      consume_port b;
      consume_port (b + 1);
      if pass then send id 0 data;
      true
    end
    else false
  in
  let fire_switch id =
    let b = port_base.!(id) in
    if acks_in id && full b && full (b + 1) then begin
      let ctl = Value.to_bool pvalue.!(b) in
      let data = pvalue.!(b + 1) in
      record_fire id;
      consume_port b;
      consume_port (b + 1);
      send id (if ctl then 0 else 1) data;
      true
    end
    else false
  in
  let fire_merge id =
    let b = port_base.!(id) in
    if acks_in id && full b then begin
      let sel = if Value.to_bool pvalue.!(b) then 1 else 2 in
      if full (b + sel) then begin
        let data = pvalue.!(b + sel) in
        record_fire id;
        consume_port b;
        consume_port (b + sel);
        send id 0 data;
        true
      end
      else false
    end
    else false
  in
  let fire_merge_switch id =
    (* Fires on merge control M (port 0), the selected data input, and
       the destination control D (port 3).  The result goes to slot 0
       unconditionally and to slot 1 only when D is true. *)
    let b = port_base.!(id) in
    if acks_in id && full b && full (b + 3) then begin
      let sel = if Value.to_bool pvalue.!(b) then 1 else 2 in
      if full (b + sel) then begin
        let data = pvalue.!(b + sel) in
        let d = Value.to_bool pvalue.!(b + 3) in
        record_fire id;
        consume_port b;
        consume_port (b + sel);
        consume_port (b + 3);
        send id 0 data;
        if d then send id 1 data;
        true
      end
      else false
    end
    else false
  in
  let fire_fifo id k =
    let progressed = ref false in
    (* emit side *)
    if acks_in id && fifo_len.(id) > 0 then begin
      let buf = fifo_buf.(id) in
      let h = fifo_head.(id) in
      let v = buf.(h) in
      fifo_head.(id) <- (if h + 1 = Array.length buf then 0 else h + 1);
      fifo_len.(id) <- fifo_len.(id) - 1;
      record_fire id;
      send id 0 v;
      progressed := true
    end;
    (* accept side *)
    let b = port_base.!(id) in
    if full b && fifo_len.(id) < k then begin
      let buf = fifo_buf.(id) in
      let tail = fifo_head.(id) + fifo_len.(id) in
      let tail = if tail >= Array.length buf then tail - Array.length buf
                 else tail in
      buf.(tail) <- pvalue.(b);
      fifo_len.(id) <- fifo_len.(id) + 1;
      consume_port b;
      progressed := true
    end;
    !progressed
  in
  let fire_iota id lo hi rep =
    if acks_in id then begin
      let span = hi - lo + 1 in
      let v = lo + (cursor.(id) / rep mod span) in
      cursor.(id) <- cursor.(id) + 1;
      record_fire id;
      send id 0 (Value.Int v);
      true
    end
    else false
  in
  let fire_bool_source id seq =
    if acks_in id then begin
      match Ctlseq.nth seq cursor.(id) with
      | None -> false
      | Some b ->
        cursor.(id) <- cursor.(id) + 1;
        record_fire id;
        send id 0 (Value.Bool b);
        true
    end
    else false
  in
  let fire_input id =
    if acks_in id && cursor.!(id) < Array.length stream.!(id) then begin
      let v = stream.!(id).!(cursor.!(id)) in
      cursor.!(id) <- cursor.!(id) + 1;
      record_fire id;
      send id 0 v;
      true
    end
    else false
  in
  let fire_output id =
    let b = port_base.!(id) in
    if full b then begin
      collected.(id) <- (!now, pvalue.(b)) :: collected.(id);
      (if san_on then
         match San.on_output sanitizer ~time:!now ~node:id with
         | Some viol -> emit_violation viol
         | None -> ());
      record_fire id;
      consume_port b;
      true
    end
    else false
  in
  let fire_sink id =
    let b = port_base.!(id) in
    if full b then begin
      record_fire id;
      consume_port b;
      true
    end
    else false
  in
  let try_fire id =
    let open Opcode in
    match ops.(id) with
    | Id ->
      let b = port_base.!(id) in
      if acks_in id && full b then fire_compute id b pvalue.!(b) else false
    | Arith op ->
      let b = port_base.!(id) in
      if acks_in id && full b && full (b + 1) then
        fire_compute id b (Opcode.apply_arith op pvalue.!(b) pvalue.!(b + 1))
      else false
    | Compare op ->
      let b = port_base.!(id) in
      if acks_in id && full b && full (b + 1) then
        fire_compute id b (Opcode.apply_cmp op pvalue.!(b) pvalue.!(b + 1))
      else false
    | Logic op ->
      let b = port_base.!(id) in
      if acks_in id && full b && full (b + 1) then
        fire_compute id b (Opcode.apply_logic op pvalue.!(b) pvalue.!(b + 1))
      else false
    | Math m ->
      let b = port_base.!(id) in
      if acks_in id && full b then
        fire_compute id b (Opcode.apply_math m pvalue.!(b))
      else false
    | Neg ->
      let b = port_base.!(id) in
      if acks_in id && full b then
        fire_compute id b
          (match pvalue.!(b) with
          | Value.Int i -> Value.Int (-i)
          | Value.Real f -> Value.Real (-.f)
          | Value.Bool _ -> protocol "NEG of a boolean at %s" labels.(id))
      else false
    | Not ->
      let b = port_base.!(id) in
      if acks_in id && full b then
        fire_compute id b (Value.Bool (not (Value.to_bool pvalue.!(b))))
      else false
    | Tgate -> fire_gate id true
    | Fgate -> fire_gate id false
    | Switch -> fire_switch id
    | Merge -> fire_merge id
    | Merge_switch -> fire_merge_switch id
    | Fifo k -> fire_fifo id k
    | Iota { lo; hi; rep } -> fire_iota id lo hi rep
    | Bool_source seq -> fire_bool_source id seq
    | Input _ -> fire_input id
    | Output _ -> fire_output id
    | Sink -> fire_sink id
  in
  (* ---- dirty set: a preallocated int ring (the in_dirty guard bounds
     occupancy at n) ---- *)
  let dirty = Array.make (max n 1) 0 in
  let dirty_head = ref 0 in
  let dirty_len = ref 0 in
  let in_dirty = Bytes.make (max n 1) '\000' in
  let mark id =
    if Bytes.unsafe_get in_dirty id = '\000' then begin
      Bytes.unsafe_set in_dirty id '\001';
      let tail = !dirty_head + !dirty_len in
      dirty.!(if tail >= n then tail - n else tail) <- id;
      incr dirty_len
    end
  in
  for id = 0 to n - 1 do
    mark id
  done;
  let quiescent = ref false in
  let watchdog_tripped = ref false in
  let last_progress = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* fire everything enabled at the current time *)
    let fired_any = ref false in
    while !dirty_len > 0 do
      let id = dirty.!(!dirty_head) in
      dirty_head := (let h = !dirty_head + 1 in if h = n then 0 else h);
      decr dirty_len;
      Bytes.unsafe_set in_dirty id '\000';
      if try_fire id then begin
        fired_any := true;
        (* tried again only if it owes no acknowledge and its rule can
           hold again with no new arrival *)
        if pending_acks.!(id) = 0 && Arena.refires a id then mark id
      end
    done;
    if !fired_any then last_progress := !now;
    (* advance time *)
    if san_on && San.tripped sanitizer then continue_ := false
    else begin
      let t =
        if !frontier_len > 0 then !now + 1 else Df_util.Ipq.peek_priority far
      in
      if t < 0 then begin
        quiescent := true;
        continue_ := false
      end
      else if t > max_time then continue_ := false
      else if
        match watchdog with
        | Some k -> t - !last_progress > k
        | None -> false
      then begin
        (* tokens are in flight but no cell has fired for a full
           watchdog window: stop and report instead of spinning on *)
        watchdog_tripped := true;
        continue_ := false
      end
      else begin
        now := t;
        for i = 0 to !frontier_len - 1 do
          mark frontier.!(i)
        done;
        frontier_len := 0;
        while Df_util.Ipq.peek_priority far = t do
          mark (Df_util.Ipq.pop_payload far)
        done
      end
    end
  done;
  if not !quiescent then
    (* stopped early: take back every packet and acknowledge that has
       not arrived by [now], so the stall report sees the state at [now] *)
    for p = 0 to a.Arena.n_ports - 1 do
      if present.(p) && arrive.(p) > !now then present.(p) <- false;
      if ack_at.(p) > !now then begin
        let src = port_producer.(p) in
        pending_acks.(src) <- pending_acks.(src) + 1
      end
    done;
  if !quiescent && san_on && not (San.tripped sanitizer) then
    List.iter emit_violation
      (San.on_quiescence sanitizer ~time:!now ~held:(Run_state.held a st));
  let build_stall reason =
    Run_state.stall tracer ~track:Fun.id a st ~time:!now ~reason
  in
  let stuck =
    if San.tripped sanitizer then None
    else if !watchdog_tripped then build_stall SR.No_progress
    else if !quiescent then build_stall SR.Deadlock
    else build_stall SR.Max_time_exhausted
  in
  {
    outputs = Run_state.outputs a st;
    fire_counts;
    fire_times;
    end_time = !now;
    quiescent = !quiescent;
    stuck;
    violations = San.violations sanitizer;
  }

let run_cfg cfg g ~inputs = run_arena cfg (Arena.build g) ~inputs

let stream result name =
  Df_util.Conventions.lookup_stream ~who:"Engine" result.outputs name

let output_values result name = List.map snd (stream result name)

let output_times result name = List.map fst (stream result name)
