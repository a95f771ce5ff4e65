(* The run state both engines share, as flat arrays over the arena's
   global port and cell numbers, and the code that only reads or
   initialises it.  Nothing here is on a firing path: the engines keep
   their firing rules in their own modules and index these arrays
   directly. *)

open Dfg
module SR = Fault.Stall_report

type t = {
  present : bool array;
  value : Value.t array;
  pending_acks : int array;
  stream : Value.t array array;
  cursor : int array;
  fifo_buf : Value.t array array;
  fifo_head : int array;
  fifo_len : int array;
  collected : (int * Value.t) list array;
}

let create ~who (a : Arena.t) ~inputs =
  let n = max a.Arena.n 1 and n_ports = max a.Arena.n_ports 1 in
  let st =
    {
      present = Array.make n_ports false;
      value = Array.make n_ports Arena.dummy_value;
      pending_acks = Array.make n 0;
      stream = Array.make n [||];
      cursor = Array.make n 0;
      fifo_buf = Array.make n [||];
      fifo_head = Array.make n 0;
      fifo_len = Array.make n 0;
      collected = Array.make n [];
    }
  in
  for p = 0 to a.Arena.n_ports - 1 do
    let kind = a.Arena.port_kind.(p) in
    if kind <> Arena.kind_arc then begin
      (* const ports stay present for the whole run; init ports start
         present and their producer starts owing an acknowledge *)
      st.present.(p) <- true;
      st.value.(p) <- a.Arena.port_value.(p);
      let src = a.Arena.port_producer.(p) in
      if kind = Arena.kind_init && src >= 0 then
        st.pending_acks.(src) <- st.pending_acks.(src) + 1
    end
  done;
  for id = 0 to a.Arena.n - 1 do
    match a.Arena.ops.(id) with
    | Opcode.Input name ->
      st.stream.(id) <-
        Array.of_list (Df_util.Conventions.lookup_feed ~who inputs name)
    | Opcode.Fifo k ->
      st.fifo_buf.(id) <- Array.make (max k 1) Arena.dummy_value
    | _ -> ()
  done;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name a.Arena.inputs) then
        invalid_arg (Printf.sprintf "%s: unknown input stream %s" who name))
    inputs;
  st

let held (a : Arena.t) st cell port =
  let p = a.Arena.port_base.(cell) + port in
  a.Arena.port_kind.(p) <> Arena.kind_const && st.present.(p)

(* Which cells still hold or await something, and the wait-for edges
   that let [SR.make] name the cycle behind a deadlock. *)
let stall ?dead_pes tracer ~track (a : Arena.t) st ~time ~reason =
  let blocked = ref [] in
  let edges = ref [] in
  for id = 0 to a.Arena.n - 1 do
    let held = ref [] and missing = ref [] in
    for p = a.Arena.port_base.(id) to a.Arena.port_base.(id + 1) - 1 do
      if a.Arena.port_kind.(p) <> Arena.kind_const then
        if st.present.(p) then
          held := (a.Arena.port_sub.(p), Value.to_string st.value.(p)) :: !held
        else begin
          missing := a.Arena.port_sub.(p) :: !missing;
          let src = a.Arena.port_producer.(p) in
          if src >= 0 then edges := (id, src) :: !edges
        end
    done;
    let held = List.rev !held and missing = List.rev !missing in
    let acks = st.pending_acks.(id) in
    if acks > 0 then begin
      let dests = a.Arena.dest_base and slots = a.Arena.slot_base in
      for d = dests.(slots.(id)) to dests.(slots.(id + 1)) - 1 do
        let p = a.Arena.dest_port.(d) in
        if st.present.(p) && a.Arena.port_producer.(p) = id then
          edges := (id, a.Arena.port_cell.(p)) :: !edges
      done
    end;
    let pending_inputs =
      match a.Arena.ops.(id) with
      | Opcode.Input _ -> Array.length st.stream.(id) - st.cursor.(id)
      | _ -> 0
    in
    let queued = st.fifo_len.(id) in
    if held <> [] || queued > 0 || pending_inputs > 0 || acks > 0 then begin
      let b =
        {
          SR.b_node = id;
          b_label = a.Arena.labels.(id);
          b_op = Opcode.name a.Arena.ops.(id);
          b_missing = missing;
          b_held = held;
          b_pending_acks = acks;
          b_queue_len = queued;
          b_pending_inputs = pending_inputs;
        }
      in
      if Obs.Tracer.enabled tracer then
        Obs.Tracer.emit tracer
          (Obs.Event.Stall
             { time; track = track id; node = id; label = b.SR.b_label;
               reason = SR.blocked_line b });
      blocked := b :: !blocked
    end
  done;
  match List.rev !blocked with
  | [] -> None
  | blocked -> Some (SR.make ?dead_pes ~time ~reason ~blocked ~edges:!edges ())

let outputs (a : Arena.t) st =
  List.map
    (fun (name, id) -> (name, List.rev st.collected.(id)))
    a.Arena.outputs

let snapshot st =
  let fifo_buf =
    Array.mapi
      (fun id buf ->
        let cap = Array.length buf in
        Array.init st.fifo_len.(id) (fun i ->
            let j = st.fifo_head.(id) + i in
            buf.(if j >= cap then j - cap else j)))
      st.fifo_buf
  in
  {
    present = Array.copy st.present;
    value =
      Array.mapi
        (fun p v -> if st.present.(p) then v else Arena.dummy_value)
        st.value;
    pending_acks = Array.copy st.pending_acks;
    stream = [||];
    cursor = Array.copy st.cursor;
    fifo_buf;
    fifo_head = Array.make (Array.length st.fifo_head) 0;
    fifo_len = Array.copy st.fifo_len;
    collected = Array.copy st.collected;
  }

let restore st snap =
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  Array.iteri
    (fun id items ->
      let len = Array.length items in
      Array.blit items 0 st.fifo_buf.(id) 0 len;
      st.fifo_head.(id) <- 0;
      st.fifo_len.(id) <- len)
    snap.fifo_buf;
  blit snap.present st.present;
  blit snap.value st.value;
  blit snap.pending_acks st.pending_acks;
  blit snap.cursor st.cursor;
  blit snap.collected st.collected
