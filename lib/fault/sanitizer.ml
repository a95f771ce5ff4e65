open Dfg

type state = {
  graph : Graph.t;
  occupied : bool array array; (* node -> arc port -> shadow occupancy *)
  is_arc : bool array array;
  producer : int array array;
  owed : int array; (* node -> acknowledges outstanding *)
  last_out : int array; (* output node -> last arrival time *)
  limit : int;
  mutable violations_rev : Violation.t list;
  mutable count : int;
  mutable tripped : bool;
}

type t = state option

let null = None

let create ?(limit = 64) g =
  if limit <= 0 then invalid_arg "Sanitizer.create: limit <= 0";
  let n = Graph.node_count g in
  let producers = Graph.producers g in
  let occupied = Array.init n (fun _ -> [||]) in
  let is_arc = Array.init n (fun _ -> [||]) in
  let producer = Array.init n (fun _ -> [||]) in
  let owed = Array.make n 0 in
  for id = 0 to n - 1 do
    let node = Graph.node g id in
    let arity = Array.length node.Graph.inputs in
    occupied.(id) <- Array.make arity false;
    is_arc.(id) <- Array.make arity false;
    producer.(id) <- Array.make arity (-1);
    Array.iteri
      (fun port binding ->
        (match producers.(id).(port) with
        | [| (src, _) |] -> producer.(id).(port) <- src
        | _ -> ());
        match binding with
        | Graph.In_arc -> is_arc.(id).(port) <- true
        | Graph.In_arc_init _ ->
          is_arc.(id).(port) <- true;
          occupied.(id).(port) <- true;
          let src = producer.(id).(port) in
          if src >= 0 then owed.(src) <- owed.(src) + 1
        | Graph.In_const _ -> ())
      node.Graph.inputs
  done;
  Some
    {
      graph = g;
      occupied;
      is_arc;
      producer;
      owed;
      last_out = Array.make n min_int;
      limit;
      violations_rev = [];
      count = 0;
      tripped = false;
    }

let enabled = function None -> false | Some _ -> true

(* Shadow-state snapshot, for engines that roll back to a checkpoint:
   the sanitizer must travel with the machine state or every replayed
   event would double-count against the shadow accounting. *)
type snapshot = {
  sn_occupied : bool array array;
  sn_owed : int array;
  sn_last_out : int array;
  sn_violations : Violation.t list; (* oldest first *)
  sn_count : int;
  sn_tripped : bool;
}

let snapshot = function
  | None -> None
  | Some s ->
    Some
      {
        sn_occupied = Array.map Array.copy s.occupied;
        sn_owed = Array.copy s.owed;
        sn_last_out = Array.copy s.last_out;
        sn_violations = List.rev s.violations_rev;
        sn_count = s.count;
        sn_tripped = s.tripped;
      }

let misfit t snap =
  match (t, snap) with
  | None, None -> None
  | Some s, Some sn -> (
    let n = Array.length s.owed in
    let bad_length (field, len) =
      if len = n then None
      else
        Some
          (Printf.sprintf "%s has length %d, the graph has %d cells" field len
             n)
    in
    let bad_row id row =
      let arity = Array.length s.occupied.(id) in
      if Array.length row = arity then None
      else
        Some
          (Printf.sprintf "occupied of cell %d has length %d, the cell has %d \
                           ports"
             id (Array.length row) arity)
    in
    match
      List.find_map bad_length
        [ ("owed", Array.length sn.sn_owed);
          ("last_out", Array.length sn.sn_last_out);
          ("occupied", Array.length sn.sn_occupied) ]
    with
    | Some _ as e -> e
    | None -> Array.find_mapi bad_row sn.sn_occupied)
  | None, Some _ | Some _, None ->
    Some
      "snapshot and sanitizer presence disagree (checkpointed run used a \
       different --sanitize setting)"

let restore t snap =
  Option.iter (fun e -> invalid_arg ("Sanitizer.restore: " ^ e)) (misfit t snap);
  match (t, snap) with
  | Some s, Some sn ->
    Array.iteri (fun i row -> s.occupied.(i) <- Array.copy row) sn.sn_occupied;
    Array.blit sn.sn_owed 0 s.owed 0 (Array.length s.owed);
    Array.blit sn.sn_last_out 0 s.last_out 0 (Array.length s.last_out);
    s.violations_rev <- List.rev sn.sn_violations;
    s.count <- sn.sn_count;
    s.tripped <- sn.sn_tripped
  | _ -> ()

let tripped = function None -> false | Some s -> s.tripped

let violations = function
  | None -> []
  | Some s -> List.rev s.violations_rev

let label s node = (Graph.node s.graph node).Graph.label

let record s kind ~node ~port ~time detail =
  let v =
    {
      Violation.v_kind = kind;
      v_node = node;
      v_label = label s node;
      v_port = port;
      v_time = time;
      v_detail = detail;
    }
  in
  if s.count < s.limit then s.violations_rev <- v :: s.violations_rev;
  s.count <- s.count + 1;
  if Violation.fatal kind then s.tripped <- true;
  Some v

let on_deliver t ~time ~src ~dst ~port =
  match t with
  | None -> None
  | Some s ->
    if s.occupied.(dst).(port) then
      record s Violation.Arc_capacity ~node:dst ~port:(Some port) ~time
        (Printf.sprintf "packet from %s#%d arrived while the port held a token"
           (label s src) src)
    else begin
      s.occupied.(dst).(port) <- true;
      None
    end

let on_consume t ~time ~node ~port =
  match t with
  | None -> None
  | Some s ->
    if not s.occupied.(node).(port) then
      record s Violation.Empty_consume ~node ~port:(Some port) ~time
        "consumed an operand the shadow state says is absent"
    else begin
      s.occupied.(node).(port) <- false;
      None
    end

let on_send t ~time ~node ~count =
  ignore time;
  match t with
  | None -> ()
  | Some s -> s.owed.(node) <- s.owed.(node) + count

let on_ack t ~time ~dst =
  match t with
  | None -> None
  | Some s ->
    if s.owed.(dst) <= 0 then
      record s Violation.Ack_underflow ~node:dst ~port:None ~time
        "acknowledge arrived with none outstanding"
    else begin
      s.owed.(dst) <- s.owed.(dst) - 1;
      None
    end

let on_output t ~time ~node =
  match t with
  | None -> None
  | Some s ->
    let prev = s.last_out.(node) in
    s.last_out.(node) <- max prev time;
    if time < prev then
      record s Violation.Nonmonotone_output ~node ~port:None ~time
        (Printf.sprintf "packet arrived at t=%d after one at t=%d" time prev)
    else None

let on_quiescence t ~time ~held =
  match t with
  | None -> []
  | Some s ->
    let n = Array.length s.occupied in
    let resident = Array.make n 0 in
    let out = ref [] in
    let push = function Some v -> out := v :: !out | None -> () in
    for node = 0 to n - 1 do
      Array.iteri
        (fun port occ ->
          if s.is_arc.(node).(port) then begin
            let src = s.producer.(node).(port) in
            if occ && src >= 0 then resident.(src) <- resident.(src) + 1;
            if occ <> held node port then
              push
                (record s Violation.Token_conservation ~node ~port:(Some port)
                   ~time
                   (Printf.sprintf
                      "engine sees the port %s, shadow accounting says %s"
                      (if held node port then "occupied" else "empty")
                      (if occ then "occupied" else "empty")))
          end)
        s.occupied.(node)
    done;
    for node = 0 to n - 1 do
      if s.owed.(node) <> resident.(node) then
        push
          (record s Violation.Ack_conservation ~node ~port:None ~time
             (Printf.sprintf
                "owed %d acknowledge(s) but %d of its token(s) are resident"
                s.owed.(node) resident.(node)))
    done;
    List.rev !out
