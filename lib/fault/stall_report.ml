type reason = Deadlock | No_progress | Max_time_exhausted

type blocked = {
  b_node : int;
  b_label : string;
  b_op : string;
  b_missing : int list;
  b_held : (int * string) list;
  b_pending_acks : int;
  b_queue_len : int;
  b_pending_inputs : int;
}

type t = {
  sr_time : int;
  sr_reason : reason;
  sr_blocked : blocked list;
  sr_cycle : int list option;
  sr_dead_pes : int list;
}

let unexpected = function
  | None -> false
  | Some sr -> sr.sr_reason <> Deadlock

let reason_name = function
  | Deadlock -> "deadlock"
  | No_progress -> "no-progress"
  | Max_time_exhausted -> "max-time-exhausted"

(* A cycle in [edges] reachable from [roots]: colored DFS, cycle
   recovered from the visiting stack.  Nodes are small ints (cell ids),
   so the adjacency lists and colors are arrays over their range;
   each node's successors are visited newest edge first. *)
let find_cycle ~roots ~edges =
  let lo = ref max_int and hi = ref min_int in
  let see v =
    if v < !lo then lo := v;
    if v > !hi then hi := v
  in
  List.iter see roots;
  List.iter (fun (a, b) -> see a; see b) edges;
  let lo = !lo and hi = !hi in
  if lo > hi then None
  else begin
    let adj = Array.make (hi - lo + 1) [] in
    List.iter (fun (a, b) -> adj.(a - lo) <- b :: adj.(a - lo)) edges;
    let color = Bytes.make (hi - lo + 1) '\000' in (* 1 = on stack, 2 = done *)
    let cycle = ref None in
    let rec dfs stack v =
      if !cycle = None then
        match Bytes.get color (v - lo) with
        | '\001' ->
          (* back edge: the cycle is the stack suffix from v *)
          let rec suffix = function
            | [] -> []
            | x :: rest -> if x = v then [ x ] else x :: suffix rest
          in
          cycle := Some (List.rev (suffix stack))
        | '\002' -> ()
        | _ ->
          Bytes.set color (v - lo) '\001';
          List.iter (dfs (v :: stack)) adj.(v - lo);
          Bytes.set color (v - lo) '\002'
    in
    List.iter (fun r -> if !cycle = None then dfs [] r) roots;
    !cycle
  end

let make ?(dead_pes = []) ~time ~reason ~blocked ~edges () =
  let roots = List.map (fun b -> b.b_node) blocked in
  {
    sr_time = time;
    sr_reason = reason;
    sr_blocked = blocked;
    sr_cycle = find_cycle ~roots ~edges;
    sr_dead_pes = dead_pes;
  }

(* The renderers write each part straight into one buffer: a stall
   report ends every drained one-wave run, so it is on the served
   path. *)
let add_blocked_line buf b =
  let add = Buffer.add_string buf in
  let int i = add (string_of_int i) in
  let list f xs = List.iteri (fun i x -> if i > 0 then add ","; f x) xs in
  let first = ref true in
  (* "label#id " and the parts, separated by "; " *)
  let part s =
    if !first then first := false else add "; ";
    add s
  in
  add b.b_label;
  add "#";
  int b.b_node;
  add " ";
  if b.b_held <> [] then begin
    part "holds ";
    list (fun (port, v) -> add "port"; int port; add "="; add v) b.b_held
  end;
  if b.b_queue_len > 0 then begin
    part "fifo(";
    int b.b_queue_len;
    add " items)"
  end;
  if b.b_pending_inputs > 0 then begin
    part (string_of_int b.b_pending_inputs);
    add " unsent inputs"
  end;
  if b.b_missing <> [] then begin
    part (match b.b_missing with [ _ ] -> "awaits port " | _ -> "awaits ports ");
    list int b.b_missing
  end;
  if b.b_pending_acks > 0 then begin
    part "owed ";
    int b.b_pending_acks;
    add " ack(s)"
  end

let blocked_line b =
  let buf = Buffer.create 64 in
  add_blocked_line buf b;
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let int i = add (string_of_int i) in
  add "stall (";
  add (reason_name t.sr_reason);
  add ") at t=";
  int t.sr_time;
  add ": ";
  int (List.length t.sr_blocked);
  add " blocked cell(s)";
  List.iter
    (fun b ->
      add "\n  ";
      add_blocked_line buf b)
    t.sr_blocked;
  if t.sr_dead_pes <> [] then begin
    add "\ndead PE(s): ";
    List.iteri (fun i pe -> if i > 0 then add ","; int pe) t.sr_dead_pes;
    add " (cells hosted there can never fire)"
  end;
  (match t.sr_cycle with
  | None -> ()
  | Some ids ->
    let first = List.hd ids in
    add "\nwait-for cycle: ";
    List.iter (fun id -> add "#"; int id; add " -> ") ids;
    add "#";
    int first);
  add "\n";
  Buffer.contents buf
