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
   recovered from the visiting stack. *)
let find_cycle ~roots ~edges =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (a, b) -> Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a)))
    edges;
  let color = Hashtbl.create 64 in (* 1 = on stack, 2 = done *)
  let cycle = ref None in
  let rec dfs stack v =
    if !cycle = None then
      match Hashtbl.find_opt color v with
      | Some 1 ->
        (* back edge: the cycle is the stack suffix from v *)
        let rec suffix = function
          | [] -> []
          | x :: rest -> if x = v then [ x ] else x :: suffix rest
        in
        cycle := Some (List.rev (suffix stack))
      | Some _ -> ()
      | None ->
        Hashtbl.replace color v 1;
        List.iter
          (dfs (v :: stack))
          (Option.value ~default:[] (Hashtbl.find_opt adj v));
        Hashtbl.replace color v 2
  in
  List.iter (fun r -> if !cycle = None then dfs [] r) roots;
  !cycle

let make ?(dead_pes = []) ~time ~reason ~blocked ~edges () =
  let roots = List.map (fun b -> b.b_node) blocked in
  {
    sr_time = time;
    sr_reason = reason;
    sr_blocked = blocked;
    sr_cycle = find_cycle ~roots ~edges;
    sr_dead_pes = dead_pes;
  }

let blocked_line b =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  if b.b_held <> [] then
    add "holds %s"
      (String.concat ","
         (List.map
            (fun (port, v) -> Printf.sprintf "port%d=%s" port v)
            b.b_held));
  if b.b_queue_len > 0 then add "fifo(%d items)" b.b_queue_len;
  if b.b_pending_inputs > 0 then add "%d unsent inputs" b.b_pending_inputs;
  if b.b_missing <> [] then
    add "awaits port%s %s"
      (if List.length b.b_missing > 1 then "s" else "")
      (String.concat "," (List.map string_of_int b.b_missing));
  if b.b_pending_acks > 0 then add "owed %d ack(s)" b.b_pending_acks;
  Printf.sprintf "%s#%d %s" b.b_label b.b_node
    (String.concat "; " (List.rev !parts))

let to_strings t = List.map blocked_line t.sr_blocked

let to_string t =
  let header =
    Printf.sprintf "stall (%s) at t=%d: %d blocked cell(s)"
      (reason_name t.sr_reason) t.sr_time
      (List.length t.sr_blocked)
  in
  let dead =
    match t.sr_dead_pes with
    | [] -> []
    | pes ->
      [ Printf.sprintf "dead PE(s): %s (cells hosted there can never fire)"
          (String.concat "," (List.map string_of_int pes)) ]
  in
  let cycle =
    match t.sr_cycle with
    | None -> []
    | Some ids ->
      [ Printf.sprintf "wait-for cycle: %s"
          (String.concat " -> "
             (List.map (fun id -> Printf.sprintf "#%d" id) (ids @ [ List.hd ids ]))) ]
  in
  String.concat "\n"
    ((header :: List.map (fun l -> "  " ^ l) (to_strings t)) @ dead @ cycle)
  ^ "\n"
