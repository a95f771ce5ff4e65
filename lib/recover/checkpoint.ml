open Dfg
module J = Obs.Json
module ME = Machine.Machine_engine
module San = Fault.Sanitizer
module V = Fault.Violation

(* 5: a queued event names the arc it travels by its consumer-side
   global port, as the engine keeps it, where a format-4 document named
   the producer, consumer cell and local port.  (4 listed queued events
   in the order they apply, the machine's equal-time order since its
   event queue became a timing wheel; 3 stored the run state as flat
   per-port and per-cell arrays and added what a resumed crash-faulted
   run needs; 2 added per-packet checksums and the [magic] integrity
   header.) *)
let version = 5

(* Hashtbl.hash alone is unusable as a whole-graph digest (it only
   inspects a bounded prefix of the structure); hash each node's small
   descriptor and fold the results. *)
let fingerprint g =
  let h = ref (Hashtbl.hash (Graph.node_count g)) in
  let mix x = h := (!h * 1000003) lxor Hashtbl.hash x in
  Graph.iter_nodes g (fun node ->
      mix
        ( node.Graph.id,
          Opcode.name node.Graph.op,
          node.Graph.label,
          Array.length node.Graph.inputs );
      Array.iter
        (List.iter (fun { Graph.ep_node; ep_port } -> mix (ep_node, ep_port)))
        node.Graph.dests);
  !h land max_int

(* ------------------------------------------------------------------ *)
(* encoding                                                           *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Value.Int i -> J.Obj [ ("i", J.Int i) ]
  | Value.Bool b -> J.Obj [ ("b", J.Bool b) ]
  | Value.Real f ->
    (* %h: hexadecimal float literal — exact, unlike any decimal form *)
    J.Obj [ ("r", J.String (Printf.sprintf "%h" f)) ]

let packet_to_json (t, v) = J.List [ J.Int t; value_to_json v ]

let json_of_array f a = J.List (Array.to_list (Array.map f a))

let json_of_int_array = json_of_array (fun i -> J.Int i)

let json_of_bool b = J.Bool b

(* one value per slot, [null] where [full] says the slot is empty *)
let json_of_slots full values =
  J.List
    (Array.to_list
       (Array.mapi
          (fun i v -> if full i then value_to_json v else J.Null)
          values))

let json_of_event (at, ev) =
  let tag, port, seq, payload =
    match ev with
    | ME.Deliver { port; seq; value; crc } ->
      ("d", port, seq, [ ("v", value_to_json value); ("crc", J.Int crc) ])
    | ME.Ack { port; seq } -> ("a", port, seq, [])
    | ME.Retransmit { port; seq } -> ("r", port, seq, [])
  in
  J.Obj
    (("at", J.Int at) :: ("t", J.String tag) :: ("port", J.Int port)
    :: ("seq", J.Int seq) :: payload)

let json_of_stats (s : ME.stats) =
  J.Obj
    [ ("dispatches", J.Int s.ME.dispatches); ("fu_ops", J.Int s.ME.fu_ops);
      ("am_ops", J.Int s.ME.am_ops);
      ("result_packets", J.Int s.ME.result_packets);
      ("ack_packets", J.Int s.ME.ack_packets);
      ("retransmits", J.Int s.ME.retransmits);
      ("corruptions", J.Int s.ME.corruptions);
      ("corrupt_detected", J.Int s.ME.corrupt_detected);
      ("corrupt_healed", J.Int s.ME.corrupt_healed);
      ("pe_dispatches", json_of_int_array s.ME.pe_dispatches) ]

let json_of_violation (v : V.t) =
  J.Obj
    [ ("kind", J.String (V.kind_name v.V.v_kind)); ("node", J.Int v.V.v_node);
      ("label", J.String v.V.v_label);
      ("port", (match v.V.v_port with None -> J.Null | Some p -> J.Int p));
      ("time", J.Int v.V.v_time); ("detail", J.String v.V.v_detail) ]

let json_of_sanitizer = function
  | None -> J.Null
  | Some (s : San.snapshot) ->
    J.Obj
      [ ("occ", json_of_array (json_of_array json_of_bool) s.San.sn_occupied);
        ("owed", json_of_int_array s.San.sn_owed);
        ("last", json_of_int_array s.San.sn_last_out);
        ("viol", J.List (List.map json_of_violation s.San.sn_violations));
        ("count", J.Int s.San.sn_count);
        ("tripped", J.Bool s.San.sn_tripped) ]

let state_fields (s : _ ME.snap) =
  let r = s.ME.sn_run in
  [ ("time", J.Int s.ME.sn_time);
    ("last_progress", J.Int s.ME.sn_last_progress);
    ("ops", json_of_slots (Array.get r.Run_state.present) r.Run_state.value);
    ("acks", json_of_int_array r.Run_state.pending_acks);
    ("cur", json_of_int_array r.Run_state.cursor);
    ("fifo", json_of_array (json_of_array value_to_json) r.Run_state.fifo_buf);
    ("col",
     json_of_array
       (fun pkts -> J.List (List.map packet_to_json pkts))
       r.Run_state.collected);
    ("pe", json_of_int_array s.ME.sn_pe);
    ("cons", json_of_int_array s.ME.sn_cons_seq);
    ("recv", json_of_int_array s.ME.sn_recv_seq);
    ("sent", json_of_int_array s.ME.sn_sent);
    ("att", json_of_int_array s.ME.sn_out_attempts);
    ("outv",
     json_of_slots (fun p -> s.ME.sn_out_attempts.(p) >= 0) s.ME.sn_out_value);
    ("cpend", json_of_int_array s.ME.sn_corrupt_pend);
    ("events", json_of_array json_of_event s.ME.sn_events);
    ("pes", json_of_int_array s.ME.sn_pes);
    ("fus", json_of_int_array s.ME.sn_fus);
    ("ams", json_of_int_array s.ME.sn_ams);
    ("pe_dead", json_of_array json_of_bool s.ME.sn_pe_dead);
    ("stats", json_of_stats s.ME.sn_stats);
    ("sanitizer", json_of_sanitizer s.ME.sn_sanitizer) ]

let to_json ~graph ?(fingerprint = fingerprint graph) (sn : ME.snapshot) =
  let rs = sn.ME.sn_resume in
  J.Obj
    ((("version", J.Int version)
     :: ("fingerprint", J.Int fingerprint)
     :: state_fields sn)
    @ [ ("crash_done", J.Bool rs.ME.rs_crash_done);
        ("next_checkpoint", J.Int rs.ME.rs_next_checkpoint);
        ("checkpoints", J.Int rs.ME.rs_checkpoints);
        ("recoveries", J.Int rs.ME.rs_recoveries);
        ("rollback",
         match rs.ME.rs_rollback with
         | None -> J.Null
         | Some st -> J.Obj (state_fields st)) ])

(* ------------------------------------------------------------------ *)
(* decoding                                                           *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get_int name j =
  match J.get_int j with Some i -> i | None -> fail "%s: expected int" name

let get_bool name j =
  match J.get_bool j with Some b -> b | None -> fail "%s: expected bool" name

let get_string name j =
  match J.get_string j with
  | Some s -> s
  | None -> fail "%s: expected string" name

let field name j = J.member name j

let int_field name j = get_int name (field name j)

let array_field name f j =
  field name j |> J.get_list |> List.map f |> Array.of_list

let int_array name j = array_field name (get_int name) j

let value_of_json = function
  | J.Obj [ ("i", J.Int i) ] -> Ok (Value.Int i)
  | J.Obj [ ("b", J.Bool b) ] -> Ok (Value.Bool b)
  | J.Obj [ ("r", J.String s) ] -> (
    match float_of_string_opt s with
    | Some f -> Ok (Value.Real f)
    | None -> Error (Printf.sprintf "bad real literal %S" s))
  | j -> Error (Printf.sprintf "bad value %s" (J.to_string j))

let packet_of_json = function
  | J.List [ J.Int t; v ] -> Result.map (fun v -> (t, v)) (value_of_json v)
  | p -> Error (Printf.sprintf "bad packet %s" (J.to_string p))

let get_value name j =
  match value_of_json j with Ok v -> v | Error e -> fail "%s: %s" name e

(* the inverse of [json_of_slots]: presence and values *)
let slots_field name j =
  let slots =
    array_field name
      (function J.Null -> None | v -> Some (get_value name v))
      j
  in
  ( Array.map Option.is_some slots,
    Array.map (Option.value ~default:Arena.dummy_value) slots )

(* Event [k] of a document.  The engine reads producer, consumer cell
   and local port back from the arena by the event's port, so the port
   must be one an arc feeds. *)
let event_of_json arena k j =
  let port = int_field "port" j and seq = int_field "seq" j in
  if not (Arena.is_arc arena port) then
    fail "events[%d]: port %d is not an arc port of the graph" k port;
  let ev =
    match get_string "t" (field "t" j) with
    | "d" ->
      ME.Deliver
        { port; seq; value = get_value "v" (field "v" j);
          crc = int_field "crc" j }
    | "a" -> ME.Ack { port; seq }
    | "r" -> ME.Retransmit { port; seq }
    | s -> fail "events[%d]: unknown event tag %S" k s
  in
  (int_field "at" j, ev)

let stats_of_json j : ME.stats =
  {
    ME.dispatches = int_field "dispatches" j;
    fu_ops = int_field "fu_ops" j;
    am_ops = int_field "am_ops" j;
    result_packets = int_field "result_packets" j;
    ack_packets = int_field "ack_packets" j;
    retransmits = int_field "retransmits" j;
    corruptions = int_field "corruptions" j;
    corrupt_detected = int_field "corrupt_detected" j;
    corrupt_healed = int_field "corrupt_healed" j;
    pe_dispatches = int_array "pe_dispatches" j;
  }

let violation_of_json j : V.t =
  let kind_s = get_string "kind" (field "kind" j) in
  let kind =
    match V.kind_of_name kind_s with
    | Some k -> k
    | None -> fail "viol: unknown violation kind %S" kind_s
  in
  {
    V.v_kind = kind;
    v_node = int_field "node" j;
    v_label = get_string "label" (field "label" j);
    v_port =
      (match field "port" j with J.Null -> None | p -> Some (get_int "port" p));
    v_time = int_field "time" j;
    v_detail = get_string "detail" (field "detail" j);
  }

let sanitizer_of_json = function
  | J.Null -> None
  | j ->
    Some
      {
        San.sn_occupied =
          array_field "occ"
            (fun row ->
              J.get_list row |> List.map (get_bool "occ") |> Array.of_list)
            j;
        sn_owed = int_array "owed" j;
        sn_last_out = int_array "last" j;
        sn_violations =
          field "viol" j |> J.get_list |> List.map violation_of_json;
        sn_count = int_field "count" j;
        sn_tripped = get_bool "tripped" (field "tripped" j);
      }

let state_of_json arena j : ME.state =
  let present, value = slots_field "ops" j in
  let acks = int_array "acks" j in
  let fifo_buf =
    array_field "fifo"
      (fun q ->
        J.get_list q |> List.map (get_value "fifo") |> Array.of_list)
      j
  in
  let collected =
    array_field "col"
      (fun pkts ->
        J.get_list pkts
        |> List.map (fun p ->
               match packet_of_json p with
               | Ok pkt -> pkt
               | Error e -> fail "col: %s" e))
      j
  in
  let _, out_value = slots_field "outv" j in
  let events =
    field "events" j |> J.get_list |> List.mapi (event_of_json arena)
    |> Array.of_list
  in
  {
    ME.sn_time = int_field "time" j;
    sn_last_progress = int_field "last_progress" j;
    sn_stats = stats_of_json (field "stats" j);
    sn_run =
      {
        Run_state.present;
        value;
        pending_acks = acks;
        stream = [||];
        cursor = int_array "cur" j;
        fifo_buf;
        fifo_head = Array.make (Array.length fifo_buf) 0;
        fifo_len = Array.map Array.length fifo_buf;
        collected;
      };
    sn_pe = int_array "pe" j;
    sn_cons_seq = int_array "cons" j;
    sn_recv_seq = int_array "recv" j;
    sn_sent = int_array "sent" j;
    sn_out_attempts = int_array "att" j;
    sn_out_value = out_value;
    sn_corrupt_pend = int_array "cpend" j;
    sn_events = events;
    sn_pes = int_array "pes" j;
    sn_fus = int_array "fus" j;
    sn_ams = int_array "ams" j;
    sn_pe_dead = array_field "pe_dead" (get_bool "pe_dead") j;
    sn_sanitizer = sanitizer_of_json (field "sanitizer" j);
    sn_resume = ();
  }

let of_json ~(arena : Arena.t) j =
  try
    let v = int_field "version" j in
    if v <> version then
      fail "checkpoint format version %d, this build reads %d" v version;
    let fp = int_field "fingerprint" j in
    let here = fingerprint arena.Arena.graph in
    if fp <> here then
      fail
        "checkpoint was taken from a different program (fingerprint %d, \
         graph has %d)"
        fp here;
    Ok
      {
        (state_of_json arena j) with
        ME.sn_resume =
          {
            ME.rs_crash_done = get_bool "crash_done" (field "crash_done" j);
            rs_next_checkpoint = int_field "next_checkpoint" j;
            rs_checkpoints = int_field "checkpoints" j;
            rs_recoveries = int_field "recoveries" j;
            rs_rollback =
              (match field "rollback" j with
              | J.Null -> None
              | r -> Some (state_of_json arena r));
          };
      }
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* file framing                                                       *)
(* ------------------------------------------------------------------ *)

(* A checkpoint file is one {!Integrity.frame}: the header line
   [dfsnap2 <crc> <payload-length>], then the JSON payload and a
   newline.  The header lets [load] reject truncated and bit-rotted
   files by length and checksum *before* handing bytes to the JSON
   parser, so storage rot surfaces as a structured error, never a parse
   exception deep inside a resume.  The header names the framing, not
   the document: a format-5 document still rides a [dfsnap2] header,
   and its [version] field is what rejects older documents. *)
let magic = "dfsnap2"

type load_error =
  | Io of string
  | Not_a_checkpoint of string
  | Truncated of { expected : int; actual : int }
  | Corrupted of { expected_crc : int; actual_crc : int }
  | Malformed of string

let load_error_to_string = function
  | Io e -> e
  | Not_a_checkpoint detail -> "not a checkpoint file: " ^ detail
  | Truncated { expected; actual } ->
    Printf.sprintf "truncated checkpoint: header promises %d payload bytes, \
                    file has %d" expected actual
  | Corrupted { expected_crc; actual_crc } ->
    Printf.sprintf "corrupted checkpoint: content checksum %d, header says %d"
      actual_crc expected_crc
  | Malformed e -> e

let save ~path ~graph sn =
  let payload = J.to_string (to_json ~graph sn) ^ "\n" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Integrity.frame ~magic payload))

let load ~path ~arena =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Io e)
  | text -> (
    (* trailing junk beyond the declared length is ignored; rot inside
       it fails the checksum *)
    match Integrity.unframe ~magic text with
    | Error Integrity.No_header ->
      Error
        (Not_a_checkpoint
           (Printf.sprintf
              "%s: missing %S header (a pre-corruption-era checkpoint, or \
               not a checkpoint at all)"
              path magic))
    | Error Integrity.Bad_header ->
      Error
        (Not_a_checkpoint (Printf.sprintf "%s: malformed %S header" path magic))
    | Error (Integrity.Truncated { expected; actual }) ->
      Error (Truncated { expected; actual })
    | Error (Integrity.Corrupted { expected_crc; actual_crc }) ->
      Error (Corrupted { expected_crc; actual_crc })
    | Ok (payload, _) -> (
      match J.of_string payload with
      | exception J.Parse_error e -> Error (Malformed (path ^ ": " ^ e))
      | j -> Result.map_error (fun e -> Malformed e) (of_json ~arena j)))

let equal (a : ME.snapshot) (b : ME.snapshot) = compare a b = 0
