open Dfg
module J = Obs.Json
module ME = Machine.Machine_engine
module San = Fault.Sanitizer
module V = Fault.Violation

(* 3: the run state is stored as flat per-port and per-cell arrays in
   the engines' shared layout, and the snapshot carries what a resumed
   crash-faulted run needs: the crash flag, the checkpoint clock, the
   checkpoint and recovery counters and the rollback target.  (2 added
   per-packet checksums and the [magic] integrity header.) *)
let version = 3

(* Hashtbl.hash alone is unusable as a whole-graph digest (it only
   inspects a bounded prefix of the structure); hash each node's small
   descriptor and fold the results. *)
let graph_fingerprint g =
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

let json_of_value = function
  | Value.Int i -> J.Obj [ ("i", J.Int i) ]
  | Value.Bool b -> J.Obj [ ("b", J.Bool b) ]
  | Value.Real f ->
    (* %h: hexadecimal float literal — exact, unlike any decimal form *)
    J.Obj [ ("r", J.String (Printf.sprintf "%h" f)) ]

let json_of_array f a = J.List (Array.to_list (Array.map f a))

let json_of_int_array = json_of_array (fun i -> J.Int i)

let json_of_bool b = J.Bool b

(* one value per slot, [null] where [full] says the slot is empty *)
let json_of_slots full values =
  J.List
    (Array.to_list
       (Array.mapi
          (fun i v -> if full i then json_of_value v else J.Null)
          values))

let json_of_event (prio, ev) =
  let body =
    match ev with
    | ME.Deliver { src; dst; port; seq; value; crc } ->
      [ ("t", J.String "d"); ("src", J.Int src); ("dst", J.Int dst);
        ("port", J.Int port); ("seq", J.Int seq); ("v", json_of_value value);
        ("crc", J.Int crc) ]
    | ME.Ack { dst; from_node; from_port; seq } ->
      [ ("t", J.String "a"); ("dst", J.Int dst); ("fn", J.Int from_node);
        ("fp", J.Int from_port); ("seq", J.Int seq) ]
    | ME.Retransmit { src; dst; port; seq } ->
      [ ("t", J.String "r"); ("src", J.Int src); ("dst", J.Int dst);
        ("port", J.Int port); ("seq", J.Int seq) ]
  in
  J.Obj (("at", J.Int prio) :: body)

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
    ("fifo", json_of_array (json_of_array json_of_value) r.Run_state.fifo_buf);
    ("col",
     json_of_array
       (fun pkts ->
         J.List
           (List.map (fun (t, v) -> J.List [ J.Int t; json_of_value v ]) pkts))
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

let to_json ~graph (sn : ME.snapshot) =
  let rs = sn.ME.sn_resume in
  J.Obj
    ((("version", J.Int version)
     :: ("fingerprint", J.Int (graph_fingerprint graph))
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

let value_of_json name j =
  match (J.get_int (J.member "i" j), J.get_bool (J.member "b" j),
         J.get_string (J.member "r" j))
  with
  | Some i, _, _ -> Value.Int i
  | _, Some b, _ -> Value.Bool b
  | _, _, Some s -> (
    match float_of_string_opt s with
    | Some f -> Value.Real f
    | None -> fail "%s: bad hex float %S" name s)
  | _ -> fail "%s: expected a value object" name

(* the inverse of [json_of_slots]: presence and values *)
let slots_field name j =
  let slots =
    array_field name
      (function J.Null -> None | v -> Some (value_of_json name v))
      j
  in
  ( Array.map Option.is_some slots,
    Array.map (Option.value ~default:Arena.dummy_value) slots )

let event_of_json j =
  let prio = int_field "at" j in
  let ev =
    match get_string "t" (field "t" j) with
    | "d" ->
      ME.Deliver
        { src = int_field "src" j; dst = int_field "dst" j;
          port = int_field "port" j; seq = int_field "seq" j;
          value = value_of_json "v" (field "v" j);
          crc = int_field "crc" j }
    | "a" ->
      ME.Ack
        { dst = int_field "dst" j; from_node = int_field "fn" j;
          from_port = int_field "fp" j; seq = int_field "seq" j }
    | "r" ->
      ME.Retransmit
        { src = int_field "src" j; dst = int_field "dst" j;
          port = int_field "port" j; seq = int_field "seq" j }
    | s -> fail "events: unknown event tag %S" s
  in
  (prio, ev)

(* The engine keeps only the consumer-side port of a queued event and
   reads producer, consumer and local port back from the graph, so a
   decoded event must travel an arc of it: a delivery or retransmission
   from [src] to input [port] of [dst], an acknowledge from input
   [from_port] of [from_node] back to its producer [dst]. *)
let check_event arena k (_, ev) =
  let arc what ~src ~dst ~port =
    if Arena.arc_port arena ~src ~dst ~port < 0 then
      fail "events[%d]: %s from %d to %d.%d travels no arc of the graph" k
        what src dst port
  in
  match ev with
  | ME.Deliver { src; dst; port; _ } -> arc "delivery" ~src ~dst ~port
  | ME.Retransmit { src; dst; port; _ } -> arc "retransmission" ~src ~dst ~port
  | ME.Ack { dst; from_node; from_port; _ } ->
    arc "acknowledge" ~src:dst ~dst:from_node ~port:from_port

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
        J.get_list q |> List.map (value_of_json "fifo") |> Array.of_list)
      j
  in
  let collected =
    array_field "col"
      (fun pkts ->
        J.get_list pkts
        |> List.map (fun p ->
               match J.get_list p with
               | [ t; v ] -> (get_int "col.time" t, value_of_json "col.value" v)
               | _ -> fail "col: expected [time, value] pair"))
      j
  in
  let _, out_value = slots_field "outv" j in
  let events = array_field "events" event_of_json j in
  Array.iteri (check_event arena) events;
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

let of_json ~graph j =
  try
    let v = int_field "version" j in
    if v <> version then
      fail "checkpoint format version %d, this build reads %d" v version;
    let fp = int_field "fingerprint" j in
    let here = graph_fingerprint graph in
    if fp <> here then
      fail
        "checkpoint was taken from a different program (fingerprint %d, \
         graph has %d)"
        fp here;
    let arena = Arena.build graph in
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

(* A checkpoint file is a one-line header followed by the JSON payload:

     dfsnap2 <crc> <payload-length>\n
     { ... }\n

   The header lets [load] reject truncated and bit-rotted files by
   length and checksum *before* handing bytes to the JSON parser, so
   storage rot surfaces as a structured error, never a parse
   exception deep inside a resume.  The header names the framing, not
   the document: a format-3 document still rides a [dfsnap2] header,
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
  let crc = Integrity.checksum_string payload in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s %d %d\n" magic crc (String.length payload);
      output_string oc payload)

let load ~path ~graph =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Io e)
  | text -> (
    let header, payload =
      match String.index_opt text '\n' with
      | None -> (text, "")
      | Some i ->
        ( String.sub text 0 i,
          String.sub text (i + 1) (String.length text - i - 1) )
    in
    let parsed_header =
      match String.split_on_char ' ' header with
      | [ m; crc_s; len_s ] when m = magic -> (
        match (int_of_string_opt crc_s, int_of_string_opt len_s) with
        | Some crc, Some len -> Ok (crc, len)
        | _ ->
          Error
            (Not_a_checkpoint
               (Printf.sprintf "%s: malformed %S header" path magic)))
      | _ ->
        Error
          (Not_a_checkpoint
             (Printf.sprintf
                "%s: missing %S header (a pre-corruption-era checkpoint, or \
                 not a checkpoint at all)"
                path magic))
    in
    match parsed_header with
    | Error _ as e -> e
    | Ok (crc, len) ->
      if String.length payload < len then
        Error (Truncated { expected = len; actual = String.length payload })
      else
        (* trailing junk beyond the declared length is ignored; rot
           inside the declared prefix fails the checksum below *)
        let payload = String.sub payload 0 len in
        let actual_crc = Integrity.checksum_string payload in
        if actual_crc <> crc then
          Error (Corrupted { expected_crc = crc; actual_crc })
        else (
          match J.of_string payload with
          | exception J.Parse_error e -> Error (Malformed (path ^ ": " ^ e))
          | j -> (
            match of_json ~graph j with
            | Ok sn -> Ok sn
            | Error e -> Error (Malformed e))))

let equal (a : ME.snapshot) (b : ME.snapshot) = compare a b = 0
