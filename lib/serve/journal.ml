module J = Obs.Json

(* A journal is a sequence of independently framed records:

     dfjent <crc> <len>\n
     { ... }\n

   — the same magic+CRC+length discipline Recover.Checkpoint uses for
   snapshot files, applied per record so an append torn by SIGKILL
   corrupts only the tail.  Replay stops at the first frame that fails
   its header, length or checksum: everything before a torn append is
   trusted, everything after it is not (an append-only log gives no
   resync point that is safe against a record boundary forged by
   rotted bytes). *)

let magic = "dfjent"

exception Disk_fault of string

type entry =
  | Admit of { idem : string; request : J.t }
  | Progress of { idem : string; checkpoint : J.t }
  | Done of { idem : string; response : J.t; digest : int option }

let entry_to_json = function
  | Admit { idem; request } ->
    J.Obj [ ("kind", J.String "admit"); ("idem", J.String idem);
            ("request", request) ]
  | Progress { idem; checkpoint } ->
    J.Obj [ ("kind", J.String "progress"); ("idem", J.String idem);
            ("checkpoint", checkpoint) ]
  | Done { idem; response; digest } ->
    J.Obj
      (("kind", J.String "done") :: ("idem", J.String idem)
      :: ("response", response)
      ::
      (match digest with
      | Some d -> [ ("digest", J.Int d) ]
      | None -> []))

let entry_of_json j =
  match (J.get_string (J.member "kind" j), J.get_string (J.member "idem" j))
  with
  | Some "admit", Some idem -> Ok (Admit { idem; request = J.member "request" j })
  | Some "progress", Some idem ->
    Ok (Progress { idem; checkpoint = J.member "checkpoint" j })
  | Some "done", Some idem ->
    Ok
      (Done
         { idem;
           response = J.member "response" j;
           digest = J.get_int (J.member "digest" j) })
  | _, None -> Error "journal entry without idem"
  | Some k, _ -> Error (Printf.sprintf "unknown journal entry kind %S" k)
  | None, _ -> Error "journal entry without kind"

let frame entry =
  let payload = J.to_string (entry_to_json entry) ^ "\n" in
  Printf.sprintf "%s %d %d\n%s" magic
    (Integrity.checksum_string payload)
    (String.length payload) payload

(* ---------------- replay ---------------- *)

type damage = Intact | Damaged of { valid : int; size : int }

(* Longest intact prefix of records; anything torn, truncated or
   bit-rotted ends the replay.  Also reports how far the intact prefix
   reaches, so a caller can tell a clean journal from one whose tail
   was betrayed — the trigger for peer recovery. *)
let scan text =
  let len = String.length text in
  let rec go pos acc =
    let stop () = (List.rev acc, pos) in
    if pos >= len then stop ()
    else
      match String.index_from_opt text pos '\n' with
      | None -> stop () (* torn header *)
      | Some nl -> (
        let header = String.sub text pos (nl - pos) in
        match String.split_on_char ' ' header with
        | [ m; crc_s; plen_s ] when m = magic -> (
          match (int_of_string_opt crc_s, int_of_string_opt plen_s) with
          | Some crc, Some plen ->
            let start = nl + 1 in
            if plen < 0 || start + plen > len then stop () (* torn payload *)
            else
              let payload = String.sub text start plen in
              if Integrity.checksum_string payload <> crc then stop ()
              else (
                match J.of_string payload with
                | exception J.Parse_error _ -> stop ()
                | doc -> (
                  match entry_of_json doc with
                  | Ok e -> go (start + plen) (e :: acc)
                  | Error _ -> stop ()))
          | _ -> stop ())
        | _ -> stop ())
  in
  go 0 []

let entries_of_string text = fst (scan text)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | text -> Some text

let replay path =
  match read_file path with None -> [] | Some text -> entries_of_string text

let replay_verified path =
  match read_file path with
  | None -> ([], Intact) (* a missing file is an empty journal *)
  | Some text ->
    let entries, valid = scan text in
    if valid = String.length text then (entries, Intact)
    else (entries, Damaged { valid; size = String.length text })

(* ---------------- folding a replay into job state ---------------- *)

type pending = {
  p_idem : string;
  p_request : J.t;
  p_checkpoint : J.t option;  (** latest progress checkpoint, if any *)
}

type recovered = {
  completed : (string * J.t) list;  (** idem -> recorded response, oldest first *)
  pending : pending list;  (** admitted, never completed, admission order *)
}

let fold entries =
  let tbl = Hashtbl.create 64 in
  (* checkpoints that arrived before their key's Admit: a member's
     replica target can switch while its pending admissions are still
     being re-pushed, so a worker's Progress may reach the new peer
     first *)
  let early = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e with
      | Admit { idem; request } ->
        if not (Hashtbl.mem tbl idem) then begin
          Hashtbl.add tbl idem (`Pending (request, Hashtbl.find_opt early idem));
          order := idem :: !order
        end
      | Progress { idem; checkpoint } -> (
        match Hashtbl.find_opt tbl idem with
        | Some (`Pending (req, _)) ->
          Hashtbl.replace tbl idem (`Pending (req, Some checkpoint))
        | Some (`Done _) -> ()
        | None -> Hashtbl.replace early idem checkpoint)
      | Done { idem; response; _ } -> (
        match Hashtbl.find_opt tbl idem with
        | Some (`Pending _) -> Hashtbl.replace tbl idem (`Done response)
        | Some (`Done _) -> ()
        | None ->
          (* no surviving Admit — the admission was compacted away (a
             compacted journal stores completed work as bare [Done]
             records) or torn off a previous generation; the response
             is still the authoritative answer for this key *)
          Hashtbl.add tbl idem (`Done response);
          order := idem :: !order))
    entries;
  let completed, pending =
    List.fold_left
      (fun (cs, ps) idem ->
        match Hashtbl.find_opt tbl idem with
        | Some (`Done response) -> ((idem, response) :: cs, ps)
        | Some (`Pending (request, checkpoint)) ->
          (cs, { p_idem = idem; p_request = request; p_checkpoint = checkpoint } :: ps)
        | None -> (cs, ps))
      ([], []) !order
  in
  { completed; pending }

(* the folded state as a minimal entry list: bare Done records for the
   dedup window, Admit (+ latest Progress) for each pending job — what
   compaction writes and what peer recovery rebuilds a lost journal
   from *)
let entries_of_recovered rcv =
  List.map
    (fun (idem, response) ->
      Done
        { idem;
          response;
          digest = J.get_int (J.member "digest" response) })
    rcv.completed
  @ List.concat_map
      (fun p ->
        Admit { idem = p.p_idem; request = p.p_request }
        ::
        (match p.p_checkpoint with
        | Some checkpoint -> [ Progress { idem = p.p_idem; checkpoint } ]
        | None -> []))
      rcv.pending

(* ---------------- durable rewrites ---------------- *)

let fsync_dir path =
  (* best-effort: some filesystems refuse fsync on a directory fd *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

(* Write-temporary + fsync + rename + fsync-the-directory: a crash (or
   power cut) mid-rewrite leaves either the old file or the new one,
   never a hybrid and never a rename pointing at unsynced bytes. *)
let write_atomic ~path entries =
  let tmp = path ^ ".compact" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun e -> output_string oc (frame e)) entries;
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp path;
  fsync_dir path

(* ---------------- compaction ---------------- *)

(* Rewrite the journal as the folded state instead of the full history:
   the newest [retain] completed responses (the dedup retention window)
   plus every pending admission with its latest checkpoint.  Via
   write_atomic, so a crash mid-compaction leaves either the old
   journal or the new one — and the new file uses the same per-record
   framing, so the torn-tail replay guarantees carry over unchanged.
   Compaction also truncates any betrayed tail the replay refused,
   giving the next generation's appends a clean frame boundary. *)
let compact ~path ~retain =
  if retain < 0 then invalid_arg "Journal.compact: negative retention";
  let rcv = fold (replay path) in
  let completed =
    let n = List.length rcv.completed in
    if n <= retain then rcv.completed
    else
      (* completed is oldest-first: drop from the front *)
      List.filteri (fun i _ -> i >= n - retain) rcv.completed
  in
  let rcv = { rcv with completed } in
  write_atomic ~path (entries_of_recovered rcv);
  rcv

(* ---------------- the live writer ---------------- *)

type t = {
  oc : out_channel;
  path : string;
  fsync : bool;
  diskfault : Diskfault.spec option;
  mutex : Mutex.t;  (** appends come from the event loop and from workers *)
  mutable appended : int;
}

let open_append ?(fsync = false) ?diskfault path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path;
    path;
    fsync;
    diskfault;
    mutex = Mutex.create ();
    appended = 0 }

(* Progress records are per-slice and advisory (losing one only costs
   recomputation); only the records that carry the exactly-once
   contract pay for a disk sync. *)
let synced_entry = function Admit _ | Done _ -> true | Progress _ -> false

let sync t = try Unix.fsync (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ -> ()

let rot_frame data bit =
  let b = Bytes.of_string data in
  let i = bit / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let append t entry =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (* one write per record, flushed to the OS: a SIGKILL after this
         returns can tear at most the record being appended *)
      let data = frame entry in
      let op = t.appended in
      t.appended <- op + 1;
      let finish data =
        output_string t.oc data;
        flush t.oc;
        if t.fsync && synced_entry entry then sync t
      in
      let cut frac =
        let len = String.length data in
        String.sub data 0 (max 1 (min (len - 1) (int_of_float (frac *. float_of_int len))))
      in
      match
        match t.diskfault with
        | None -> Diskfault.Pass
        | Some spec -> Diskfault.action spec ~op
      with
      | Diskfault.Pass -> finish data
      | Diskfault.Rot bit ->
        (* rot-at-rest, modeled at write time: the frame lands whole
           but lying, and replay's CRC refuses it *)
        finish (rot_frame data (bit mod (8 * String.length data)))
      | Diskfault.Slow_sync s ->
        output_string t.oc data;
        flush t.oc;
        Unix.sleepf s;
        if t.fsync && synced_entry entry then sync t
      | Diskfault.Torn frac ->
        output_string t.oc (cut frac);
        flush t.oc;
        raise (Disk_fault (Printf.sprintf "torn write at record %d" op))
      | Diskfault.Enospc frac ->
        output_string t.oc (cut frac);
        flush t.oc;
        raise (Unix.Unix_error (Unix.ENOSPC, "write", t.path)))

let appended t = t.appended

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> close_out_noerr t.oc)
