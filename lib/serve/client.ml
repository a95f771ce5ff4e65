module J = Obs.Json
module Prng = Fault.Prng

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    match Runspec.hostport_of_string (String.sub s 4 (String.length s - 4)) with
    | Ok (host, port) -> Tcp (host, port)
    | Error e -> invalid_arg ("Client.addr_of_string: " ^ e)
  else Unix_path s

exception Timeout
exception Injected of string

type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
  lines : Line_reader.t;
  wbuf : Buffer.t;  (* the request line being written *)
  mutable stash : (int * J.t) list;
  mutable next_id : int;
  conn : int;  (* connection ordinal: netfault keying *)
  mutable ops : int;  (* operation ordinal within the connection *)
  mutable garbled : bool;  (* a line of ours went out with injected garbage *)
  netfault : Netfault.spec option;
  deadline : float option;  (* seconds an await may block *)
}

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))
    in
    Unix.ADDR_INET (ip, port)

let connect ?(retries = 50) ?(delay = 0.1) ?deadline ?netfault ?(conn = 0)
    addr =
  (match netfault with Some s -> Netfault.validate s | None -> ());
  let addr = addr_of_string addr in
  let domain =
    match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let rec go attempt =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of addr) with
    | () -> fd
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
      when attempt < retries ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf delay;
      go (attempt + 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  { fd = go 0;
    closed = false;
    lines = Line_reader.create ();
    wbuf = Buffer.create 256;
    stash = [];
    next_id = 1;
    conn;
    ops = 0;
    garbled = false;
    netfault;
    deadline }

(* Once only: an injected drop closes the connection and the caller's
   cleanup closes it again, by which time another thread of the process
   (an in-process server's accept, say) may own the fd number. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* EINTR-safe; EPIPE and friends surface as Unix_error for the retry
   layer (mains ignore SIGPIPE so a dead peer is an error, not a
   process kill). *)
let write_all fd line off len =
  let rec go off =
    if off < len then
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go off

let send t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  let op = t.ops in
  t.ops <- op + 1;
  Buffer.clear t.wbuf;
  J.to_buffer t.wbuf (Protocol.request_to_json ~id req);
  Buffer.add_char t.wbuf '\n';
  let line = Buffer.contents t.wbuf in
  (match t.netfault with
  | None -> write_all t.fd line 0 (String.length line)
  | Some spec -> (
    match Netfault.action spec ~conn:t.conn ~op with
    | Netfault.Pass -> write_all t.fd line 0 (String.length line)
    | Netfault.Drop ->
      close t;
      raise (Injected "connection dropped before write")
    | Netfault.Truncate f ->
      let n = max 1 (int_of_float (f *. float_of_int (String.length line))) in
      let n = min n (String.length line - 1) in
      write_all t.fd line 0 n;
      close t;
      raise (Injected (Printf.sprintf "truncated after %d/%d bytes" n
                         (String.length line)))
    | Netfault.Garbage g ->
      t.garbled <- true;
      let poisoned = g ^ line in
      write_all t.fd poisoned 0 (String.length poisoned)
    | Netfault.Stall (f, pause) ->
      let n = max 1 (int_of_float (f *. float_of_int (String.length line))) in
      let n = min n (String.length line - 1) in
      write_all t.fd line 0 n;
      Unix.sleepf pause;
      write_all t.fd line n (String.length line)));
  id

(* Read one complete line, buffering the overshoot; [limit] is the
   absolute wall-clock instant the whole await must finish by. *)
let read_line ?limit t =
  let wait_readable () =
    match limit with
    | None -> ()
    | Some limit ->
      let rec sel () =
        let remaining = limit -. Unix.gettimeofday () in
        if remaining <= 0.0 then raise Timeout;
        match Unix.select [ t.fd ] [] [] remaining with
        | [], _, _ -> raise Timeout
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> sel ()
      in
      sel ()
  in
  let rec line () =
    match Line_reader.next t.lines with
    | Some l -> l
    | None ->
      wait_readable ();
      let rec rd () =
        match Line_reader.read t.lines t.fd with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
      in
      if rd () = 0 then raise End_of_file;
      line ()
  in
  line ()

let limit_of t =
  Option.map (fun d -> Unix.gettimeofday () +. d) t.deadline

let recv t = J.of_string (read_line ?limit:(limit_of t) t)

(* Remove a previously-stashed response by id (non-blocking). *)
let take_stashed t id =
  match List.assoc_opt id t.stash with
  | Some r ->
    t.stash <- List.remove_assoc id t.stash;
    Some r
  | None -> None

let await t id =
  match take_stashed t id with
  | Some r -> r
  | None ->
    let limit = limit_of t in
    let rec pump () =
      let r = J.of_string (read_line ?limit t) in
      match Protocol.response_id r with
      | Some rid when rid = id -> r
      | Some rid when rid >= 0 ->
        t.stash <- t.stash @ [ (rid, r) ];
        pump ()
      | _ -> (
        (* an unaddressed [malformed] answers a line the server could
           not take: one that injected garbage mangled on the wire
           fails fast, so the retry layer reissues instead of waiting
           out the deadline; any other (a line over the server's cap)
           can never fit, so it is the answer *)
        match Protocol.response_error r with
        | Some (Some Protocol.Malformed, m) when t.garbled ->
          raise (Injected ("server rejected frame: " ^ m))
        | Some (Some Protocol.Malformed, _) -> r
        | _ ->
          t.stash <- t.stash @ [ (-1, r) ];
          pump ())
    in
    pump ()

(* A server refuses a request line longer than its [max_line] before
   it has read all of it: it answers [malformed] with id -1 (no request
   to address) and closes, and the rest of our write fails with EPIPE
   (or ECONNRESET).  The answer was sent before the close, so await it:
   the caller gets the structured rejection, not a transport failure.
   Over TCP the reset can discard it; then the write's error stands. *)
let rpc t req =
  match send t req with
  | id -> await t id
  | exception (Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) as e) -> (
    try await t (-1)
    with End_of_file | Timeout | J.Parse_error _ | Unix.Unix_error _ ->
      raise e)

(* One connect, one request, one response — no backoff.  The replica
   layer calls this from the event loop, where blocking on a slow or
   dead peer must be bounded: a refused connect fails immediately and
   [deadline] caps the await. *)
let oneshot ?(retries = 0) ?deadline addr req =
  match
    let c = connect ~retries ~delay:0.05 ?deadline addr in
    Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c req)
  with
  | resp -> Ok resp
  | exception Timeout -> Error "deadline expired"
  | exception End_of_file -> Error "connection closed"
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

(* ---------------- retry with backoff ---------------- *)

type retry = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  retry_seed : int;
}

let default_retry =
  { attempts = 10; base_delay = 0.05; max_delay = 1.0; retry_seed = 0 }

let backoff_delay retry ~attempt =
  let exp = min (float_of_int (1 lsl min attempt 16) *. retry.base_delay)
              retry.max_delay in
  (* full jitter in [0.5, 1.5): seeded, so a soak replays its pauses *)
  exp *. (0.5 +. Prng.float_of_hash (Prng.mix retry.retry_seed [ attempt ]))

let retryable_error resp =
  match Protocol.response_error resp with
  | Some (Some (Protocol.Overloaded | Protocol.Shutting_down
               | Protocol.Deadline), _) -> true
  | _ -> false

let resilient_rpc ?netfault ?(deadline = 30.0) ?(retry = default_retry) ~addr
    req =
  let rec go attempt last_error =
    if attempt >= retry.attempts then
      failwith
        (Printf.sprintf "resilient_rpc: %d attempts exhausted (%s)"
           retry.attempts last_error)
    else begin
      if attempt > 0 then Unix.sleepf (backoff_delay retry ~attempt);
      match
        let c =
          connect ~retries:3 ~delay:0.05 ~deadline ?netfault ~conn:attempt
            addr
        in
        Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c req)
      with
      | resp ->
        if retryable_error resp then
          go (attempt + 1)
            (Option.value ~default:"retryable server error"
               (Option.map snd (Protocol.response_error resp)))
        else (resp, attempt + 1)
      | exception Timeout -> go (attempt + 1) "request deadline expired"
      | exception End_of_file -> go (attempt + 1) "connection closed"
      | exception Injected why -> go (attempt + 1) ("injected: " ^ why)
      | exception Unix.Unix_error (e, fn, _) ->
        go (attempt + 1) (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    end
  in
  go 0 "no attempt made"
