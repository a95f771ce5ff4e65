open Dfg
module J = Obs.Json
module P = Protocol
module FP = Fault.Fault_plan
module PC = Compiler.Program_compile
module ME = Machine.Machine_engine
module K = Kernels

type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  max_pending : int;
  cache_capacity : int;
  slice : int;
  max_line : int;
  idle_timeout : float option;
  write_timeout : float;
  drain_timeout : float;
  journal_path : string option;
  journal_retain : int option;
  replicas : int;
  cluster : string option;
  self_addr : string option;
  fsync : bool option;
  diskfault : Diskfault.spec option;
  log : out_channel option;
}

let default_config ~socket_path =
  { socket_path;
    tcp = None;
    workers = Exec.Pool.default_jobs ();
    max_pending = 64;
    cache_capacity = 32;
    slice = 5000;
    max_line = 1 lsl 20;
    idle_timeout = Some 60.0;
    write_timeout = 10.0;
    drain_timeout = 30.0;
    journal_path = None;
    journal_retain = None;
    replicas = 2;
    cluster = None;
    self_addr = None;
    fsync = None;
    diskfault = None;
    log = None }

(* ---------------- request resolution ---------------- *)

(* The cache key: an FNV-1a checksum of the canonical source text plus
   scalar bindings.  A kernel request and a source request carrying the
   same generated text share an entry. *)
let cache_key source scalars =
  Integrity.checksum_string
    (source ^ "\x00"
    ^ String.concat ";"
        (List.map (fun (n, v) -> n ^ "=" ^ Runspec.value_text v) scalars))

let source_of_program = function
  | P.Kernel { name; size } ->
    let k = K.find name in
    (k.K.source size, k.K.scalar_inputs)
  | P.Source { source; scalars; _ } -> (source, scalars)

(* The cache key doubles as the cluster routing key: rendezvous-hashing
   on it sends same-program requests to the member whose compiled-
   program cache already holds the entry. *)
let program_key program =
  let source, scalars = source_of_program program in
  cache_key source scalars

let unknown_kernel name =
  Printf.sprintf "unknown kernel %s (have: %s)" name
    (String.concat ", " (List.map (fun k -> k.K.name) K.all))

let compile_program program =
  match source_of_program program with
  | exception Not_found -> (
    match program with
    | P.Kernel { name; _ } -> Error (unknown_kernel name)
    | P.Source _ -> Error "unreachable")
  | source, scalars -> (
    match Compiler.Driver.compile_source ~scalar_inputs:scalars source with
    | _, compiled -> Ok compiled
    | exception e -> Error (Printexc.to_string e))

(* one wave per array input: a kernel's name-seeded draw, or waves
   synthesized from the request's seed for Val source *)
let input_waves program (compiled : PC.compiled) =
  match program with
  | P.Kernel { name; size } -> (
    match K.find name with
    | k -> K.seeded_inputs k size
    | exception Not_found -> invalid_arg (unknown_kernel name))
  | P.Source { input_seed; _ } ->
    List.map
      (fun (name, shape) ->
        ( name,
          Runspec.synth_wave ~seed:input_seed
            ~elt:shape.Val_lang.Classify.sh_elt ~size:(PC.wave_size shape)
            name ))
      compiled.PC.cp_inputs

let program_name = function
  | P.Kernel { name; size } -> Printf.sprintf "%s[%d]" name size
  | P.Source _ -> "source"

let config_of_run (r : P.run) =
  let fault =
    match r.fault with
    | None -> Ok None
    | Some s -> (
      match FP.of_string s with
      | Error e -> Error e
      | Ok spec -> (
        let spec =
          match r.fault_seed with
          | Some seed -> { spec with FP.seed }
          | None -> spec
        in
        match FP.make spec with
        | plan -> Ok (Some (spec, plan))
        | exception Invalid_argument m -> Error m))
  in
  let recovery =
    match r.recovery with
    | None -> Ok None
    | Some s -> Result.map Option.some (Recover.of_string s)
  in
  match (fault, recovery) with
  | Error e, _ -> Error ("fault: " ^ e)
  | _, Error e -> Error ("recovery: " ^ e)
  | Ok fault, Ok recovery ->
    let watchdog =
      match r.P.watchdog with
      | P.Off -> None
      | P.At n -> Some n
      | P.Auto ->
        let spec = match fault with Some (spec, _) -> spec | None -> FP.none in
        Some (Runspec.watchdog_for spec recovery)
    in
    let max_time =
      match (r.P.max_time, r.P.engine) with
      | Some t, _ -> t
      | None, `Machine -> ME.default_max_time
      | None, `Sim -> Run_config.default.Run_config.max_time
    in
    let cfg =
      Run_config.(
        default |> with_max_time max_time
        |> with_fault_opt (Option.map snd fault)
        |> with_recovery_opt recovery
        |> with_integrity r.P.integrity
        |> with_watchdog_opt watchdog
        |> with_sanitize r.P.sanitize)
    in
    let arch =
      { Machine.Arch.default with
        Machine.Arch.n_pe =
          Option.value r.P.n_pe ~default:Machine.Arch.default.Machine.Arch.n_pe;
        array_policy =
          (if r.P.stored then Machine.Arch.Stored else Machine.Arch.Streamed);
      }
    in
    Result.map (fun () -> (cfg, arch)) (Run_config.check cfg)

let job_of_run ?arena (r : P.run) (compiled : PC.compiled) =
  let program =
    match arena with
    | None -> Exec.Job.Graph_program compiled.PC.cp_graph
    | Some a when a.Arena.graph == compiled.PC.cp_graph ->
      Exec.Job.Arena_program a
    | Some _ -> invalid_arg "Server.job_of_run: arena of another graph"
  in
  match config_of_run r with
  | Error _ as e -> e
  | Ok (config, arch) -> (
    match
      Compiler.Driver.feeds ~waves:r.P.waves compiled
        (input_waves r.P.program compiled)
    with
    | exception Invalid_argument e -> Error e
    | inputs ->
      Ok
        (Exec.Job.make ~name:(program_name r.P.program)
           ~engine:
             (match r.P.engine with
             | `Sim -> Exec.Job.Sim
             | `Machine -> Exec.Job.Machine arch)
           ~config program ~inputs))

let subject_of_program program ~waves =
  match compile_program program with
  | Error _ as e -> e
  | Ok compiled ->
    Result.map
      (fun (job : Exec.Job.t) ->
        (Exec.Job.graph job, job.Exec.Job.inputs, job.Exec.Job.name))
      (job_of_run { (P.default_run program) with P.waves } compiled)

(* ---------------- jobs ---------------- *)

(* A compiled-program cache entry: the compile, and the arena lowered
   from its graph when the entry was added.  Every job of the program
   runs that arena; workers share it, as an arena is never mutated. *)
type entry = { compiled : PC.compiled; arena : Arena.t }

type job_result =
  | R_ok of (string * J.t) list  (* response payload fields *)
  | R_preempted of J.t  (* restorable checkpoint document *)
  | R_error of P.error_kind * string

type client = {
  fd : Unix.file_descr;
  cid : int;
  lines : Line_reader.t;  (* request framing *)
  wbuf : Buffer.t;  (* response bytes the socket has not accepted yet *)
  mutable wstart : float;  (* when wbuf last went nonempty / progressed *)
  mutable last_read : float;
  queue : job Queue.t;  (* admitted, not yet dispatched *)
  mutable waiting : int;  (* answers owed: its entries in jobs' waiter lists *)
  mutable closed : bool;
}

(* A job is admitted onto a queue, dispatched to a worker and answered
   once by [deliver]; or, still queued, it leaves unrun ([unqueue]).
   Everyone owed its outcome waits in [jwaiting]: the owner, idempotent
   twins and migrate callers alike. *)
and job = {
  jc : client option;  (* owner: whose queue it joins, who may cancel it *)
  jid : int;  (* the owner's request id *)
  jengine : [ `Sim | `Machine ];
  jidem : string option;
  jverb : string;  (* "simulate" | "sweep" *)
  jcancel : bool Atomic.t;
  mutable jwithdrawn : bool;  (* left its queue unrun: a carcass to skip *)
  mutable jwaiting : waiter list;  (* newest first *)
  jrequest : J.t option;  (* the admitted request, handed over on migration *)
  jwork : cancel:bool Atomic.t -> job_result;
}

(* a connection owed a job's outcome under its request id [wid]; a
   migrate caller is owed the migrate envelope around it *)
and waiter = { wc : client; wid : int; wmigrate : bool }

and idem_state = I_pending of job | I_done of J.t

type t = {
  cfg : config;
  listen_fds : Unix.file_descr list;
  tcp_fd : Unix.file_descr option;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  pool : Exec.Pool.t;
  cache : (int, entry) Lru.t;
  journal : Journal.t option;
  replica : Replica.t option;
  cluster_file : string option;  (* the @FILE form: re-read on SIGHUP *)
  reload : bool Atomic.t;
  idem : (string, idem_state) Hashtbl.t;
  rqueue : job Queue.t;  (* journal replays and orphaned admissions *)
  clients : (int, client) Hashtbl.t;
  mutable rr : int list;  (* round-robin rotation of client ids *)
  mutable next_cid : int;
  completions : (job * job_result) Queue.t;
  cmutex : Mutex.t;
  mutable queued : int;
  mutable in_flight : int;
  mutable inflight_jobs : job list;
  mutable stopping : bool;
  mutable drain_deadline : float option;
  mutable forced : bool;  (* drain budget spent; queue already dumped *)
  mutable n_requests : int;
  mutable n_completed : int;
  mutable n_rejected : int;
  mutable n_cancelled : int;
  mutable n_preempted : int;
  mutable n_errors : int;
  mutable n_malformed : int;
  mutable n_deadline : int;
  mutable n_deduped : int;
  mutable n_replayed : int;
  mutable n_migrated : int;
  n_jerrors : int Atomic.t;  (* atomic: appends also fail in workers *)
  mutable n_recovered : int;
  mutable n_rereplicated : int;
}

let logf_cfg cfg fmt =
  Printf.ksprintf
    (fun s ->
      match cfg.log with
      | None -> ()
      | Some oc ->
        output_string oc ("dfserve: " ^ s ^ "\n");
        flush oc)
    fmt

let logf t fmt = logf_cfg t.cfg fmt

let inet_of host =
  match Unix.inet_addr_of_string host with
  | ip -> ip
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

(* ---------------- the job lifecycle ---------------- *)

let wait_on job c ~id ~migrate =
  job.jwaiting <- { wc = c; wid = id; wmigrate = migrate } :: job.jwaiting;
  c.waiting <- c.waiting + 1

(* The one constructor; the owner, if any, is the job's first waiter. *)
let new_job ~owner ~engine ~idem ~verb ~request jwork =
  let job =
    { jc = Option.map fst owner;
      jid = (match owner with Some (_, id) -> id | None -> 0);
      jengine = engine;
      jidem = idem;
      jverb = verb;
      jcancel = Atomic.make false;
      jwithdrawn = false;
      jwaiting = [];
      jrequest = request;
      jwork }
  in
  Option.iter (fun (c, id) -> wait_on job c ~id ~migrate:false) owner;
  job

let owned_by c job = match job.jc with Some o -> o == c | None -> false

let enqueue t queue job =
  Queue.add job queue;
  t.queued <- t.queued + 1

(* The one way out for a queued job that leaves without running —
   cancelled, handed to a migrate caller, dumped by a spent drain budget
   or dropped with its connection: it stops counting as queued, becomes
   a carcass the dispatcher skips, and its key is forgotten (a journaled
   admission stays pending on disk for the next generation to replay).
   Its waiters are answered by {!withdraw}. *)
let unqueue t job =
  job.jwithdrawn <- true;
  t.queued <- t.queued - 1;
  Atomic.set job.jcancel true;
  Option.iter (Hashtbl.remove t.idem) job.jidem

let close_client t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.clients c.cid;
    t.rr <- List.filter (fun cid -> cid <> c.cid) t.rr;
    (* Queued jobs with an idempotency key were journaled as admitted —
       keep that promise: orphan them onto the replay queue so they
       complete (and their Done is recorded) even though nobody is left
       to tell.  A keyless queued job's only waiter was this connection;
       it leaves unrun. *)
    Queue.iter
      (fun j ->
        if not j.jwithdrawn then
          if j.jidem <> None then Queue.add j t.rqueue else unqueue t j)
      c.queue;
    Queue.clear c.queue;
    (* running keyless jobs are preempted so their workers free up;
       keyed ones run to completion for the journal and their twins *)
    List.iter
      (fun j ->
        if owned_by c j && j.jidem = None then Atomic.set j.jcancel true)
      t.inflight_jobs;
    logf t "client %d disconnected" c.cid
  end

(* Nonblocking buffered writes: send_json appends to the client's wbuf
   and pushes as much as the socket will take; the event loop watches
   writable fds to push the rest, and the write deadline reaps peers
   that stop reading. *)
let flush_client t c =
  if (not c.closed) && Buffer.length c.wbuf > 0 then begin
    let data = Buffer.contents c.wbuf in
    let len = String.length data in
    let rec push off =
      if off >= len then off
      else
        match Unix.write_substring c.fd data off (len - off) with
        | 0 -> off
        | n ->
          c.wstart <- Unix.gettimeofday ();
          push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> off
        | exception (Unix.Unix_error _ | Sys_error _) ->
          close_client t c;
          len
    in
    let off = push 0 in
    if not c.closed then begin
      Buffer.clear c.wbuf;
      if off < len then Buffer.add_substring c.wbuf data off (len - off)
    end
  end

let send_json t c json =
  if not c.closed then begin
    if Buffer.length c.wbuf = 0 then c.wstart <- Unix.gettimeofday ();
    J.to_buffer c.wbuf json;
    Buffer.add_char c.wbuf '\n';
    flush_client t c
  end

let request_field job =
  Option.to_list (Option.map (fun req -> ("request", req)) job.jrequest)

(* Every waiter hears the outcome once, in arrival order: [response]
   under its own request id, or for a migrate caller the migrate
   envelope — the [checkpoint] and the request to resume it from when
   the job was preempted, else the final [response].  Each answer
   settles one of its connection's [waiting]; a closed connection is
   skipped. *)
let answer t job ?checkpoint response =
  let waiters = List.rev job.jwaiting in
  job.jwaiting <- [];
  let migrated = ref false in
  List.iter
    (fun w ->
      if not w.wc.closed then begin
        w.wc.waiting <- w.wc.waiting - 1;
        send_json t w.wc
          (if not w.wmigrate then P.with_id w.wid response
           else
             P.ok ~id:w.wid ~verb:"migrate"
               (match checkpoint with
               | Some ck ->
                 migrated := true;
                 ("state", J.String "migrated") :: ("checkpoint", ck)
                 :: request_field job
               | None ->
                 [ ("state", J.String "done"); ("response", response) ]))
      end)
    waiters;
  if !migrated then t.n_migrated <- t.n_migrated + 1

let withdraw t job kind msg =
  unqueue t job;
  answer t job (P.error ~id:0 kind msg)

(* ---------------- admission and dispatch ---------------- *)

let compile_cached t program =
  let source, scalars = source_of_program program in
  let key = cache_key source scalars in
  match Lru.find t.cache key with
  | Some entry -> (key, entry, true)
  | None ->
    let _, compiled =
      Compiler.Driver.compile_source ~scalar_inputs:scalars source
    in
    let entry = { compiled; arena = Arena.build compiled.PC.cp_graph } in
    Lru.add t.cache key entry;
    (key, entry, false)

(* The worker-side body of one simulate job.  Graph-engine jobs go
   through Exec.Job.run itself — the served path IS the standalone
   path.  Machine jobs replicate Job.run's machine branch through the
   resumable engine, on the job's arena, so a cancel can preempt at a
   slice boundary; [progress] journals each slice's checkpoint,
   [restore] resumes a journal-replayed job from its last recorded
   checkpoint. *)
let make_work ~slice (job : Exec.Job.t) ~hit ~key ~progress ~restore =
 fun ~cancel ->
  try
    match job.Exec.Job.engine with
    | Exec.Job.Sim ->
      R_ok (P.outcome_fields ~cache_hit:hit ~key (Exec.Job.run job))
    | Exec.Job.Machine arch ->
      let graph = Exec.Job.graph job in
      let m =
        ME.create_arena job.Exec.Job.config ~arch (Exec.Job.arena job)
          ~inputs:job.Exec.Job.inputs
      in
      let start =
        match restore with
        | None -> slice
        | Some sn ->
          ME.restore m sn;
          sn.ME.sn_time + slice
      in
      let fingerprint = Recover.Checkpoint.fingerprint graph in
      let ckpt () =
        Recover.Checkpoint.to_json ~graph ~fingerprint (ME.snapshot m)
      in
      let rec go until =
        if Atomic.get cancel then R_preempted (ckpt ())
        else begin
          ME.advance m ~until;
          if ME.finished m then
            R_ok
              (P.outcome_fields ~cache_hit:hit ~key
                 (Exec.Outcome.of_machine ~name:job.Exec.Job.name
                    (ME.result m)))
          else begin
            (match progress with Some f -> f (ckpt ()) | None -> ());
            go (until + slice)
          end
        end
      in
      go start
  with e -> R_error (P.Run_error, Printexc.to_string e)

(* The sweep verb: one pool job runs the whole grid sequentially, so
   the served document is the exact byte sequence bin/sweep.exe would
   write for the same grid (to_json carries no timings). *)
let make_sweep_work ~cells =
 fun ~cancel ->
  try
    let rec go i acc = function
      | [] -> R_ok [ ("grid", Exec.Sweep.to_json (List.rev acc)) ]
      | cell :: rest ->
        if Atomic.get cancel then
          R_error (P.Cancelled, "cancelled mid-sweep")
        else
          let r =
            match Exec.Sweep.run_cell cell with
            | row -> Ok row
            | exception e ->
              Error
                { Exec.Pool.index = i;
                  message = Printexc.to_string e;
                  backtrace = Printexc.get_backtrace () }
          in
          go (i + 1) (r :: acc) rest
    in
    go 0 [] cells
  with e -> R_error (P.Run_error, Printexc.to_string e)

let notify t job result =
  Mutex.lock t.cmutex;
  Queue.add (job, result) t.completions;
  Mutex.unlock t.cmutex;
  (* a full pipe just means wakeups are already pending *)
  try ignore (Unix.write t.pipe_w (Bytes.of_string "!") 0 1)
  with Unix.Unix_error _ -> ()

let submit t job =
  t.in_flight <- t.in_flight + 1;
  t.inflight_jobs <- job :: t.inflight_jobs;
  ignore
    (Exec.Pool.submit t.pool (fun () ->
         let result = job.jwork ~cancel:job.jcancel in
         notify t job result))

(* Replayed/orphaned jobs first, then round-robin: rotate the client
   ring until a live, nonempty queue yields an unanswered job. *)
let next_job t =
  let rec hunt k =
    if k = 0 then None
    else
      match t.rr with
      | [] -> None
      | cid :: rest -> (
        t.rr <- rest @ [ cid ];
        match Hashtbl.find_opt t.clients cid with
        | None -> hunt (k - 1)
        | Some c ->
          let rec pop () =
            match Queue.take_opt c.queue with
            | None -> hunt (k - 1)
            | Some j when j.jwithdrawn -> pop ()
            | Some j -> Some j
          in
          pop ())
  in
  let rec replay () =
    match Queue.take_opt t.rqueue with
    | Some j when j.jwithdrawn -> replay ()
    | Some j -> Some j
    | None -> hunt (List.length t.rr)
  in
  replay ()

let rec dispatch t =
  if t.in_flight < t.cfg.workers && t.queued > 0 then
    match next_job t with
    | None -> ()
    | Some job ->
      t.queued <- t.queued - 1;
      submit t job;
      dispatch t

(* A journal the disk betrayed must not take admission down with it:
   the append failure is counted and logged, and the record still goes
   out to the replication quorum — local durability degrades, cluster
   durability holds (and either way the engine's determinism means an
   idempotent retry recomputes the identical answer). *)
let journal_append t entry =
  match t.journal with
  | None -> ()
  | Some jr -> (
    match Journal.append jr entry with
    | () -> ()
    | exception Journal.Disk_fault m ->
      Atomic.incr t.n_jerrors;
      logf t "journal: %s" m
    | exception Unix.Unix_error (e, fn, _) ->
      Atomic.incr t.n_jerrors;
      logf t "journal: %s: %s" fn (Unix.error_message e)
    | exception Sys_error m ->
      Atomic.incr t.n_jerrors;
      logf t "journal: %s" m)

let journal_and_replicate t entry =
  journal_append t entry;
  match t.replica with
  | None -> ()
  | Some rep -> ignore (Replica.replicate rep entry)

(* ---------------- the admission core ---------------- *)

let compile_error program = function
  | Not_found -> (
    match program with
    | P.Kernel { name; _ } -> Printf.sprintf "unknown kernel %S" name
    | P.Source _ -> "compile failed")
  | e -> Printexc.to_string e

(* Live simulate requests and journal replay admit a job through the
   same two steps, neither of which knows which caller it serves.
   [resolve] compiles through the cache, resolves the job and decodes
   [checkpoint] — the document the job would resume from — against the
   compiled graph; what an undecodable one means is the caller's call.
   [admit] journals each slice's checkpoint as the job runs, makes it
   its key's pending job and puts it on [queue]. *)
let resolve t (r : P.run) ~checkpoint =
  match compile_cached t r.P.program with
  | exception e -> Error (P.Compile_error, compile_error r.P.program e)
  | key, { compiled; arena }, hit -> (
    match job_of_run ~arena r compiled with
    | Error e -> Error (P.Bad_request, e)
    | Ok job ->
      let restore =
        match checkpoint with
        | None -> Ok None
        | Some _ when r.P.engine <> `Machine -> Error "machine engine only"
        | Some ck ->
          Result.map Option.some (Recover.Checkpoint.of_json ~arena ck)
      in
      Ok (make_work ~slice:t.cfg.slice job ~hit ~key, restore))

let admit t ~owner ~queue ~request (r : P.run) work ~restore =
  let progress =
    match (r.P.idem, t.journal) with
    | Some idem, Some _ ->
      Some
        (fun ck ->
          journal_and_replicate t (Journal.Progress { idem; checkpoint = ck }))
    | _ -> None
  in
  let job =
    new_job ~owner ~engine:r.P.engine ~idem:r.P.idem ~verb:"simulate"
      ~request:(Some request) (work ~progress ~restore)
  in
  Option.iter (fun k -> Hashtbl.replace t.idem k (I_pending job)) r.P.idem;
  enqueue t queue job

(* ---------------- verbs ---------------- *)

let stats_fields t =
  [ ("requests", J.Int t.n_requests);
    ("completed", J.Int t.n_completed);
    ("rejections", J.Int t.n_rejected);
    ("cancelled", J.Int t.n_cancelled);
    ("preempted", J.Int t.n_preempted);
    ("run_errors", J.Int t.n_errors);
    ("malformed", J.Int t.n_malformed);
    ("deadline_closes", J.Int t.n_deadline);
    ("deduped", J.Int t.n_deduped);
    ("replayed", J.Int t.n_replayed);
    ("migrations", J.Int t.n_migrated);
    ("cache_hits", J.Int (Lru.hits t.cache));
    ("cache_misses", J.Int (Lru.misses t.cache));
    ("cache_entries", J.Int (Lru.length t.cache));
    ("cache_evictions", J.Int (Lru.evictions t.cache));
    ("cache_capacity", J.Int (Lru.capacity t.cache));
    ("queue_depth", J.Int t.queued);
    ("in_flight", J.Int t.in_flight);
    ("workers", J.Int t.cfg.workers);
    ("clients", J.Int (Hashtbl.length t.clients));
    ("journal_errors", J.Int (Atomic.get t.n_jerrors));
    ("recovered_entries", J.Int t.n_recovered);
    ("rereplicated", J.Int t.n_rereplicated) ]
  @ match t.replica with Some rep -> Replica.stats_fields rep | None -> []

let handle_compile t c id program =
  match compile_cached t program with
  | exception e ->
    send_json t c (P.error ~id P.Compile_error (compile_error program e))
  | key, { compiled; _ }, hit ->
    send_json t c
      (P.ok ~id ~verb:"compile"
         [ ("key", J.Int key);
           ("cache_hit", J.Bool hit);
           ("cells", J.Int (Graph.node_count compiled.PC.cp_graph));
           ( "inputs",
             J.List
               (List.map (fun (n, _) -> J.String n) compiled.PC.cp_inputs) );
           ( "outputs",
             J.List
               (List.map (fun (n, _) -> J.String n) compiled.PC.cp_outputs) )
         ])

(* Shutdown and a full queue refuse new work before it is resolved;
   true when [id] has been answered with the refusal. *)
let refused t c id =
  let refuse kind msg =
    send_json t c (P.error ~id kind msg);
    true
  in
  if t.stopping then refuse P.Shutting_down "server shutting down"
  else if t.queued >= t.cfg.max_pending then begin
    t.n_rejected <- t.n_rejected + 1;
    refuse P.Overloaded
      (Printf.sprintf "%d jobs pending (max %d)" t.queued t.cfg.max_pending)
  end
  else false

let handle_simulate t c id (r : P.run) =
  match Option.bind r.P.idem (Hashtbl.find_opt t.idem) with
  | Some known -> (
    (* a retry of a request this server (or a predecessor, via the
       journal) already admitted: answer from the record, or ride the
       run still in flight — never run it twice *)
    t.n_deduped <- t.n_deduped + 1;
    match known with
    | I_done resp -> send_json t c (P.with_id id resp)
    | I_pending job -> wait_on job c ~id ~migrate:false)
  | None -> (
    if not (refused t c id) then
      (* a malformed run is rejected before it touches the cache *)
      match config_of_run r with
      | Error e -> send_json t c (P.error ~id P.Bad_request e)
      | Ok _ -> (
        (* a migrated-in job restores the shipped checkpoint and
           resumes the slice stream instead of starting over *)
        match resolve t r ~checkpoint:r.P.restore with
        | Error (kind, e) -> send_json t c (P.error ~id kind e)
        | Ok (_, Error e) ->
          send_json t c (P.error ~id P.Bad_request ("restore: " ^ e))
        | Ok (work, Ok restore) ->
          let request = P.request_to_json ~id:0 (P.Simulate r) in
          (* WAL discipline: the admission is durable — locally and,
             in a replicated cluster, on the quorum peers — before
             the job is queued *)
          Option.iter
            (fun idem ->
              journal_and_replicate t (Journal.Admit { idem; request }))
            r.P.idem;
          admit t ~owner:(Some (c, id)) ~queue:c.queue ~request r work
            ~restore;
          dispatch t))

let handle_sweep t c id (s : P.sweep) =
  if not (refused t c id) then
    let kernels =
      match s.P.sw_kernels with
      | None -> Ok K.all
      | Some names ->
        let rec lookup acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> (
            match K.find n with
            | k -> lookup (k :: acc) rest
            | exception Not_found ->
              Error
                (Printf.sprintf "unknown kernel %S (have: %s)" n
                   (String.concat ", "
                      (List.map (fun k -> k.K.name) K.all))))
        in
        lookup [] names
    in
    match kernels with
    | Error e -> send_json t c (P.error ~id P.Bad_request e)
    | Ok kernels ->
      let cells =
        Exec.Sweep.grid ~kernels ~pes:s.P.sw_pes ~waves:s.P.sw_waves
          ~size:s.P.sw_size
      in
      enqueue t c.queue
        (new_job ~owner:(Some (c, id)) ~engine:`Sim ~idem:None ~verb:"sweep"
           ~request:None (make_sweep_work ~cells));
      dispatch t

let handle_cancel t c id target =
  let state =
    (* still queued on this connection? *)
    let queued =
      Queue.fold
        (fun found j ->
          if j.jid = target && not j.jwithdrawn then Some j else found)
        None c.queue
    in
    match queued with
    | Some j ->
      t.n_cancelled <- t.n_cancelled + 1;
      withdraw t j P.Cancelled "cancelled while queued";
      "cancelled"
    | None -> (
      match
        List.find_opt (fun j -> owned_by c j && j.jid = target) t.inflight_jobs
      with
      | Some j ->
        Atomic.set j.jcancel true;
        (match j.jengine with
        | `Machine -> "preempting"  (* checkpoint arrives with its response *)
        | `Sim -> "running")  (* graph engine runs are not preemptible *)
      | None -> "not_found")
  in
  send_json t c (P.ok ~id ~verb:"cancel" [ ("state", J.String state) ])

(* Live migration: checkpoint the job admitted under [idem] and hand
   its request + checkpoint to the caller, who resubmits them (as a
   simulate with [restore]) to another server.  The journal admission
   stays pending here — if this server crashes anyway, its restart
   re-runs the job, and deterministic recomputation means both paths
   produce the same bytes, so exactly-once semantics degrade to
   at-least-once execution with identical answers, never to two
   different answers. *)
let handle_migrate t c id idem =
  let reply state extra =
    send_json t c (P.ok ~id ~verb:"migrate" (("state", J.String state) :: extra))
  in
  match Hashtbl.find_opt t.idem idem with
  | None -> reply "not_found" []
  | Some (I_done resp) -> reply "done" [ ("response", resp) ]
  | Some (I_pending job) ->
    if List.memq job t.inflight_jobs then (
      match job.jengine with
      | `Sim ->
        (* graph jobs are not sliced; they run to completion here *)
        reply "running" []
      | `Machine ->
        (* preempt at the next slice boundary; deliver answers every
           migrate caller when the checkpoint arrives *)
        wait_on job c ~id ~migrate:true;
        Atomic.set job.jcancel true)
    else begin
      (* still queued: it never ran here, so just hand the request back *)
      t.n_cancelled <- t.n_cancelled + 1;
      withdraw t job P.Cancelled "migrated while queued";
      reply "queued" (request_field job)
    end

(* ---------------- shutdown ---------------- *)

(* Load shedding, not load dropping: shutdown stops admitting but
   drains what was admitted; only after [drain_timeout] does it dump
   the queue and preempt the stragglers. *)
let initiate_shutdown t =
  if not t.stopping then begin
    t.stopping <- true;
    t.drain_deadline <- Some (Unix.gettimeofday () +. t.cfg.drain_timeout);
    logf t "shutdown: draining %d queued, %d in flight (%.0fs budget)"
      t.queued t.in_flight t.cfg.drain_timeout
  end

let force_drain t =
  if not t.forced then begin
    t.forced <- true;
    logf t "drain budget spent: dumping %d queued, preempting %d in flight"
      t.queued t.in_flight;
    (* dumped journaled admissions stay pending on disk: the next
       server generation replays them *)
    let dump queue =
      Queue.iter
        (fun j ->
          if not j.jwithdrawn then
            withdraw t j P.Shutting_down "server shutting down")
        queue;
      Queue.clear queue
    in
    Hashtbl.iter (fun _ c -> dump c.queue) t.clients;
    dump t.rqueue;
    List.iter (fun j -> Atomic.set j.jcancel true) t.inflight_jobs
  end

(* ---------------- completions ---------------- *)

let deliver t (job, result) =
  t.in_flight <- t.in_flight - 1;
  t.inflight_jobs <- List.filter (fun j -> j != job) t.inflight_jobs;
  let response =
    match result with
    | R_ok fields ->
      t.n_completed <- t.n_completed + 1;
      P.ok ~id:0 ~verb:job.jverb fields
    | R_preempted checkpoint ->
      t.n_preempted <- t.n_preempted + 1;
      P.error ~id:0 P.Cancelled "preempted at slice boundary"
        ~extra:[ ("checkpoint", checkpoint) ]
    | R_error (kind, msg) ->
      t.n_errors <- t.n_errors + 1;
      P.error ~id:0 kind msg
  in
  (* exactly-once: the outcome is durable and replayable before any
     byte of it leaves the process *)
  (match job.jidem with
  | Some idem -> (
    match result with
    | R_ok fields ->
      let digest =
        match List.assoc_opt "digest" fields with
        | Some (J.Int d) -> Some d
        | _ -> None
      in
      journal_and_replicate t (Journal.Done { idem; response; digest });
      Hashtbl.replace t.idem idem (I_done response)
    | R_error _ ->
      journal_and_replicate t (Journal.Done { idem; response; digest = None });
      Hashtbl.replace t.idem idem (I_done response)
    | R_preempted _ ->
      (* not a final answer: leave the admission pending so a retry —
         or the next server generation — runs it again *)
      Hashtbl.remove t.idem idem)
  | None -> ());
  (* a preemption checkpoint means the job is leaving, so migrate
     callers get the checkpoint; a final result won the race, and the
     answer itself travels *)
  let checkpoint =
    match result with R_preempted ck -> Some ck | R_ok _ | R_error _ -> None
  in
  answer t job ?checkpoint response

(* ---------------- replication verbs ---------------- *)

let not_replicated t c id =
  send_json t c (P.error ~id P.Replica_error "not a replicated cluster member")

let handle_replicate t c id ~origin entry =
  match t.replica with
  | None -> not_replicated t c id
  | Some rep -> (
    match Journal.entry_of_json entry with
    | Error e -> send_json t c (P.error ~id P.Replica_error ("bad entry: " ^ e))
    | Ok e -> (
      match Replica.store rep ~origin e with
      | Ok () ->
        send_json t c (P.ok ~id ~verb:"replicate" [ ("stored", J.Bool true) ])
      | Error m -> send_json t c (P.error ~id P.Replica_error m)))

let handle_recover t c id ~origin =
  match t.replica with
  | None -> not_replicated t c id
  | Some rep ->
    let entries = Replica.fetch_origin rep ~origin in
    logf t "recover: serving %d entries for %s" (List.length entries) origin;
    send_json t c
      (P.ok ~id ~verb:"recover"
         [ ("origin", J.String origin);
           ("entries", J.List (List.map Journal.entry_to_json entries)) ])

let handle_members t c id =
  match t.replica with
  | None -> not_replicated t c id
  | Some rep ->
    send_json t c (P.ok ~id ~verb:"members" (Replica.members_fields rep))

let drain_completions t =
  (* clear the wakeup byte(s) first so no notification is lost *)
  let buf = Bytes.create 64 in
  (try ignore (Unix.read t.pipe_r buf 0 64) with Unix.Unix_error _ -> ());
  let batch = Queue.create () in
  Mutex.lock t.cmutex;
  Queue.transfer t.completions batch;
  Mutex.unlock t.cmutex;
  Queue.iter (deliver t) batch;
  dispatch t

(* ---------------- journal replay ---------------- *)

let replay_recovered t (rcv : Journal.recovered) =
  List.iter
    (fun (idem, resp) -> Hashtbl.replace t.idem idem (I_done resp))
    rcv.Journal.completed;
  List.iter
    (fun (p : Journal.pending) ->
      let idem = p.Journal.p_idem in
      let skip msg = logf t "journal: dropping pending %S: %s" idem msg in
      match P.request_of_json p.Journal.p_request with
      | Error e -> skip e
      | exception e -> skip (Printexc.to_string e)
      | Ok (_, P.Simulate r) -> (
        (* resume from the newest checkpoint held: the last journaled
           slice, else the one a migrated-in request shipped with *)
        let checkpoint =
          match (r.P.engine, p.Journal.p_checkpoint) with
          | `Machine, Some ck -> Some ck
          | `Machine, None -> r.P.restore
          | `Sim, _ -> None
        in
        match resolve t r ~checkpoint with
        | Error (_, e) -> skip e
        | Ok (work, decoded) ->
          let restore, request =
            match (decoded, checkpoint, p.Journal.p_request) with
            | Ok (Some sn), Some ck, J.Obj fields ->
              (* if this job is migrated away before it runs, the
                 request handed over carries the furthest checkpoint we
                 hold, so the target resumes instead of recomputing *)
              ( Some sn,
                J.Obj
                  (("restore", ck)
                  :: List.filter (fun (k, _) -> k <> "restore") fields) )
            | Ok restore, _, request -> (restore, request)
            | Error e, _, request ->
              logf t "journal: %S checkpoint rejected (%s); rerunning" idem e;
              (None, request)
          in
          admit t ~owner:None ~queue:t.rqueue ~request
            { r with P.idem = Some idem }
            work ~restore;
          t.n_replayed <- t.n_replayed + 1)
      | Ok _ -> skip "not a simulate request")
    rcv.Journal.pending

(* ---------------- creation ---------------- *)

(* The server on its bound listeners: the replica set, the journal
   (replayed, and rebuilt from peers when lost), the worker pool. *)
let open_bound cfg ~cluster_members ~cluster_file ~fsync ~unix_fd ~tcp_fd =
  let replica =
    match (cluster_members, cfg.self_addr) with
    | Some members, Some self ->
      Some
        (Replica.create ~self ~replicas:cfg.replicas
           ?journal_path:cfg.journal_path ~fsync members)
    | _ -> None
  in
  let journal, recovered, fetched_entries =
    match cfg.journal_path with
    | None -> (None, { Journal.completed = []; pending = [] }, 0)
    | Some path ->
      let existed = Sys.file_exists path in
      let local, damage = Journal.replay_verified path in
      (* a missing or damaged journal on a cluster member is the
         disk-loss case: rebuild from whatever the peers hold for us
         before opening for append.  (A fresh first boot looks the
         same — the peers just hold nothing yet.) *)
      let fetched =
        match replica with
        | Some rep when (not existed) || damage <> Journal.Intact ->
          let entries, responders = Replica.recover_from_peers rep in
          (match damage with
          | Journal.Damaged { valid; size } ->
            logf_cfg cfg
              "journal: damaged (%d/%d bytes intact); %d entries from %d peers"
              valid size (List.length entries) responders
          | Journal.Intact ->
            logf_cfg cfg "journal: absent; %d entries from %d peers"
              (List.length entries) responders);
          entries
        | _ -> []
      in
      (* rewrite when recovery fetched anything or the tail was
         damaged: the fold collapses local/replica duplicates, and the
         atomic rewrite sheds the refused tail so the coming appends
         land on a clean frame boundary *)
      if fetched <> [] || damage <> Journal.Intact then
        Journal.write_atomic ~path
          (Journal.entries_of_recovered (Journal.fold (local @ fetched)));
      (* with a retention window, restart is also when the log is
         rewritten: old done records fall out, pending admissions and
         the newest responses survive *)
      let recovered =
        match cfg.journal_retain with
        | Some retain ->
          (match replica with
          | Some rep -> Replica.compact_segments rep ~retain
          | None -> ());
          Journal.compact ~path ~retain
        | None -> Journal.fold (Journal.replay path)
      in
      ( Some (Journal.open_append ~fsync ?diskfault:cfg.diskfault path),
        recovered,
        List.length fetched )
  in
  let pipe_r, pipe_w = Unix.pipe () in
  let t =
    { cfg;
      listen_fds = (unix_fd :: Option.to_list tcp_fd);
      tcp_fd;
      pipe_r;
      pipe_w;
      pool = Exec.Pool.create ~workers:cfg.workers ();
      cache = Lru.create ~capacity:cfg.cache_capacity;
      journal;
      replica;
      cluster_file;
      reload = Atomic.make false;
      idem = Hashtbl.create 64;
      rqueue = Queue.create ();
      clients = Hashtbl.create 16;
      rr = [];
      next_cid = 1;
      completions = Queue.create ();
      cmutex = Mutex.create ();
      queued = 0;
      in_flight = 0;
      inflight_jobs = [];
      stopping = false;
      drain_deadline = None;
      forced = false;
      n_requests = 0;
      n_completed = 0;
      n_rejected = 0;
      n_cancelled = 0;
      n_preempted = 0;
      n_errors = 0;
      n_malformed = 0;
      n_deadline = 0;
      n_deduped = 0;
      n_replayed = 0;
      n_migrated = 0;
      n_jerrors = Atomic.make 0;
      n_recovered = fetched_entries;
      n_rereplicated = 0 }
  in
  (match (recovered.Journal.completed, recovered.Journal.pending) with
  | [], [] -> ()
  | c, p ->
    logf t "journal: %d completed, %d pending to replay" (List.length c)
      (List.length p));
  replay_recovered t recovered;
  t

let create cfg =
  if cfg.workers < 1 then invalid_arg "Server.create: workers < 1";
  if cfg.max_pending < 1 then invalid_arg "Server.create: max_pending < 1";
  if cfg.slice < 1 then invalid_arg "Server.create: slice < 1";
  if cfg.max_line < 2 then invalid_arg "Server.create: max_line < 2";
  if cfg.write_timeout <= 0.0 then
    invalid_arg "Server.create: write_timeout <= 0";
  if cfg.drain_timeout <= 0.0 then
    invalid_arg "Server.create: drain_timeout <= 0";
  (match cfg.idle_timeout with
  | Some i when i <= 0.0 -> invalid_arg "Server.create: idle_timeout <= 0"
  | _ -> ());
  if cfg.replicas < 1 then invalid_arg "Server.create: replicas < 1";
  (match cfg.journal_retain with
  | Some r when r < 0 -> invalid_arg "Server.create: journal_retain < 0"
  | _ -> ());
  (* cluster membership: a member must know its own listen address
     (rendezvous placement keys on it) and must keep a journal (it
     holds peers' replica segments next to its own WAL) *)
  let cluster_members, cluster_file =
    match cfg.cluster with
    | None -> (None, None)
    | Some spec -> (
      let file =
        if String.length spec > 1 && spec.[0] = '@' then
          Some (String.sub spec 1 (String.length spec - 1))
        else None
      in
      match Runspec.members_of_string spec with
      | Ok ms -> (Some ms, file)
      | Error e -> invalid_arg ("Server.create: cluster: " ^ e))
  in
  (match cluster_members with
  | Some _ when cfg.self_addr = None ->
    invalid_arg "Server.create: a cluster member needs its self address"
  | Some _ when cfg.journal_path = None ->
    invalid_arg "Server.create: a cluster member needs a journal"
  | _ -> ());
  (* replicated members default to synced appends: an acknowledged
     record should survive power loss, not just SIGKILL *)
  let fsync =
    match cfg.fsync with Some b -> b | None -> cluster_members <> None
  in
  let unix_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (* from the bind on, a step that fails closes every listener opened so
     far and removes the socket file *)
  let listeners = ref [ unix_fd ] in
  try
    Unix.bind unix_fd (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen unix_fd 64;
    let tcp_fd =
      match cfg.tcp with
      | None -> None
      | Some (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        listeners := fd :: !listeners;
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (inet_of host, port));
        Unix.listen fd 64;
        Some fd
    in
    open_bound cfg ~cluster_members ~cluster_file ~fsync ~unix_fd ~tcp_fd
  with e ->
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      !listeners;
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    raise e

let tcp_port t =
  match t.tcp_fd with
  | None -> None
  | Some fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> Some port
    | _ -> None)

(* ---------------- the event loop ---------------- *)

let reject_malformed t c msg =
  t.n_malformed <- t.n_malformed + 1;
  logf t "client %d: malformed: %s" c.cid msg;
  send_json t c (P.error ~id:(-1) P.Malformed msg);
  close_client t c

let handle_line t c line =
  let line = String.trim line in
  if line <> "" then begin
    t.n_requests <- t.n_requests + 1;
    match J.of_string line with
    | exception J.Parse_error msg ->
      (* garbage on an otherwise healthy connection: structured error,
         connection stays up (a framing-level overflow closes instead) *)
      t.n_malformed <- t.n_malformed + 1;
      send_json t c (P.error ~id:(-1) P.Malformed msg)
    | doc -> (
      match P.request_of_json doc with
      | Error msg ->
        let id = Option.value ~default:(-1) (P.response_id doc) in
        let kind =
          (* a verb outside the protocol table is its own kind, so
             scripts can tell "wrong server/version" from "bad field" *)
          if String.length msg >= 12 && String.sub msg 0 12 = "unknown verb"
          then P.Unknown_verb
          else P.Bad_request
        in
        send_json t c (P.error ~id kind msg)
      | Ok (id, req) -> (
        match req with
        | P.Stats -> send_json t c (P.ok ~id ~verb:"stats" (stats_fields t))
        | P.Shutdown ->
          send_json t c (P.ok ~id ~verb:"shutdown" []);
          initiate_shutdown t
        | P.Cancel target -> handle_cancel t c id target
        | P.Migrate idem -> handle_migrate t c id idem
        (* replication traffic is control-plane: accepted even while
           stopping, so a draining peer keeps honoring the quorum *)
        | P.Replicate { origin; entry } -> handle_replicate t c id ~origin entry
        | P.Recover { origin } -> handle_recover t c id ~origin
        | P.Members -> handle_members t c id
        | P.Simulate r -> handle_simulate t c id r
        | P.Sweep s -> handle_sweep t c id s
        | P.Compile program ->
          if t.stopping then
            send_json t c
              (P.error ~id P.Shutting_down "server shutting down")
          else handle_compile t c id program))
  end

let handle_readable t c =
  match Line_reader.read c.lines c.fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_client t c
  | 0 -> close_client t c
  | _ ->
    c.last_read <- Unix.gettimeofday ();
    let rec consume () =
      match Line_reader.next c.lines with
      | None -> ()
      | Some line ->
        handle_line t c line;
        if not c.closed then consume ()
      | exception Line_reader.Too_long ->
        reject_malformed t c
          (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_line)
    in
    consume ()

let accept_client t lfd =
  match
    let fd, _ = Unix.accept lfd in
    Unix.set_nonblock fd;
    fd
  with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    let now = Unix.gettimeofday () in
    let c =
      { fd;
        cid;
        lines = Line_reader.create ~max_line:t.cfg.max_line ();
        wbuf = Buffer.create 256;
        wstart = now;
        last_read = now;
        queue = Queue.create ();
        waiting = 0;
        closed = false }
    in
    Hashtbl.add t.clients cid c;
    t.rr <- t.rr @ [ cid ];
    logf t "client %d connected" cid

let client_busy (c : client) = Queue.length c.queue > 0 || c.waiting > 0

(* Reap connections that blew a deadline: idle peers holding no work
   (slowloris protection) and peers that stopped reading their
   responses.  Other clients never notice. *)
let sweep_deadlines t now =
  let idle_victims = ref [] in
  let write_victims = ref [] in
  Hashtbl.iter
    (fun _ c ->
      if not c.closed then
        if
          Buffer.length c.wbuf > 0
          && now -. c.wstart > t.cfg.write_timeout
        then write_victims := c :: !write_victims
        else
          match t.cfg.idle_timeout with
          | Some idle
            when (not (client_busy c))
                 && Buffer.length c.wbuf = 0
                 && now -. c.last_read > idle ->
            idle_victims := c :: !idle_victims
          | _ -> ())
    t.clients;
  List.iter
    (fun c ->
      t.n_deadline <- t.n_deadline + 1;
      logf t "client %d: write stalled > %.1fs; closing" c.cid
        t.cfg.write_timeout;
      close_client t c)
    !write_victims;
  List.iter
    (fun c ->
      t.n_deadline <- t.n_deadline + 1;
      send_json t c (P.error ~id:(-1) P.Deadline "idle past deadline");
      close_client t c)
    !idle_victims

let select_timeout t now =
  let nearest = ref infinity in
  let note x = if x < !nearest then nearest := x in
  (match t.cfg.idle_timeout with
  | Some idle ->
    Hashtbl.iter
      (fun _ c ->
        if (not c.closed) && (not (client_busy c)) && Buffer.length c.wbuf = 0
        then note (c.last_read +. idle -. now))
      t.clients
  | None -> ());
  Hashtbl.iter
    (fun _ c ->
      if (not c.closed) && Buffer.length c.wbuf > 0 then
        note (c.wstart +. t.cfg.write_timeout -. now))
    t.clients;
  (match t.drain_deadline with
  | Some d when not t.forced -> note (d -. now)
  | _ -> ());
  if !nearest = infinity then -1.0 else Float.max 0.02 !nearest

(* ---------------- membership reload (SIGHUP) ---------------- *)

let request_reload t =
  Atomic.set t.reload true;
  (* wake the select; the loop drains the byte like any completion *)
  try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* After a membership change the rendezvous targets may have moved:
   push the whole live idempotency table (recorded responses + pending
   admissions) at the new target set.  Entries the old targets already
   hold get duplicated on the wire and collapse in the fold — cheap
   insurance against under-replication, not a consistency hazard. *)
let re_replicate t rep =
  let entries =
    Hashtbl.fold
      (fun idem st acc ->
        match st with
        | I_done response ->
          Journal.Done
            { idem; response; digest = J.get_int (J.member "digest" response) }
          :: acc
        | I_pending job -> (
          match job.jrequest with
          | Some request -> Journal.Admit { idem; request } :: acc
          | None -> acc))
      t.idem []
  in
  if entries <> [] then begin
    List.iter
      (fun target ->
        if not (Replica.push_to rep ~target entries) then
          logf t "reload: re-replication to %s incomplete" target)
      (Replica.targets rep);
    t.n_rereplicated <- t.n_rereplicated + List.length entries
  end

let do_reload t =
  match (t.replica, t.cluster_file) with
  | Some rep, Some file -> (
    match Runspec.members_of_string ("@" ^ file) with
    | Error e -> logf t "reload: %s; keeping old membership" e
    | Ok members ->
      if not (List.mem (Replica.self rep) members) then
        logf t "reload: self %s missing from %s; keeping old membership"
          (Replica.self rep) file
      else begin
        let joined, left = Replica.set_members rep members in
        if joined = [] && left = [] then logf t "reload: membership unchanged"
        else begin
          logf t "reload: %d members (joined: %s; left: %s)"
            (List.length members)
            (String.concat "," joined) (String.concat "," left);
          re_replicate t rep
        end
      end)
  | Some _, None -> logf t "reload: static member list (not @FILE); ignored"
  | _ -> logf t "reload: not a replicated cluster member; ignored"

let serve t =
  logf t
    "listening on %s%s (%d workers, max_pending %d, cache %d, slice %d%s)"
    t.cfg.socket_path
    (match tcp_port t with
    | Some p -> Printf.sprintf " and tcp port %d" p
    | None -> "")
    t.cfg.workers t.cfg.max_pending (Lru.capacity t.cache) t.cfg.slice
    (match t.cfg.journal_path with
    | Some p -> ", journal " ^ p
    | None -> "");
  if not (Queue.is_empty t.rqueue) then dispatch t;
  (* the last answers — a preempted job's checkpoint can run to
     megabytes — leave before the sockets close; a peer that stops
     reading is reaped by the write timeout *)
  let writing () =
    Hashtbl.fold (fun _ c w -> w || Buffer.length c.wbuf > 0) t.clients false
  in
  let finished () =
    t.stopping && t.in_flight = 0 && t.queued = 0 && not (writing ())
  in
  while not (finished ()) do
    if Atomic.exchange t.reload false then do_reload t;
    let now = Unix.gettimeofday () in
    sweep_deadlines t now;
    (match t.drain_deadline with
    | Some d when (not t.forced) && now >= d -> force_drain t
    | _ -> ());
    if not (finished ()) then begin
      let rs = ref [ t.pipe_r ] in
      if not t.stopping then rs := t.listen_fds @ !rs;
      let ws = ref [] in
      Hashtbl.iter
        (fun _ c ->
          if not c.closed then begin
            rs := c.fd :: !rs;
            if Buffer.length c.wbuf > 0 then ws := c.fd :: !ws
          end)
        t.clients;
      match Unix.select !rs !ws [] (select_timeout t now) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        List.iter
          (fun fd ->
            Hashtbl.iter
              (fun _ c -> if c.fd = fd && not c.closed then flush_client t c)
              t.clients)
          writable;
        List.iter
          (fun fd ->
            if fd = t.pipe_r then drain_completions t
            else if List.mem fd t.listen_fds then begin
              if not t.stopping then accept_client t fd
            end
            else
              (* the client set may have changed within this batch *)
              Hashtbl.iter
                (fun _ c ->
                  if c.fd = fd && not c.closed then handle_readable t c)
                t.clients)
          readable
    end
  done;
  logf t "drained; closing";
  Hashtbl.iter
    (fun _ c ->
      flush_client t c;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  Hashtbl.reset t.clients;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listen_fds;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Exec.Pool.shutdown t.pool;
  (match t.journal with Some jr -> Journal.close jr | None -> ());
  (match t.replica with Some rep -> Replica.close rep | None -> ());
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  logf t "stopped after %d requests (%d completed, %d rejected)"
    t.n_requests t.n_completed t.n_rejected

let run cfg = serve (create cfg)
