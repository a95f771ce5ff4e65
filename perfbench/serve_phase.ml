(* The service: an in-process dfserve (2 workers, journal on, no
   cluster) driven by one closed-loop client connection, so at most one
   request is in flight except where a hit is pipelined behind a miss.

   - read phase: cached kernel Simulate hits on the graph engine;
   - write phase: idempotency-keyed machine-engine jobs (journal Admit,
     per-slice Progress checkpoints, Done) interleaved with fresh
     generated-source misses, each miss with one cached hit pipelined
     right behind it on the same connection (the hit waits for the
     miss's compile, which runs on the server's event loop).

   Every class is its own latency population.  Served digests are
   checked against standalone [Exec.Job] runs of
   [Server.subject_of_program], outside the timed region.  A traced run
   replays each request's server-side work through the same public calls
   and attributes its round trip to layers; what the replay does not
   cover (event loop, queueing, wire) is the class's wait. *)

open Dfg
module J = Obs.Json
module P = Serve.Protocol
module S = Serve.Server
module C = Serve.Client
module K = Kernels
module ME = Machine.Machine_engine

type cls = Hit | Durable | Miss | Hol

let cls_name = function
  | Hit -> "hit"
  | Durable -> "durable"
  | Miss -> "miss"
  | Hol -> "hol"

let hit_size = 16
let keyed_waves = 48

(* What the client keeps of a response: whether it was ok, its digest,
   and the response itself only when it failed. *)
type answer = Answer of int option | Failed of string

let answer resp =
  if P.response_ok resp then Answer (J.get_int (J.member "digest" resp))
  else Failed (J.to_string resp)

type sample = {
  cls : cls;
  run : P.run;
  id : int;
  sent : float;
  recv : float;
  answer : answer;
}

let hit_programs =
  List.map (fun (k : K.kernel) -> P.Kernel { name = k.K.name; size = hit_size }) K.all

let hit_run program = P.default_run program
let hol_program = P.Kernel { name = "hydro"; size = hit_size }

(* One kernel for every keyed job, so the class is one population. *)
let keyed_run ~seed j =
  { (P.default_run (P.Kernel { name = "state_eos"; size = hit_size })) with
    P.engine = `Machine;
    waves = keyed_waves;
    idem = Some (Printf.sprintf "perfbench-%d-%d" seed j) }

(* Fresh 8-block sources, a different program per index and seed, so
   each one misses the compiled-program cache. *)
let miss_blocks = 8

let miss_run ~seed j =
  let source = Gen.program ~seed:(seed + 7919) ~index:j ~blocks:miss_blocks in
  P.default_run (P.Source { source; scalars = []; input_seed = seed + j })

(* ---------------- standalone reference ---------------- *)

(* A request's identity for the reference run: everything but its id
   and idempotency key. *)
let run_key (r : P.run) =
  J.to_string (P.request_to_json ~id:0 (P.Simulate { r with P.idem = None }))

type subject = {
  graph : Graph.t;
  inputs : (string * Value.t list) list;
  name : string;
  cfg : Run_config.t;
  arch : Machine.Arch.t;
}

let subject_of (r : P.run) =
  match (S.subject_of_program r.P.program ~waves:r.P.waves, S.config_of_run r) with
  | Ok (graph, inputs, name), Ok (cfg, arch) -> Ok { graph; inputs; name; cfg; arch }
  | Error e, _ | _, Error e -> Error e

let job_of sj (r : P.run) =
  Exec.Job.make ~name:sj.name
    ~engine:
      (match r.P.engine with `Sim -> Exec.Job.Sim | `Machine -> Exec.Job.Machine sj.arch)
    ~config:sj.cfg (Exec.Job.Graph_program sj.graph) ~inputs:sj.inputs

let served_digest x = match x.answer with Answer d -> d | Failed _ -> None

(* The standalone digest of a request, computed once per [run_key]. *)
let references : (string, (int, string) result) Hashtbl.t = Hashtbl.create 64

let reference (r : P.run) =
  let key = run_key r in
  match Hashtbl.find_opt references key with
  | Some d -> d
  | None ->
    let d =
      match subject_of r with
      | Ok sj -> Ok (Exec.Outcome.digest (Exec.Job.run (job_of sj r)))
      | Error e -> Error e
    in
    Hashtbl.replace references key d;
    d

(* The digest gate on one response, which counts it in its class; a
   refused or errored response is a failed operation. *)
let check_one ~want x =
  Report.count (cls_name x.cls) ~attempted:1 ~failed:0;
  let fail = Report.gate_fail (cls_name x.cls) "%s request %d: %s" (cls_name x.cls) x.id in
  match (x.answer, want) with
  | Failed resp, _ -> fail resp
  | Answer (Some got), Ok d when got = d -> ()
  | Answer _, Ok _ -> fail "served digest != standalone digest"
  | Answer _, Error e -> fail ("no standalone reference: " ^ e)

let check samples = List.iter (fun x -> check_one ~want:(reference x.run) x) samples

type server = {
  domain : unit Domain.t;
  conn : C.t;
  socket : string;
  journal : string;
}

let remove path = try Sys.remove path with Sys_error _ -> ()

let start ~dir =
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let journal = Filename.concat dir "journal.wal" in
  remove journal;
  let config =
    { (S.default_config ~socket_path:socket) with
      S.workers = 2;
      max_pending = 4096;
      idle_timeout = None;
      journal_path = Some journal }
  in
  let server = S.create config in
  let domain = Domain.spawn (fun () -> S.serve server) in
  { domain; conn = C.connect socket; socket; journal }

let stop s =
  (try ignore (C.rpc s.conn P.Shutdown) with _ -> ());
  C.close s.conn;
  Domain.join s.domain;
  remove s.journal;
  remove s.socket

(* Start and warm: every hit program compiled into the cache. *)
let setup ~dir =
  let s = start ~dir in
  List.iter (fun p -> ignore (C.rpc s.conn (P.Simulate (hit_run p)))) hit_programs;
  s

let exchange s cls run =
  let sent = Span.now () in
  let id = C.send s.conn (P.Simulate run) in
  let resp = C.await s.conn id in
  let recv = Span.now () in
  { cls; run; id; sent; recv; answer = answer resp }

let rtt_ms x = 1000. *. (x.recv -. x.sent)

let warmup_hits = 200

(* Read-phase latencies, summarised as they arrive: each window of
   [hit_window] consecutive hits gives its p50 and p99 when it fills (the
   metric is the median over windows, as in Stats.windowed), so what the
   benchmark keeps does not grow with the hit rate.  A window keeps its
   start and end, for the host factor of its stretch of the phase.  A
   traced run also keeps its hits, for the replay. *)
let hit_window = 1000
let min_hits = hit_window

type reads = {
  window : Float.Array.t;
  mutable fill : int;
  mutable start : float;
  mutable windows : (float * float * float * float) list;  (* start, end, p50, p99 *)
  mutable kept : sample list;
}

let reads () =
  { window = Float.Array.make hit_window 0.; fill = 0; start = 0.; windows = []; kept = [] }

(* Untimed warm-up hits first, so the heaps have grown to their working
   size; then timed hits in whole windows, at least [min_hits], until
   the budget is spent.  Every response is checked as it arrives,
   outside its round trip. *)
let read_phase s acc ~budget ~calib =
  let programs = Array.of_list hit_programs in
  let want = Array.map (fun p -> reference (hit_run p)) programs in
  let hit n =
    let k = n mod Array.length programs in
    let x = exchange s Hit (hit_run programs.(k)) in
    check_one ~want:want.(k) x;
    x
  in
  for n = 1 to warmup_hits do
    ignore (hit n)
  done;
  let t_start = Span.now () and n = ref 0 in
  while !n < min_hits || acc.fill > 0 || Span.now () -. t_start < budget do
    Calib.maybe calib;
    if acc.fill = 0 then acc.start <- Span.now ();
    let x = hit !n in
    incr n;
    if !Span.enabled then acc.kept <- x :: acc.kept;
    Float.Array.set acc.window acc.fill (rtt_ms x);
    acc.fill <- acc.fill + 1;
    if acc.fill = hit_window then begin
      let w = Float.Array.to_list acc.window and stop = Span.now () in
      let p50 = Stats.percentile 50. w in
      Span.sample "hit_p50_window" stop p50;
      acc.windows <- (acc.start, stop, p50, Stats.percentile 99. w) :: acc.windows;
      acc.fill <- 0
    end
  done

(* The miss and the hit behind it answer in either order; each is
   stamped when its own response line arrives. *)
let pipelined s ~miss ~hit =
  let t_miss = Span.now () in
  let mid = C.send s.conn (P.Simulate miss) in
  let t_hit = Span.now () in
  let hid = C.send s.conn (P.Simulate hit) in
  let got = Hashtbl.create 2 in
  while Hashtbl.length got < 2 do
    let r = C.recv s.conn in
    match P.response_id r with
    | Some id when id = mid || id = hid -> Hashtbl.replace got id (r, Span.now ())
    | _ -> ()
  done;
  let mr, mt = Hashtbl.find got mid and hr, ht = Hashtbl.find got hid in
  [ { cls = Miss; run = miss; id = mid; sent = t_miss; recv = mt; answer = answer mr };
    { cls = Hol; run = hit; id = hid; sent = t_hit; recv = ht; answer = answer hr } ]

let warmup_writes = 2

(* Request indices [first ..] of this round; warm-up requests take
   negative indices, so every key and source is fresh. *)
let write_phase s ~seed ~first ~keyed ~misses ~calib =
  let warm =
    List.concat
      (List.init warmup_writes (fun j ->
           let j = -1 - j - first in
           let durable = exchange s Durable (keyed_run ~seed j) in
           durable :: pipelined s ~miss:(miss_run ~seed j) ~hit:(hit_run hol_program)))
  in
  let timed =
    List.concat
      (List.init (max keyed misses) (fun k ->
           let j = first + k in
           let durable =
             if k < keyed then begin
               Calib.maybe calib;
               [ exchange s Durable (keyed_run ~seed j) ]
             end
             else []
           in
           let miss =
             if k < misses then begin
               Calib.maybe calib;
               pipelined s ~miss:(miss_run ~seed j) ~hit:(hit_run hol_program)
             end
             else []
           in
           durable @ miss))
  in
  (warm, timed)

let stats s = C.rpc s.conn P.Stats

(* ---------------- traced replay ---------------- *)

type replay_counts = {
  mutable waits : (cls * float) list;  (* ms *)
  mutable response_bytes : int list;
  mutable checkpoint_bytes : int list;
}

let replay_counts = { waits = []; response_bytes = []; checkpoint_bytes = [] }

let slice = (S.default_config ~socket_path:"").S.slice

(* The keyed class's server-side work: Admit, the sliced machine run
   with a checkpoint and a Progress record at every slice boundary, and
   Done — appended to a scratch journal opened as the server opens its
   own (no fsync outside a cluster). *)
let replay_machine jr sj ~subject ~idem ~request =
  let append e =
    Span.with_ ~subject "serve.journal_append" (fun () -> Serve.Journal.append jr e)
  in
  append (Serve.Journal.Admit { idem; request });
  let m = ME.create_cfg sj.cfg ~arch:sj.arch sj.graph ~inputs:sj.inputs in
  let rec go until =
    ME.advance m ~until;
    if ME.finished m then Exec.Outcome.of_machine ~name:sj.name (ME.result m)
    else begin
      let ck =
        Span.with_ ~subject "recover.checkpoint" (fun () ->
            Recover.Checkpoint.to_json ~graph:sj.graph (ME.snapshot m))
      in
      replay_counts.checkpoint_bytes <-
        String.length (J.to_string ck) :: replay_counts.checkpoint_bytes;
      append (Serve.Journal.Progress { idem; checkpoint = ck });
      go (until + slice)
    end
  in
  Span.with_ ~subject "machine.sliced" (fun () -> go slice)

let replay ~subjects ~journal x =
  let line = J.to_string (P.request_to_json ~id:x.id (P.Simulate x.run)) in
  let subject = Printf.sprintf "%s#%d" (cls_name x.cls) x.id in
  let t0 = Span.now () in
  let root =
    Span.with_ ~subject "serve.replay" (fun () ->
        ignore
          (Span.with_ ~subject "serve.decode" (fun () ->
               P.request_of_json (J.of_string line)));
        let key = Span.with_ ~subject "serve.program_key" (fun () -> S.program_key x.run.P.program) in
        let sj =
          match x.cls with
          | Miss ->
            Span.with_ ~subject "compiler.compile_source" (fun () -> subject_of x.run)
          | Hit | Durable | Hol -> Hashtbl.find subjects (run_key x.run)
        in
        match sj with
        | Error e -> Error e
        | Ok sj ->
          let outcome =
            match x.run.P.engine with
            | `Sim -> Span.with_ ~subject "sim.job" (fun () -> Exec.Job.run (job_of sj x.run))
            | `Machine ->
              let idem = Option.value ~default:"" x.run.P.idem in
              replay_machine journal sj ~subject ~idem
                ~request:(P.request_to_json ~id:0 (P.Simulate x.run))
          in
          let cache_hit = x.cls <> Miss in
          let response, bytes =
            Span.with_ ~subject "serve.encode" (fun () ->
                let response =
                  P.ok ~id:0 ~verb:"simulate"
                    (P.outcome_fields ~cache_hit ~key outcome)
                in
                (response, String.length (J.to_string response)))
          in
          replay_counts.response_bytes <- bytes :: replay_counts.response_bytes;
          let digest = Span.with_ ~subject "integrity.digest" (fun () -> Exec.Outcome.digest outcome) in
          (match x.run.P.idem with
          | Some idem ->
            Span.with_ ~subject "serve.journal_append" (fun () ->
                Serve.Journal.append journal
                  (Serve.Journal.Done { idem; response; digest = Some digest }))
          | None -> ());
          Ok digest)
  in
  let replayed = Span.now () -. t0 in
  (* the arena build is part of sim.job; it is replayed on its own, after
     the request's spans, so it stays out of the wait arithmetic *)
  (match Hashtbl.find_opt subjects (run_key x.run) with
  | Some (Ok sj) ->
    ignore (Span.with_ ~subject "exec.arena" (fun () -> Arena.build sj.graph))
  | _ -> ());
  replay_counts.waits <- (x.cls, 1000. *. ((x.recv -. x.sent) -. replayed)) :: replay_counts.waits;
  match (root, served_digest x) with
  | Ok d, Some got when d = got -> ()
  | Ok _, _ ->
    Report.gate_fail (cls_name x.cls) "%s: replayed digest != served digest" subject
  | Error e, _ -> Report.gate_fail (cls_name x.cls) "%s: replay failed: %s" subject e

let replay_all ~dir samples =
  let path = Filename.concat dir "replay.wal" in
  remove path;
  let journal = Serve.Journal.open_append path in
  (* cached programs were compiled before the timed requests, so their
     subjects are built outside the replay spans *)
  let subjects = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = run_key x.run in
      if x.cls <> Miss && not (Hashtbl.mem subjects k) then
        Hashtbl.replace subjects k (subject_of x.run))
    samples;
  Fun.protect
    ~finally:(fun () ->
      Serve.Journal.close journal;
      remove path)
    (fun () -> List.iter (replay ~subjects ~journal) samples)

(* Round trip of a no-op through a 2-worker pool, as dfserve's pool. *)
let pool_rtt_us ~n =
  let pool = Exec.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      List.init n (fun _ ->
          let t0 = Span.now () in
          ignore (Exec.Pool.await (Exec.Pool.submit pool (fun () -> ())));
          1e6 *. (Span.now () -. t0)))
