(* faultcheck: the differential fault driver over the kernel library.

   Every scenario runs a compiled kernel clean and under a fault plan,
   and requires the output streams to be identical — the executable
   form of the paper's claim that the acknowledge discipline makes
   pipelines latency-insensitive, extended to lossy, corrupting and
   crashing machines when --recover and --integrity attach the
   protection stack.  The graph-level simulator runs every delay-only
   plan; --machine adds the machine-level simulator, which honours the
   whole plan.

   Scenarios come from one of two sources and then share one pipeline:

     fixed  (default)  every kernel x --seeds, under the --fault SPEC
                       plan at that seed; labelled seed=N
     drawn  (--runs N) scenario i draws a kernel and a multi-fault plan
                       (delays, dups, drops, stalls, slowdowns,
                       corruption, a possible PE crash) as a pure
                       function of (--seed S, i); labelled #NNN

   A scenario passes when its faulted outputs equal the clean ones, the
   sanitizer saw no violation, no unexpected stall stopped it, and the
   output digests agree.  A failing one is delta-debugged: its spec
   down the Fault.Shrink lattice, then fewer waves, then a smaller
   kernel size.  The minimal failure is dumped into --out (with the
   machine's final state, for dfsim --restore) and printed as a
   one-line faultcheck command that reruns exactly that configuration:
   both sources size the watchdog by one rule, and shrinking a minimal
   failure again finds itself, so the rerun writes the same dump below
   its header.  Generation and shrinking are deterministic and reports
   print in submission order, so stdout is byte-identical whatever
   --jobs is.

   With a service flag (these need --machine) every scenario's faulted
   machine run is also replayed through live dfserve processes, and the
   served response must reproduce the standalone run byte for byte:
   same output digest, same end time, same stall report.  The four
   flags are presets of one driver: N real dfserve members, a killer
   that SIGKILLs and restarts a seeded member at seeded counts of
   submitted scenarios, and a replay through the failover client.

     --serve            one journal-less server, never killed: the fault
                        harness against the service path under real
                        client concurrency
     --serve-kill       one server with a write-ahead journal, restarted
                        against it after each kill; every scenario
                        carries an idempotency key, so a request that
                        dies with the server is reissued and answered
                        from the journal or resumed from a preemption
                        checkpoint
     --serve-cluster N  N journaled members behind rendezvous routing;
                        restarted members compact their journals, and a
                        seeded third of the scenarios are force-migrated
                        live between members mid-run
     --serve-wipe N     N members replicating their journals to each
                        other; each kill also deletes the victim's whole
                        journal directory, so the restarted member must
                        rebuild from its peers' replicas

   Whatever members die, restart, compact, lose their disks or hand jobs
   to each other, every answer must match its standalone run byte for
   byte.  --kills N sets the number of kill/restart cycles of the last
   three presets; a soak that ends with fewer fails.  Every preset
   needs bin/dfserve.exe built next to faultcheck.exe.

   Examples:
     faultcheck --seeds 101,202,303 --out fault-reports
     faultcheck --machine --fault delay=0.5
     faultcheck --machine --recover --fault 'delay=0.25,drop-ack=0.15'
     faultcheck --machine --recover --fault 'delay=0.1,crash-pe=2,crash-at=120'
     faultcheck --machine --recover --integrity --fault corrupt=0.05
     faultcheck --kernel hydro --seeds 42
     faultcheck --runs 40 --seed 1 --machine --recover --integrity
     faultcheck --runs 30 --machine --recover --integrity --serve-cluster 3 *)

module K = Kernels
module FP = Fault.Fault_plan
module FD = Fault_diff
module ME = Machine.Machine_engine
module Prng = Fault.Prng
module Shrink = Fault.Shrink

(* --- scenarios -------------------------------------------------------- *)

type scenario = {
  index : int;  (* submission order; the service presets key on it *)
  label : string;  (* as reports print it: "seed=101" or "#007" *)
  tag : string;  (* as dump file names carry it: "seed101" or "run007" *)
  kernel : K.kernel;
  spec : FP.spec;
}

let fixed_scenarios kernels ~seeds (spec : FP.spec) =
  List.concat_map (fun k -> List.map (fun seed -> (k, seed)) seeds) kernels
  |> List.mapi (fun index (kernel, seed) ->
         { index; label = Printf.sprintf "seed=%d" seed;
           tag = Printf.sprintf "seed%d" seed; kernel;
           spec = { spec with FP.seed } })

(* Every draw is a keyed hash of (master, scenario index, slot): no
   sequential PRNG state, so scenario [i] is the same plan no matter
   how many scenarios run, in what order, on how many domains. *)
let gen_spec ~master ~index ~n_pe =
  let h slot = Prng.mix master [ index; slot ] in
  let coin slot denom = Prng.int_of_hash (h slot) denom = 0 in
  (* each fault kind is armed about half the time, so scenarios range
     from single-fault to everything-at-once *)
  let prob slot cap =
    if coin slot 2 then Prng.float_of_hash (h (slot + 1)) *. cap else 0.0
  in
  let mag slot cap =
    if coin slot 2 then 1 + Prng.int_of_hash (h (slot + 1)) cap else 0
  in
  let crash = coin 40 4 in
  { FP.seed = Prng.int_of_hash (h 0) 1_000_000;
    delay_prob = prob 2 0.3;
    delay_max = 1 + Prng.int_of_hash (h 4) 8;
    dup_prob = prob 6 0.2;
    drop_ack_prob = prob 10 0.1;
    drop_prob = prob 14 0.1;
    stall_prob = prob 18 0.2;
    stall_max = 1 + Prng.int_of_hash (h 20) 16;
    fu_slow = mag 22 3;
    am_slow = mag 26 3;
    corrupt_prob = prob 30 0.05;
    corrupt_ctl_prob = prob 34 0.05;
    crash_pe = (if crash then Prng.int_of_hash (h 42) n_pe else -1);
    crash_at = (if crash then 20 + Prng.int_of_hash (h 44) 200 else 0);
  }

let pick_kernel ~master ~index kernels =
  List.nth kernels (Prng.int_of_hash (Prng.mix master [ index; 1 ]) (List.length kernels))

let drawn_scenarios kernels ~master ~runs =
  List.init runs (fun index ->
      { index; label = Printf.sprintf "#%03d" index;
        tag = Printf.sprintf "run%03d" index;
        kernel = pick_kernel ~master ~index kernels;
        spec =
          gen_spec ~master ~index ~n_pe:Machine.Arch.default.Machine.Arch.n_pe })

(* --- the oracle ------------------------------------------------------- *)

type config = {
  size : int;
  waves : int;
  recovery : Run_config.recovery option;
  integrity : bool;
  machine : bool;
  dir : string;
}

(* One rule for both sources, so a printed repro reruns the window its
   failure ran under: above every injected latency source from a floor
   of 200 (drawn plans stack them), counting the stall window whether
   or not stalls are armed, so shrinking a stall away never moves it. *)
let watchdog_for cfg (spec : FP.spec) =
  Runspec.watchdog_for ~base:200 spec cfg.recovery
  + (if spec.FP.stall_prob = 0.0 then 4 * spec.FP.stall_max else 0)

let engine_name = function `Sim -> "sim" | `Machine -> "machine"

let differential cfg engine (subject : Runspec.subject) spec =
  let plan = FP.make spec and watchdog = watchdog_for cfg spec in
  match engine with
  | `Sim -> FD.sim ~watchdog ~plan subject.graph ~inputs:subject.inputs
  | `Machine ->
    FD.machine ~watchdog ?recovery:cfg.recovery ~integrity:cfg.integrity
      ~plan subject.graph ~inputs:subject.inputs

let outcome_ok (o : FD.outcome) =
  o.FD.equal && o.FD.faulted_violations = []
  && not (Fault.Stall_report.unexpected o.FD.faulted_stall)
  && o.FD.clean_digest = o.FD.faulted_digest

(* the one-line command that reruns one configuration exactly *)
let repro cfg ~kernel ~size ~waves (spec : FP.spec) =
  Printf.sprintf
    "faultcheck --kernel %s --seeds %d --size %d --waves %d --fault '%s'%s%s%s"
    kernel spec.FP.seed size waves (FP.to_string spec)
    (match cfg.recovery with
    | Some p -> " --recover " ^ Recover.to_string p
    | None -> "")
    (if cfg.integrity then " --integrity" else "")
    (if cfg.machine then " --machine" else "")

(* --- shrinking a failure ---------------------------------------------- *)

type shrunk = {
  subject : Runspec.subject;  (* the narrowed kernel instance *)
  minimal : FP.spec;
  steps : string list;  (* adopted steps, in order *)
  attempts : int;  (* oracle runs spent *)
  outcome : FD.outcome;  (* of the minimal failure *)
}

(* The spec lattice first (Fault.Shrink), then fewer waves, then a
   smaller kernel size, each narrowed to the smallest candidate that
   still fails.  The round repeats until none of the three moves, so a
   minimal failure shrunk again finds itself. *)
let shrink cfg engine (subject : Runspec.subject) spec =
  let fails (s : Runspec.subject) spec =
    not (outcome_ok (differential cfg engine s spec))
  in
  let attempts = ref 0 and steps = ref [] in
  let narrow what spec candidates rebuild =
    List.find_map
      (fun c ->
        let s = rebuild c in
        incr attempts;
        if fails s spec then begin
          steps := Printf.sprintf "%s %d" what c :: !steps;
          Some s
        end
        else None)
      candidates
  in
  let rec round (s : Runspec.subject) spec =
    let r = Shrink.minimize ~still_fails:(fails s) spec in
    attempts := !attempts + r.Shrink.attempts;
    List.iter
      (fun (st : Shrink.step) ->
        steps :=
          Printf.sprintf "%s -> %s" st.Shrink.s_desc
            (FP.to_string st.Shrink.s_spec)
          :: !steps)
      r.Shrink.steps;
    let spec = r.Shrink.minimal in
    let s' =
      narrow "waves" spec
        (List.filter (fun w -> w < s.waves) [ 1; 2 ])
        (fun waves -> Runspec.compile_subject s.kernel ~size:s.size ~waves)
      |> Option.value ~default:s
    in
    let s' =
      narrow "size" spec
        (List.filter (fun n -> n < s'.size) [ 4; 8; 16 ])
        (fun size -> Runspec.compile_subject s'.kernel ~size ~waves:s'.waves)
      |> Option.value ~default:s'
    in
    if s' == s then (s, spec) else round s' spec
  in
  let subject, minimal = round subject spec in
  { subject; minimal; steps = List.rev !steps; attempts = !attempts;
    outcome = differential cfg engine subject minimal }

(* --- reporting -------------------------------------------------------- *)

(* The header names the scenario and how it shrank; everything after its
   blank line is a function of the minimal configuration alone, so the
   dump its repro writes is the same below the header. *)
let dump cfg sc engine (sh : shrunk) ~repro_line =
  (try if not (Sys.file_exists cfg.dir) then Sys.mkdir cfg.dir 0o755
   with Sys_error _ -> ());
  let stem =
    Filename.concat cfg.dir
      (Printf.sprintf "%s-%s-%s" sc.kernel.K.name engine sc.tag)
  in
  let path = stem ^ ".txt" and o = sh.outcome in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "scenario %s, kernel %s, engine %s, size %d, waves %d\n\
         fault: %s\n\
         shrink: %d oracle runs, %d adopted steps\n"
        sc.label sc.kernel.K.name engine cfg.size cfg.waves
        (FP.to_string sc.spec) sh.attempts (List.length sh.steps);
      List.iter (Printf.fprintf oc "  - %s\n") sh.steps;
      Printf.fprintf oc
        "\nrepro: %s\nclean end %d, faulted end %d, recoveries %d\n\
         digest clean %d, faulted %d\n"
        repro_line o.FD.clean_end o.FD.faulted_end o.FD.faulted_recoveries
        o.FD.clean_digest o.FD.faulted_digest;
      (match o.FD.diagnosis with
      | Some d -> Printf.fprintf oc "diagnosis: %s\n" d
      | None -> ());
      if o.FD.mismatches <> [] then begin
        output_string oc "output mismatches:\n";
        List.iter
          (fun m -> Printf.fprintf oc "  %s\n" (FD.mismatch_to_string m))
          o.FD.mismatches
      end;
      if o.FD.faulted_violations <> [] then begin
        output_string oc "violations:\n";
        List.iter
          (fun v -> Printf.fprintf oc "  %s\n" (Fault.Violation.to_string v))
          o.FD.faulted_violations
      end;
      match o.FD.faulted_stall with
      | Some sr -> output_string oc (Fault.Stall_report.to_string sr)
      | None -> ());
  (* the final machine state, for post-mortems under dfsim --restore *)
  (match o.FD.faulted_snapshot with
  | Some sn ->
    Recover.Checkpoint.save ~path:(stem ^ "-state.json")
      ~graph:sh.subject.graph sn
  | None -> ());
  path

(* one engine's verdict on one scenario, into [buf] *)
let report cfg ~buf sc subject engine (o : FD.outcome) =
  let name = engine_name engine in
  (* the per-run integrity story: bit-flips injected, caught by the
     checksum, and replaced by a clean retransmission *)
  let integrity_note =
    match o.FD.faulted_snapshot with
    | Some sn when sn.ME.sn_stats.ME.corruptions > 0 ->
      Printf.sprintf ", %d corrupt/%d detected/%d healed"
        sn.ME.sn_stats.ME.corruptions sn.ME.sn_stats.ME.corrupt_detected
        sn.ME.sn_stats.ME.corrupt_healed
    | _ -> ""
  in
  if outcome_ok o then begin
    Printf.bprintf buf "ok   %-14s %-7s %s (clean end %d, faulted end %d%s%s)\n"
      sc.kernel.K.name name sc.label o.FD.clean_end o.FD.faulted_end
      (if o.FD.faulted_recoveries > 0 then
         Printf.sprintf ", %d recovery" o.FD.faulted_recoveries
       else "")
      integrity_note;
    true
  end
  else begin
    let sh = shrink cfg engine subject sc.spec in
    let repro_line =
      repro cfg ~kernel:sc.kernel.K.name ~size:sh.subject.size
        ~waves:sh.subject.waves sh.minimal
    in
    Printf.bprintf buf
      "FAIL %-14s %-7s %s (%d mismatches, %d violations%s) -> %s\n\
      \     repro: %s\n"
      sc.kernel.K.name name sc.label
      (List.length o.FD.mismatches)
      (List.length o.FD.faulted_violations)
      integrity_note
      (dump cfg sc name sh ~repro_line)
      repro_line;
    (match o.FD.diagnosis with
    | Some d -> Printf.bprintf buf "     %s\n" d
    | None -> ());
    false
  end

(* --- replay through live dfserve members ------------------------------ *)

(* The scenario's faulted machine run as a simulate request.
   Fault_plan.to_string round-trips %.17g-exactly and the server
   rebuilds the identical Run_config, so the served response must
   reproduce the standalone run byte for byte. *)
let replay_run ?idem cfg (subject : Runspec.subject) (spec : FP.spec) =
  let module SP = Serve.Protocol in
  { (SP.default_run
       (SP.Kernel { name = subject.kernel.K.name; size = subject.size }))
    with
    SP.waves = subject.waves;
    engine = `Machine;
    fault = Some (FP.to_string spec);
    recovery = Option.map Recover.to_string cfg.recovery;
    integrity = cfg.integrity;
    watchdog = SP.At (watchdog_for cfg spec);
    sanitize = true;
    idem }

let replay_compare resp (o : FD.outcome) =
  let module SP = Serve.Protocol in
  let module J = Obs.Json in
  if not (SP.response_ok resp) then
    [ Printf.sprintf "served replay errored: %s" (J.to_string resp) ]
  else
    let differs what got want =
      if got = want then []
      else [ Printf.sprintf "served %s %s, standalone %s" what got want ]
    in
    let geti f = Option.value ~default:min_int (J.get_int (J.member f resp)) in
    differs "digest" (string_of_int (geti "digest"))
      (string_of_int o.FD.faulted_digest)
    @ differs "end time" (string_of_int (geti "end_time"))
        (string_of_int o.FD.faulted_end)
    @ differs "stall"
        (Option.value ~default:"-" (J.get_string (J.member "stall" resp)))
        (match o.FD.faulted_stall with
        | Some sr -> Fault.Stall_report.to_string sr
        | None -> "-")

(* One driver serves all four service flags; each flag selects one of
   these presets. *)
type preset = {
  flag : string;  (** the selecting option, named in messages *)
  members : int;
  journal : bool;  (** each member keeps a write-ahead journal *)
  wipe : bool;
      (** members replicate their journals to each other, and each kill
          also deletes the victim's whole journal directory *)
  slice : int;  (** dfserve --slice *)
  retain : int option;  (** dfserve --journal-retain: restarts compact *)
  attempts : int;  (** retrying-client attempts per member *)
  seed_slot : int;  (** hash slot of each scenario's retry jitter seed *)
  deadline : float;  (** per-request deadline, seconds *)
  idem : string option;  (** idempotency-key prefix *)
  migrate : bool;  (** force-migrate a seeded third of the scenarios *)
  kills : int;  (** kill/restart cycles *)
  cycle : string;  (** what stderr calls one cycle *)
  verdict : string;  (** the closing clause of the summary line *)
}

let preset_of_flags ~serve ~serve_kill ~serve_cluster ~serve_wipe ~kills =
  if kills < 0 then failwith "--kills must be >= 0";
  let base =
    { flag = "--serve"; members = 1; journal = false; wipe = false;
      slice = 5000; retain = None; attempts = 80; seed_slot = 77;
      deadline = 60.0; idem = None; migrate = false; kills = 0; cycle = "";
      verdict = "served replays bit-identical to standalone" }
  in
  let kill =
    { base with
      flag = "--serve-kill"; journal = true; slice = 500; idem = Some "ck";
      kills; cycle = "server kill/restart";
      verdict = base.verdict ^ " across server kills" }
  in
  let cluster n =
    if n < 2 then failwith "--serve-cluster needs at least 2 members";
    { kill with
      flag = "--serve-cluster"; members = n; slice = 200; retain = Some 64;
      attempts = 40; seed_slot = 78; idem = Some "cc"; migrate = true;
      verdict = base.verdict ^ " across member kills and live migrations" }
  in
  let wipe n =
    if n < 2 then
      failwith "--serve-wipe needs at least 2 members (replicas live on peers)";
    { (cluster n) with
      flag = "--serve-wipe"; wipe = true; attempts = 60; seed_slot = 79;
      deadline = 90.0; idem = Some "cw"; migrate = false;
      cycle = "member wipe/restart";
      verdict =
        base.verdict
        ^ " across member disk wipes (journals rebuilt from peer replicas)" }
  in
  match (serve, serve_kill, serve_cluster, serve_wipe) with
  | false, false, None, None -> None
  | true, false, None, None -> Some base
  | false, true, None, None -> Some kill
  | false, false, Some n, None -> Some (cluster n)
  | false, false, None, Some n -> Some (wipe n)
  | _ ->
    failwith
      "--serve, --serve-kill, --serve-cluster and --serve-wipe are exclusive"

(* --- real server processes we can murder ----------------------------- *)

(* dfserve.exe lives next to faultcheck.exe in the dune build tree and
   in an installed prefix alike *)
let dfserve_exe flag =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "dfserve.exe"
  in
  if Sys.file_exists exe then exe
  else
    failwith
      (Printf.sprintf "%s: %s not found (build bin/dfserve.exe)" flag exe)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

type fleet = {
  preset : preset;
  exe : string;
  sockets : string array;
  jdirs : string array;
      (** one journal directory per member: its WAL plus the replica
          segments it keeps for peers, so a wipe is one sweep *)
  members_file : string;  (** the member list replicating members read *)
  max_pending : int;
  pids : int array;
}

let spawn f i =
  let p = f.preset in
  let args =
    [ "--socket"; f.sockets.(i); "--workers"; "2"; "--slice";
      string_of_int p.slice; "--max-pending"; string_of_int f.max_pending;
      "--idle-timeout"; "0" ]
    @ (if p.journal then
         [ "--journal"; Filename.concat f.jdirs.(i) "self.wal" ]
       else [])
    @ (match p.retain with
      | Some n -> [ "--journal-retain"; string_of_int n ]
      | None -> [])
    @
    if p.wipe then
      [ "--cluster"; "@" ^ f.members_file; "--self"; f.sockets.(i);
        "--replicas"; "2" ]
    else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      f.pids.(i) <-
        Unix.create_process f.exe
          (Array.of_list (f.exe :: args))
          Unix.stdin null null)

let start preset ~runs =
  let exe = dfserve_exe preset.flag in
  let tmp = Filename.get_temp_dir_name () in
  let name suffix =
    Filename.concat tmp
      (Printf.sprintf "faultcheck-serve-%d%s" (Unix.getpid ()) suffix)
  in
  let member i ext = name (Printf.sprintf "-%d.%s" i ext) in
  let f =
    { preset;
      exe;
      sockets = Array.init preset.members (fun i -> member i "sock");
      jdirs = Array.init preset.members (fun i -> member i "jdir");
      members_file = name ".members";
      max_pending = runs + 8;
      pids = Array.make preset.members 0 }
  in
  Array.iter
    (fun d ->
      rm_rf d;
      Unix.mkdir d 0o755)
    f.jdirs;
  let oc = open_out f.members_file in
  Array.iter (fun s -> output_string oc (s ^ "\n")) f.sockets;
  close_out oc;
  Array.iteri (fun i _ -> spawn f i) f.pids;
  f

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let stop f =
  Array.iteri
    (fun i pid ->
      let down =
        match
          Serve.Client.oneshot ~retries:10 f.sockets.(i)
            Serve.Protocol.Shutdown
        with
        | Ok _ -> true
        | Error _ | (exception _) -> false
      in
      if not down then (
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    f.pids;
  Array.iter rm_rf f.jdirs;
  try Sys.remove f.members_file with Sys_error _ -> ()

(* Kill/restart cycles ride on soak progress, not on wall-clock time:
   cycle [k] fires once submission number [points.(k)] has gone out, and
   no later submission leaves until it has.  Every cycle therefore lands
   while the soak is running, however fast its scenarios are. *)
type schedule = {
  points : int array;  (** ascending submission counts *)
  mutable submitted : int;
  mutable cycles : int;  (** cycles completed *)
  mutable stopped : bool;
  lock : Mutex.t;
  cond : Condition.t;
}

let schedule ~master ~runs ~kills =
  let points =
    Array.init kills (fun k ->
        Prng.int_of_hash (Prng.mix master [ 9000; k ]) (max 1 (runs - 1)))
  in
  Array.sort compare points;
  { points; submitted = 0; cycles = 0; stopped = false;
    lock = Mutex.create (); cond = Condition.create () }

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* releases both sides: the killer stops waiting for points the soak
   will never reach, and no scenario waits on a killer that is gone *)
let halt s =
  locked s (fun () ->
      s.stopped <- true;
      Condition.broadcast s.cond)

(* a scenario checks in here right before it submits *)
let check_in s =
  locked s (fun () ->
      while
        (not s.stopped)
        && s.cycles < Array.length s.points
        && s.points.(s.cycles) < s.submitted
      do
        Condition.wait s.cond s.lock
      done;
      s.submitted <- s.submitted + 1;
      Condition.broadcast s.cond)

(* SIGKILL a seeded member, reap it, wipe its disk if the preset says
   so, and restart it against whatever is left.  Restarted members
   compact their journals (with a retention window) or rebuild them from
   peer replicas (after a wipe) on the way up. *)
let killer f s ~master () =
  Fun.protect ~finally:(fun () -> halt s) (fun () ->
      Array.iteri
        (fun k point ->
          let due =
            locked s (fun () ->
                while (not s.stopped) && s.submitted <= point do
                  Condition.wait s.cond s.lock
                done;
                s.submitted > point)
          in
          if due then begin
            let i =
              Prng.int_of_hash (Prng.mix master [ 9200; k ]) f.preset.members
            in
            (try Unix.kill f.pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
            reap f.pids.(i);
            if f.preset.wipe then begin
              rm_rf f.jdirs.(i);
              try Unix.mkdir f.jdirs.(i) 0o755 with Unix.Unix_error _ -> ()
            end;
            spawn f i;
            locked s (fun () ->
                s.cycles <- k + 1;
                Condition.broadcast s.cond)
          end)
        s.points)

(* Most scenarios route through the failover client: rendezvous order,
   dead members skipped, the idempotency key keeping the walk
   exactly-once whatever members die, restart or lose their disks.  With
   [migrate] a seeded third are instead submitted fire-and-forget at
   their home member (keyed jobs survive the closed connection) and
   moved live to the next replica — the migration driver converges from
   every state the job can be in, including the source being freshly
   SIGKILLed.  Nothing printed here depends on which member answered or
   which path delivered: stdout must be identical whatever the worker
   count. *)
let replay f s ~master cfg sc (subject : Runspec.subject) (o : FD.outcome) =
  let module SP = Serve.Protocol in
  let p = f.preset in
  let index = sc.index in
  let run =
    replay_run
      ?idem:(Option.map (fun pre -> Printf.sprintf "%s-%d-%d" pre master index) p.idem)
      cfg subject sc.spec
  in
  let retry =
    { Serve.Client.attempts = p.attempts;
      base_delay = 0.05;
      max_delay = 0.5;
      retry_seed =
        Prng.int_of_hash (Prng.mix master [ index; p.seed_slot ]) 1_000_000 }
  in
  let members = Array.to_list f.sockets in
  let key =
    Serve.Cluster.routing_key
      (SP.Kernel { name = subject.kernel.K.name; size = subject.size })
  in
  check_in s;
  let resp =
    match Serve.Cluster.rendezvous_order ~key members with
    | src :: dst :: _
      when p.migrate && Prng.int_of_hash (Prng.mix master [ index; 88 ]) 3 = 0
      ->
      (try
         let conn = Serve.Client.connect ~retries:10 src in
         ignore (Serve.Client.send conn (SP.Simulate run));
         Unix.sleepf 0.05;
         Serve.Client.close conn
       with _ -> ());
      fst
        (Serve.Cluster.migrate ~deadline:p.deadline ~retry ~source:src
           ~target:dst run)
    | _ ->
      let t = Serve.Cluster.create ~deadline:p.deadline ~retry members in
      fst (Serve.Cluster.submit t ~key (SP.Simulate run))
  in
  replay_compare resp o

(* --- the driver -------------------------------------------------------- *)

(* one scenario, start to finish: its verdict, or [None] when no engine
   runs its plan.  The report goes into [buf] so the run can fan out
   across domains and still print in submission order. *)
let check cfg ~replay ~buf sc =
  (* the graph-level simulator honours delay faults only: running it
     under a protocol-breaking plan would vacuously pass *)
  let engines =
    (if FP.delay_only (FP.make sc.spec) then [ `Sim ] else [])
    @ if cfg.machine then [ `Machine ] else []
  in
  if engines = [] then begin
    Printf.bprintf buf
      "skip %-14s %-7s %s (only the machine engine runs this plan: add \
       --machine)\n"
      sc.kernel.K.name "-" sc.label;
    None
  end
  else begin
    let subject =
      Runspec.compile_subject sc.kernel ~size:cfg.size ~waves:cfg.waves
    in
    let outcomes =
      List.map (fun e -> (e, differential cfg e subject sc.spec)) engines
    in
    (* replayed before any shrinking, so the killer's schedule keeps up *)
    let served =
      match (replay, List.assoc_opt `Machine outcomes) with
      | Some replay, Some o -> (
        try replay cfg sc subject o
        with e ->
          [ Printf.sprintf "served replay died: %s" (Printexc.to_string e) ])
      | _ -> []
    in
    let verdicts =
      List.map (fun (e, o) -> report cfg ~buf sc subject e o) outcomes
    in
    List.iter
      (Printf.bprintf buf "FAIL %-14s %-7s %s %s\n" sc.kernel.K.name "served"
         sc.label)
      served;
    Some (List.for_all Fun.id verdicts && served = [])
  end

let main seeds fault runs master dir kernel_filter size waves recover machine
    integrity jobs serve serve_kill serve_cluster serve_wipe kills =
  let recovery =
    match recover with
    | None -> None
    | Some spec -> (
      match Recover.of_string spec with
      | Ok p -> Some p
      | Error e -> failwith (Printf.sprintf "--recover %s: %s" spec e))
  in
  let kernels =
    match Runspec.kernels_matching kernel_filter with
    | Ok ks -> ks
    | Error e -> failwith (Printf.sprintf "--kernel: %s" e)
  in
  let scenarios, noun =
    match (runs, seeds, fault) with
    | None, seeds, fault ->
      let fault = Option.value fault ~default:"delay=0.25" in
      (* each run's seed comes from --seeds, overriding any seed= here *)
      let spec =
        match FP.of_string fault with
        | Ok spec -> spec
        | Error e -> failwith (Printf.sprintf "--fault %s: %s" fault e)
      in
      let seeds = Option.value seeds ~default:[ 101; 202; 303 ] in
      (fixed_scenarios kernels ~seeds spec, "kernel/seed runs")
    | Some runs, None, None ->
      if runs < 0 then failwith "--runs must be >= 0";
      (drawn_scenarios kernels ~master ~runs, "drawn scenarios")
    | Some _, _, _ ->
      failwith "--runs draws its own plans: it excludes --seeds and --fault"
  in
  let preset =
    preset_of_flags ~serve ~serve_kill ~serve_cluster ~serve_wipe ~kills
  in
  (match preset with
  | Some p when not machine ->
    failwith (p.flag ^ " replays the machine run: add --machine")
  | _ -> ());
  let cfg = { size; waves; recovery; integrity; machine; dir } in
  let jobs = match jobs with Some j -> j | None -> Exec.Pool.default_jobs () in
  let runs = List.length scenarios in
  (* the service presets: live dfserve members every scenario replays
     through (scenario workers double as concurrent clients), and a
     killer domain running the preset's kill/restart cycles *)
  let replay, teardown =
    match preset with
    | None -> (None, fun () -> 0)
    | Some p ->
      (* a member killed mid-write must be an EPIPE for the retrying
         client, not a kill of the whole soak *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let f = start p ~runs in
      let s = schedule ~master ~runs ~kills:p.kills in
      let kd = Domain.spawn (killer f s ~master) in
      ( Some (replay f s ~master),
        fun () ->
          halt s;
          (try Domain.join kd
           with e ->
             Printf.eprintf "faultcheck: killer died: %s\n"
               (Printexc.to_string e));
          stop f;
          s.cycles )
  in
  let cycles = ref 0 in
  let results, elapsed =
    Exec.Pool.timed (fun () ->
        Fun.protect
          ~finally:(fun () -> cycles := teardown ())
          (fun () ->
            Exec.Pool.map_result ~jobs
              (fun sc ->
                let buf = Buffer.create 256 in
                let ok = check cfg ~replay ~buf sc in
                (Buffer.contents buf, ok))
              scenarios))
  in
  let failures = ref 0 and ran = ref 0 in
  List.iter2
    (fun sc r ->
      match r with
      | Ok (report, verdict) ->
        print_string report;
        Option.iter
          (fun ok ->
            incr ran;
            if not ok then incr failures)
          verdict
      | Error (e : Exec.Pool.error) ->
        incr ran;
        incr failures;
        Printf.printf "FAIL %-14s %s raised %s\n     repro: %s\n"
          sc.kernel.K.name sc.label e.Exec.Pool.message
          (repro cfg ~kernel:sc.kernel.K.name ~size ~waves sc.spec))
    scenarios results;
  (* timing goes to stderr: stdout stays diffable across worker counts *)
  Printf.eprintf "faultcheck: %d runs in %.2fs (%d worker%s%s)\n" runs elapsed
    jobs
    (if jobs = 1 then "" else "s")
    (match preset with
    | Some p when p.kills > 0 -> Printf.sprintf ", %d %s cycles" !cycles p.cycle
    | _ -> "");
  let kills = match preset with Some p -> p.kills | None -> 0 in
  let skipped = runs - !ran in
  if !ran = 0 then
    `Error
      (false, Printf.sprintf "none of the %d %s ran an engine" runs noun)
  else if !failures > 0 then
    `Error (false, Printf.sprintf "%d of %d %s failed" !failures !ran noun)
  else if !cycles < kills then
    `Error
      (false, Printf.sprintf "only %d of %d kill/restart cycles ran" !cycles kills)
  else begin
    Printf.printf "all %d %s: faulted outputs identical to clean%s%s\n" !ran
      noun
      (match preset with Some p -> ", " ^ p.verdict | None -> "")
      (if skipped > 0 then Printf.sprintf " (%d skipped)" skipped else "");
    `Ok ()
  end

let main_safe seeds fault runs master dir kernel size waves recover machine
    integrity jobs serve serve_kill serve_cluster serve_wipe kills =
  try
    main seeds fault runs master dir kernel size waves recover machine
      integrity jobs serve serve_kill serve_cluster serve_wipe kills
  with Failure msg -> `Error (false, msg)

let cmd =
  let open Cmdliner in
  let seeds =
    Arg.(value & opt (some ~none:"101,202,303" (list int)) None
         & info [ "seeds" ] ~docv:"N,N,..."
             ~doc:"fault-plan seeds to test each kernel under (the fixed \
                   source)")
  in
  let fault =
    Arg.(value & opt (some ~none:"delay=0.25" string) None
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"the fault plan of the fixed source, as a Fault_plan \
                   string: comma-separated key=value over seed, delay, dup, \
                   drop-ack, drop, stall, corrupt, corrupt-ctl \
                   (probabilities), delay-max, stall-max, fu-slow, am-slow, \
                   crash-at (magnitudes) and crash-pe (PE index), e.g. \
                   'delay=0.1,crash-pe=2,crash-at=120'.  Every printed repro \
                   uses this form; $(b,--seeds) picks the per-run seed")
  in
  let runs =
    Arg.(value & opt (some int) None
         & info [ "runs" ] ~docv:"N"
             ~doc:"the drawn source instead of the fixed one: N scenarios, \
                   each a kernel and a multi-fault plan drawn from \
                   $(b,--seed); excludes $(b,--seeds) and $(b,--fault)")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"master seed of the drawn scenarios and of the service \
                   presets' kill schedule, retry jitter and idempotency \
                   keys; scenario $(i,i) is a pure function of (S, i), so \
                   the same seed replays the same soak")
  in
  let dir =
    Arg.(value & opt string "fault-reports"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"directory for failure dumps (created on first failure)")
  in
  let kernel =
    Arg.(value & opt (some string) None
         & info [ "kernel" ] ~docv:"NAME"
             ~doc:"check a single kernel instead of the whole library")
  in
  let size =
    Arg.(value & opt int 32
         & info [ "size" ] ~docv:"N" ~doc:"kernel size parameter")
  in
  let waves =
    Arg.(value & opt int 4
         & info [ "waves" ] ~docv:"W" ~doc:"input waves to stream")
  in
  let recover =
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "recover" ] ~docv:"SPEC"
             ~doc:"attach a checkpoint/retransmission recovery policy to the \
                   faulted machine runs (keys every, timeout, backoff, \
                   retries; bare --recover uses the defaults) — lossy and \
                   crashing runs are then expected to match clean runs")
  in
  let machine =
    Arg.(value & flag
         & info [ "machine" ]
             ~doc:"also run the differential on the machine-level simulator")
  in
  let integrity =
    Arg.(value & flag
         & info [ "integrity" ]
             ~doc:"enable per-packet checksum verification in the faulted \
                   machine runs; with $(b,--recover), corruption faults are \
                   then detected, discarded and healed by retransmission")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"worker domains for the scenarios (default: \
                   \\$(b,EXEC_JOBS) or the available cores); output is \
                   identical whatever the count")
  in
  let serve =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"additionally replay every scenario's faulted machine run \
                   through a live dfserve process (journal-less, never \
                   killed) and require the served response to reproduce \
                   the standalone run byte for byte (digest, end time, \
                   stall report); needs $(b,--machine)")
  in
  let serve_kill =
    Arg.(value & flag
         & info [ "serve-kill" ]
             ~doc:"like --serve, but the server keeps a write-ahead \
                   journal and is SIGKILLed and restarted against it at \
                   seeded points mid-soak; every scenario goes through the \
                   retrying client under an idempotency key and must still \
                   reproduce its standalone run byte for byte")
  in
  let serve_cluster =
    Arg.(value & opt (some int) None
         & info [ "serve-cluster" ] ~docv:"N"
             ~doc:"like --serve-kill, but with a federation of N real \
                   dfserve members: scenarios route through the rendezvous-\
                   hashing failover client, a seeded third are force-\
                   migrated live between members mid-run, and the killer \
                   SIGKILLs and restarts random members (which compact \
                   their journals on the way up); every answer must still \
                   match its standalone run byte for byte")
  in
  let serve_wipe =
    Arg.(value & opt (some int) None
         & info [ "serve-wipe" ] ~docv:"N"
             ~doc:"like --serve-cluster, but the members replicate their \
                   journals to each other (--replicas 2) and the killer \
                   SIGKILLs a random member AND deletes its whole journal \
                   directory before restarting it; the restarted member \
                   must rebuild its dedup window and pending jobs from \
                   peer replicas, and every answer must still match its \
                   standalone run byte for byte")
  in
  let kills =
    Arg.(value & opt int 3
         & info [ "kills" ] ~docv:"N"
             ~doc:"kill/restart cycles the --serve-kill, --serve-cluster \
                   or --serve-wipe killer performs, each triggered at a \
                   seeded count of submitted scenarios; the soak fails if \
                   fewer complete")
  in
  let term =
    Term.(ret (const main_safe $ seeds $ fault $ runs $ seed $ dir $ kernel
               $ size $ waves $ recover $ machine $ integrity $ jobs $ serve
               $ serve_kill $ serve_cluster $ serve_wipe $ kills))
  in
  Cmd.v
    (Cmd.info "faultcheck" ~version:"1.0"
       ~doc:"differential fault driver: faulted kernel runs must match \
             clean runs value for value; failures are delta-debugged to a \
             minimal one-line repro")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
