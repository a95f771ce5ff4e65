(* chaos: randomized fault soak with automatic repro shrinking.

   Each scenario draws a kernel and a multi-fault plan (delays, dups,
   drops, stalls, slowdowns, corruption, a possible PE crash) as a pure
   function of (master seed, scenario index), then runs the machine
   differential fully protected — integrity checksums, a recovery
   policy, the sanitizer, a generous watchdog.  Under that armour every
   scenario must end with outputs bit-identical to the clean run, no
   violations and no unexpected stall; anything else is a real bug in
   the protection stack.

   A failing scenario is not just reported: its 12-parameter spec is
   delta-debugged down to a minimal still-failing plan (Fault.Shrink),
   the wave count and kernel size are narrowed the same way, and the
   result is printed as a one-line faultcheck command that reproduces
   the failure exactly.  Scenario generation and shrinking are
   deterministic, so the same master seed yields the same verdicts and
   the same minimal repros whatever the worker count.

   With a service flag every scenario's protected faulted run is
   additionally replayed through live dfserve processes, and the served
   response must reproduce the standalone run byte for byte: same output
   digest, same end time, same stall report.  The four flags are presets
   of one driver: N real dfserve members, a killer that SIGKILLs and
   restarts a seeded member at seeded counts of submitted scenarios, and
   a replay through the failover client.

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
   byte, and stdout is identical whatever the worker count.  --kills N
   sets the number of kill/restart cycles of the last three presets; a
   soak that ends with fewer fails.  Every preset needs bin/dfserve.exe
   built next to chaos.exe.

   Examples:
     chaos --runs 40 --seed 1
     chaos --runs 200 --jobs 8 --out chaos-reports
     chaos --kernel tridiag --runs 20
     chaos --runs 40 --serve
     chaos --runs 50 --serve-kill --kills 4
     chaos --runs 30 --serve-cluster 3 --kills 5
     chaos --runs 30 --serve-wipe 3 --kills 4 *)

module PC = Compiler.Program_compile
module D = Compiler.Driver
module K = Kernels
module FP = Fault.Fault_plan
module FD = Fault_diff
module ME = Machine.Machine_engine
module Prng = Fault.Prng
module Shrink = Fault.Shrink

(* --- scenario generation -------------------------------------------- *)

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

(* --- the oracle ------------------------------------------------------ *)

let stall_unexpected = Runspec.stall_unexpected

(* the chaos watchdog starts from a higher floor than faultcheck's: the
   everything-at-once scenarios stack latency sources *)
let watchdog_for (spec : FP.spec) (recovery : ME.recovery) =
  Runspec.watchdog_for ~base:200 spec (Some recovery)
  + (if spec.FP.stall_prob = 0.0 then 4 * spec.FP.stall_max else 0)

type subject = Runspec.subject = {
  kernel : K.kernel;
  size : int;
  waves : int;
  compiled : PC.compiled;
  graph : Dfg.Graph.t;
  inputs : (string * Dfg.Value.t list) list;
}

let compile_subject = Runspec.compile_subject

let check ~recovery subject (spec : FP.spec) =
  let plan = FP.make spec in
  FD.machine
    ~watchdog:(watchdog_for spec recovery)
    ~recovery ~integrity:true ~plan subject.graph ~inputs:subject.inputs

let outcome_ok (o : FD.outcome) =
  o.FD.equal && o.FD.faulted_violations = []
  && not (stall_unexpected o.FD.faulted_stall)
  && o.FD.clean_digest = o.FD.faulted_digest

(* --- replay through live dfserve members ------------------------------ *)

(* The same protected faulted run as a simulate request.
   Fault_plan.to_string round-trips %.17g-exactly and the server
   rebuilds the identical Run_config, so the served response must
   reproduce the standalone run byte for byte. *)
let replay_run ?idem ~recovery subject (spec : FP.spec) =
  let module SP = Serve.Protocol in
  { (SP.default_run
       (SP.Kernel { name = subject.kernel.K.name; size = subject.size }))
    with
    SP.waves = subject.waves;
    engine = `Machine;
    fault = Some (FP.to_string spec);
    recovery = Some (Recover.to_string recovery);
    integrity = true;
    watchdog = SP.At (watchdog_for spec recovery);
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

(* dfserve.exe lives next to chaos.exe in the dune build tree and in an
   installed prefix alike *)
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
    Filename.concat tmp (Printf.sprintf "chaos-serve-%d%s" (Unix.getpid ()) suffix)
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
let replay f s ~master ~recovery index subject (spec : FP.spec)
    (o : FD.outcome) =
  let module SP = Serve.Protocol in
  let p = f.preset in
  let run =
    replay_run
      ?idem:(Option.map (fun pre -> Printf.sprintf "%s-%d-%d" pre master index) p.idem)
      ~recovery subject spec
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

(* --- shrinking a failure -------------------------------------------- *)

(* the spec lattice first (Fault.Shrink), then the subject: fewer
   waves, then a smaller kernel size — each adopted only while the
   minimal spec still fails *)
let shrink_failure ~recovery subject spec =
  let still_fails subject spec =
    not (outcome_ok (check ~recovery subject spec))
  in
  let r = Shrink.minimize ~still_fails:(still_fails subject) spec in
  let subject = ref subject in
  let attempts = ref r.Shrink.attempts in
  let narrow desc candidates rebuild =
    List.iter
      (fun c ->
        let s = rebuild c in
        incr attempts;
        if still_fails s r.Shrink.minimal then subject := s)
      candidates;
    ignore desc
  in
  let s0 = !subject in
  narrow "waves"
    (List.filter (fun w -> w < s0.waves) [ 1; 2 ])
    (fun waves -> { s0 with waves; inputs = [] } |> fun s ->
       compile_subject s.kernel ~size:s.size ~waves);
  let s1 = !subject in
  narrow "size"
    (List.filter (fun n -> n < s1.size) [ 4; 8; 16 ])
    (fun size -> compile_subject s1.kernel ~size ~waves:s1.waves);
  (!subject, r, !attempts)

(* the one-line command that replays the minimal failure exactly *)
let repro_command ~recovery subject (spec : FP.spec) =
  Printf.sprintf
    "faultcheck --kernel %s --seeds %d --size %d --waves %d --inject '%s' \
     --recover %s --integrity --machine"
    subject.kernel.K.name spec.FP.seed subject.size subject.waves
    (FP.to_string spec) (Recover.to_string recovery)

(* --- reporting ------------------------------------------------------- *)

let dump_failure ~dir ~recovery ~index subject ~original
    (r : Shrink.result) ~attempts (o : FD.outcome) =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let path =
    Filename.concat dir
      (Printf.sprintf "chaos-%03d-%s.txt" index subject.kernel.K.name)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "scenario %d, kernel %s, size %d, waves %d\n\
         original spec: %s\n\
         minimal spec:  %s\n\
         shrink: %d oracle runs, %d adopted steps\n"
        index subject.kernel.K.name subject.size subject.waves
        (FP.to_string original)
        (FP.to_string r.Shrink.minimal)
        attempts
        (List.length r.Shrink.steps);
      List.iter
        (fun (s : Shrink.step) ->
          Printf.fprintf oc "  - %s -> %s\n" s.Shrink.s_desc
            (FP.to_string s.Shrink.s_spec))
        r.Shrink.steps;
      Printf.fprintf oc "repro: %s\n\n"
        (repro_command ~recovery subject r.Shrink.minimal);
      Printf.fprintf oc "clean end %d, faulted end %d, recoveries %d\n"
        o.FD.clean_end o.FD.faulted_end o.FD.faulted_recoveries;
      Printf.fprintf oc "digest clean %d, faulted %d\n" o.FD.clean_digest
        o.FD.faulted_digest;
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
  (match o.FD.faulted_snapshot with
  | Some sn ->
    let spath =
      Filename.concat dir
        (Printf.sprintf "chaos-%03d-%s-state.json" index subject.kernel.K.name)
    in
    Recover.Checkpoint.save ~path:spath ~graph:subject.graph sn
  | None -> ());
  path

(* one scenario, start to finish; the report goes into [buf] so the
   soak can fan out across domains and still print in index order *)
let run_scenario ~master ~size ~waves ~recovery ~dir ~kernels ~replay ~buf
    index =
  let spec = gen_spec ~master ~index ~n_pe:Machine.Arch.default.Machine.Arch.n_pe in
  let kernel = pick_kernel ~master ~index kernels in
  let subject = compile_subject kernel ~size ~waves in
  let o = check ~recovery subject spec in
  let serve_failures =
    match replay with
    | None -> []
    | Some replay -> (
      try replay index subject spec o
      with e ->
        [ Printf.sprintf "served replay died: %s" (Printexc.to_string e) ])
  in
  List.iter
    (fun f -> Printf.bprintf buf "FAIL #%03d %-14s %s\n" index kernel.K.name f)
    serve_failures;
  if outcome_ok o then begin
    let armed =
      List.length
        (List.filter Fun.id
           [ spec.FP.delay_prob > 0.0; spec.FP.dup_prob > 0.0;
             spec.FP.drop_ack_prob > 0.0; spec.FP.drop_prob > 0.0;
             spec.FP.stall_prob > 0.0; spec.FP.fu_slow > 0;
             spec.FP.am_slow > 0; spec.FP.corrupt_prob > 0.0;
             spec.FP.corrupt_ctl_prob > 0.0; spec.FP.crash_pe >= 0 ])
    in
    Printf.bprintf buf
      "ok   #%03d %-14s %d faults (clean end %d, faulted end %d%s%s)\n" index
      kernel.K.name armed o.FD.clean_end o.FD.faulted_end
      (if o.FD.faulted_recoveries > 0 then
         Printf.sprintf ", %d recovery" o.FD.faulted_recoveries
       else "")
      (match o.FD.faulted_snapshot with
      | Some sn when sn.ME.sn_stats.ME.corruptions > 0 ->
        Printf.sprintf ", %d corrupt/%d healed" sn.ME.sn_stats.ME.corruptions
          sn.ME.sn_stats.ME.corrupt_healed
      | _ -> "");
    serve_failures = []
  end
  else begin
    let min_subject, r, attempts = shrink_failure ~recovery subject spec in
    let min_outcome = check ~recovery min_subject r.Shrink.minimal in
    let path =
      dump_failure ~dir ~recovery ~index min_subject ~original:spec r ~attempts
        min_outcome
    in
    Printf.bprintf buf
      "FAIL #%03d %-14s (%d mismatches, %d violations) -> %s\n\
      \     minimal: %s\n\
      \     repro:   %s\n"
      index kernel.K.name
      (List.length min_outcome.FD.mismatches)
      (List.length min_outcome.FD.faulted_violations)
      path
      (FP.to_string r.Shrink.minimal)
      (repro_command ~recovery min_subject r.Shrink.minimal);
    false
  end

let main runs master size waves dir kernel_filter recover jobs serve
    serve_kill serve_cluster serve_wipe kills =
  (* a member killed mid-write must be an EPIPE for the retrying
     client, not a kill of the whole soak *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let recovery =
    match Runspec.recovery_of_string (Option.value recover ~default:"") with
    | Ok p -> p
    | Error e ->
      failwith (Printf.sprintf "--recover %s: %s" (Option.get recover) e)
  in
  let kernels =
    match Runspec.kernels_matching kernel_filter with
    | Ok ks -> ks
    | Error e -> failwith (Printf.sprintf "--kernel: %s" e)
  in
  let preset =
    preset_of_flags ~serve ~serve_kill ~serve_cluster ~serve_wipe ~kills
  in
  let jobs = match jobs with Some j -> j | None -> Exec.Pool.default_jobs () in
  (* the service presets: live dfserve members every scenario replays
     through (scenario workers double as concurrent clients), and a
     killer domain running the preset's kill/restart cycles *)
  let replay, teardown =
    match preset with
    | None -> (None, fun () -> 0)
    | Some p ->
      let f = start p ~runs in
      let s = schedule ~master ~runs ~kills:p.kills in
      let kd = Domain.spawn (killer f s ~master) in
      ( Some (replay f s ~master ~recovery),
        fun () ->
          halt s;
          (try Domain.join kd
           with e ->
             Printf.eprintf "chaos: killer died: %s\n" (Printexc.to_string e));
          stop f;
          s.cycles )
  in
  let cycles = ref 0 in
  let indices = List.init runs Fun.id in
  let results, elapsed =
    Exec.Pool.timed (fun () ->
        Fun.protect
          ~finally:(fun () -> cycles := teardown ())
          (fun () ->
            Exec.Pool.map_result ~jobs
              (fun index ->
                let buf = Buffer.create 256 in
                let ok =
                  run_scenario ~master ~size ~waves ~recovery ~dir ~kernels
                    ~replay ~buf index
                in
                (Buffer.contents buf, ok))
              indices))
  in
  let failures = ref 0 in
  List.iter2
    (fun index r ->
      match r with
      | Ok (report, ok) ->
        print_string report;
        if not ok then incr failures
      | Error (e : Exec.Pool.error) ->
        incr failures;
        Printf.printf "FAIL #%03d raised %s\n" index e.Exec.Pool.message)
    indices results;
  let kills = match preset with Some p -> p.kills | None -> 0 in
  Printf.eprintf "chaos: %d scenarios in %.2fs (%d worker%s%s)\n" runs elapsed
    jobs
    (if jobs = 1 then "" else "s")
    (match preset with
    | Some p when p.kills > 0 -> Printf.sprintf ", %d %s cycles" !cycles p.cycle
    | _ -> "");
  if !failures > 0 then
    `Error
      (false, Printf.sprintf "%d of %d chaos scenarios failed" !failures runs)
  else if !cycles < kills then
    `Error
      (false, Printf.sprintf "only %d of %d kill/restart cycles ran" !cycles kills)
  else begin
    Printf.printf
      "all %d chaos scenarios survived: protected runs bit-identical to \
       clean%s\n"
      runs
      (match preset with Some p -> ", " ^ p.verdict | None -> "");
    `Ok ()
  end

let main_safe runs master size waves dir kernel recover jobs serve serve_kill
    serve_cluster serve_wipe kills =
  try
    main runs master size waves dir kernel recover jobs serve serve_kill
      serve_cluster serve_wipe kills
  with Failure msg -> `Error (false, msg)

let cmd =
  let open Cmdliner in
  let runs =
    Arg.(value & opt int 40
         & info [ "runs" ] ~docv:"N" ~doc:"number of randomized scenarios")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"master seed; scenario $(i,i) is a pure function of \
                   (seed, i), so the same seed replays the same soak")
  in
  let size =
    Arg.(value & opt int 8
         & info [ "size" ] ~docv:"N" ~doc:"kernel size parameter")
  in
  let waves =
    Arg.(value & opt int 2
         & info [ "waves" ] ~docv:"W" ~doc:"input waves to stream")
  in
  let dir =
    Arg.(value & opt string "chaos-reports"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"directory for failure dumps (created on first failure)")
  in
  let kernel =
    Arg.(value & opt (some string) None
         & info [ "kernel" ] ~docv:"NAME"
             ~doc:"restrict scenarios to a single kernel")
  in
  let recover =
    Arg.(value & opt (some string) None
         & info [ "recover" ] ~docv:"SPEC"
             ~doc:"recovery policy for every scenario (default: the \
                   standard policy); keys every, timeout, backoff, retries")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"worker domains (default: \\$(b,EXEC_JOBS) or the \
                   available cores); verdicts and repros are identical \
                   whatever the count")
  in
  let serve =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"additionally replay every scenario's protected faulted \
                   run through a live dfserve process (journal-less, never \
                   killed) and require the served response to reproduce \
                   the standalone run byte for byte (digest, end time, \
                   stall report)")
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
    Term.(ret (const main_safe $ runs $ seed $ size $ waves $ dir $ kernel
               $ recover $ jobs $ serve $ serve_kill $ serve_cluster
               $ serve_wipe $ kills))
  in
  Cmd.v
    (Cmd.info "chaos" ~version:"1.0"
       ~doc:"randomized fault soak: every protected run must match its \
             clean run bit for bit; failures are delta-debugged to a \
             minimal one-line repro")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
