(* lib/recover tests: checkpoint format round-trips, save/load/resume
   bit-identity, crash tolerance with and without a recovery policy,
   retransmission under lossy faults, and the crash differential across
   every kernel — the tentpole property: a PE-crashed machine that
   recovers must match the clean run value for value. *)

open Dfg
module ME = Machine.Machine_engine
module FP = Fault.Fault_plan
module SR = Fault.Stall_report
module V = Fault.Violation
module FD = Fault_diff
module CP = Recover.Checkpoint

let ints xs = List.map (fun i -> Value.Int i) xs

let figure2 () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let b = Graph.add g (Opcode.Input "b") [||] in
  let add =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:a ~dst:add ~port:0;
  Graph.connect g ~src:b ~dst:add ~port:1;
  let mul =
    Graph.add g (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_const (Value.Int 3) |]
  in
  Graph.connect g ~src:add ~dst:mul ~port:0;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:mul ~dst:out ~port:0;
  g

let fig2_inputs n =
  [ ("a", ints (List.init n Fun.id)); ("b", ints (List.init n (fun i -> 10 * i))) ]

(* a real-valued pipeline exercising awkward floats in checkpoints *)
let real_pipeline () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let neg = Graph.add g Opcode.Neg [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:neg ~port:0;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:neg ~dst:out ~port:0;
  g

let awkward_reals =
  [ 0.1; 1.0 /. 3.0; 1e-300; 4.9e-324 (* denormal *); -0.0; 1.5e300 ]

(* ---------------- policy spec ---------------- *)

let test_policy_spec () =
  (match Recover.of_string "" with
  | Ok p ->
    Alcotest.(check bool) "empty spec is default" true
      (p = Run_config.default_recovery)
  | Error e -> Alcotest.failf "empty spec: %s" e);
  (match Recover.of_string "every=0,timeout=10,backoff=3,retries=2" with
  | Ok p ->
    Alcotest.(check int) "every" 0 p.Run_config.checkpoint_every;
    Alcotest.(check int) "timeout" 10 p.Run_config.retransmit_after;
    Alcotest.(check int) "backoff" 3 p.Run_config.retransmit_backoff;
    Alcotest.(check int) "retries" 2 p.Run_config.max_retransmits;
    Alcotest.(check bool) "round-trip" true
      (Recover.of_string (Recover.to_string p) = Ok p)
  | Error e -> Alcotest.failf "unexpected parse error: %s" e);
  (match Recover.of_string "timeout=0" with
  | Ok _ -> Alcotest.fail "timeout=0 must be rejected"
  | Error _ -> ());
  (match Recover.of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key must be rejected"
  | Error _ -> ());
  Alcotest.(check bool) "default round-trip" true
    (Recover.of_string (Recover.to_string Run_config.default_recovery)
    = Ok Run_config.default_recovery)

(* One check, [Run_config.check], judges a configuration for every
   caller: the spec parser returns its message and both engines raise
   it, naming the spec key at fault. *)
let test_one_validity_check () =
  let g = figure2 () in
  let inputs = fig2_inputs 4 in
  let arch = Machine.Arch.default in
  let refusal what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument e -> e
  in
  let d = Run_config.default_recovery in
  List.iter
    (fun (spec, key, (policy : Run_config.recovery)) ->
      let msg =
        match Recover.of_string spec with
        | Ok _ -> Alcotest.failf "%s: parsed" spec
        | Error e -> e
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" spec msg key)
        true
        (String.starts_with ~prefix:(key ^ " ") msg);
      Alcotest.(check string) (spec ^ ": machine engine, same message") msg
        (refusal spec (fun () ->
             ME.create_cfg
               (Run_config.with_recovery policy ME.default_config)
               ~arch g ~inputs)))
    [ ("every=-1", "every", { d with checkpoint_every = -1 });
      ("timeout=0", "timeout", { d with retransmit_after = 0 });
      ("backoff=0", "backoff", { d with retransmit_backoff = 0 });
      ("retries=-1", "retries", { d with max_retransmits = -1 }) ];
  let cfg = Run_config.with_watchdog 0 Run_config.default in
  match Run_config.check cfg with
  | Ok () -> Alcotest.fail "watchdog 0 passed the check"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names the watchdog" msg)
      true
      (String.starts_with ~prefix:"watchdog " msg);
    Alcotest.(check string) "graph engine, same message" msg
      (refusal "graph engine" (fun () -> Sim.Engine.run_cfg cfg g ~inputs));
    Alcotest.(check string) "machine engine, same message" msg
      (refusal "machine engine" (fun () ->
           ME.create_cfg (Run_config.with_watchdog 0 ME.default_config) ~arch g
             ~inputs))

(* ---------------- checkpoint format ---------------- *)

(* A fresh machine of the saved run's configuration, restored from the
   snapshot and run to completion. *)
let resume cfg ~arch g ~inputs sn =
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.restore m sn;
  ME.advance m ~until:max_int;
  ME.result m

let test_checkpoint_json_round_trip () =
  let g = real_pipeline () in
  let inputs = [ ("a", List.map (fun f -> Value.Real f) awkward_reals) ] in
  let plan = FP.make (FP.delays ~prob:0.4 ~max_delay:5 31) in
  let m =
    ME.create_cfg
      Run_config.(
        default |> with_max_time ME.default_max_time |> with_fault plan
        |> with_sanitize true |> with_recovery default_recovery)
      ~arch:Machine.Arch.default g ~inputs
  in
  ME.advance m ~until:12;
  let sn = ME.snapshot m in
  (match CP.of_json ~arena:(Arena.build g) (CP.to_json ~graph:g sn) with
  | Ok sn' ->
    Alcotest.(check bool) "snapshot survives JSON round-trip (bit-exact)" true
      (CP.equal sn sn')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* a checkpoint from one program must not load against another *)
  let other = figure2 () in
  match CP.of_json ~arena:(Arena.build other) (CP.to_json ~graph:g sn) with
  | Ok _ -> Alcotest.fail "fingerprint mismatch must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the fingerprint" true
      (let rec has i =
         i + 11 <= String.length e
         && (String.sub e i 11 = "fingerprint" || has (i + 1))
       in
       has 0)

let test_save_load_resume_bit_identical () =
  (* acceptance: pause a faulted run mid-flight, save the checkpoint to
     disk, load it into a fresh machine, run both to completion — the
     resumed run must be bit-identical in outputs, timestamps and final
     stats to the run that never stopped *)
  let g = figure2 () in
  let inputs = fig2_inputs 24 in
  let plan = FP.make (FP.delays ~prob:0.3 ~max_delay:6 77) in
  let recovery = { Run_config.default_recovery with checkpoint_every = 20 } in
  let arch = Machine.Arch.default in
  let cfg =
    Run_config.(
      default |> with_max_time ME.default_max_time |> with_fault plan
      |> with_sanitize true |> with_recovery recovery)
  in
  let straight = ME.run_cfg cfg ~arch g ~inputs in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:40;
  Alcotest.(check bool) "paused, not finished" false (ME.finished m);
  let path = Filename.temp_file "dfsim-ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      CP.save ~path ~graph:g (ME.snapshot m);
      match CP.load ~path ~arena:(Arena.build g) with
      | Error e -> Alcotest.failf "load failed: %s" (CP.load_error_to_string e)
      | Ok sn ->
        Alcotest.(check bool) "disk round-trip exact" true
          (CP.equal sn (ME.snapshot m));
        let resumed = resume cfg ~arch g ~inputs sn in
        Alcotest.(check bool) "outputs and timestamps identical" true
          (resumed.ME.outputs = straight.ME.outputs);
        Alcotest.(check int) "end_time identical" straight.ME.end_time
          resumed.ME.end_time;
        Alcotest.(check bool) "stats identical" true
          (resumed.ME.stats = straight.ME.stats);
        Alcotest.(check (list string)) "sanitizer clean" []
          (List.map V.to_string resumed.ME.violations))

(* ---------------- crash faults ---------------- *)

let crash_plan ~seed ~pe ~at extra =
  FP.make { extra with FP.seed; crash_pe = pe; crash_at = at }

let test_crash_without_recovery_wedges () =
  (* fail-stop with no recovery policy: the dead PE's cells never fire
     again, the run wedges, and the stall report names the PE *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let clean = ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs in
  let plan = crash_plan ~seed:1 ~pe:2 ~at:30 FP.none in
  let r =
    ME.run_cfg
      Run_config.(ME.default_config |> with_fault plan)
      ~arch:Machine.Arch.default g ~inputs
  in
  Alcotest.(check int) "no recovery performed" 0 r.ME.recoveries;
  Alcotest.(check bool) "outputs incomplete" true
    (List.length (ME.output_values r "r")
    < List.length (ME.output_values clean "r"));
  match r.ME.stall with
  | None -> Alcotest.fail "crashed machine must file a stall report"
  | Some sr ->
    Alcotest.(check (list int)) "dead PE named" [ 2 ] sr.SR.sr_dead_pes;
    Alcotest.(check bool) "report mentions the dead PE" true
      (let s = SR.to_string sr in
       let rec has i =
         i + 7 <= String.length s && (String.sub s i 7 = "dead PE" || has (i + 1))
       in
       has 0)

let test_crash_with_recovery_equal () =
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let plan = crash_plan ~seed:1 ~pe:2 ~at:30 FP.none in
  let recovery = { Run_config.default_recovery with checkpoint_every = 25 } in
  let o = FD.machine ~recovery ~plan g ~inputs in
  if not o.FD.equal then
    Alcotest.failf "recovered run diverged: %s"
      (FD.mismatch_to_string (List.hd o.FD.mismatches));
  Alcotest.(check int) "exactly one recovery" 1 o.FD.faulted_recoveries;
  Alcotest.(check (list string)) "sanitizer clean through recovery" []
    (List.map V.to_string o.FD.faulted_violations)

let test_crash_on_input_host_recovers () =
  (* PE 0 hosts the Input cell feeding everything — the hardest loss *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let plan = crash_plan ~seed:2 ~pe:0 ~at:45 FP.none in
  let recovery = { Run_config.default_recovery with checkpoint_every = 30 } in
  let o = FD.machine ~recovery ~plan g ~inputs in
  Alcotest.(check bool) "outputs equal" true o.FD.equal;
  Alcotest.(check int) "one recovery" 1 o.FD.faulted_recoveries

(* ---------------- retransmission ---------------- *)

let lossy_outcome spec =
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let recovery = { Run_config.default_recovery with retransmit_after = 24 } in
  FD.machine ~recovery ~plan:(FP.make spec) g ~inputs

let test_drop_ack_recovered () =
  (* lost acknowledges starved producers fatally before; with
     retransmission the producer resends, the consumer re-acks, and the
     run completes clean *)
  let o = lossy_outcome { FP.none with FP.seed = 5; drop_ack_prob = 0.3 } in
  Alcotest.(check bool) "outputs equal under 30% ack loss" true o.FD.equal;
  Alcotest.(check (list string)) "no violations" []
    (List.map V.to_string o.FD.faulted_violations);
  match o.FD.faulted_snapshot with
  | None -> Alcotest.fail "machine differential must expose the snapshot"
  | Some sn ->
    Alcotest.(check bool) "retransmissions actually happened" true
      (sn.ME.sn_stats.ME.retransmits > 0)

let test_drop_result_recovered () =
  let o = lossy_outcome { FP.none with FP.seed = 6; drop_prob = 0.3 } in
  Alcotest.(check bool) "outputs equal under 30% packet loss" true o.FD.equal;
  Alcotest.(check (list string)) "no violations" []
    (List.map V.to_string o.FD.faulted_violations)

let test_dup_recovered () =
  (* duplicated packets were a sanitizer-fatal protocol breach; sequence
     numbers deduplicate them silently *)
  let o = lossy_outcome { FP.none with FP.seed = 7; dup_prob = 0.5 } in
  Alcotest.(check bool) "outputs equal under 50% duplication" true o.FD.equal;
  Alcotest.(check (list string)) "no violations" []
    (List.map V.to_string o.FD.faulted_violations)

let test_recovery_overhead_free_when_clean () =
  (* with no faults, a recovery-enabled run must match a plain run
     exactly — the protocol may not perturb values or timing *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let arch = Machine.Arch.default in
  let plain = ME.run_cfg ME.default_config ~arch g ~inputs in
  let recovered =
    ME.run_cfg
      Run_config.(ME.default_config |> with_recovery default_recovery)
      ~arch g ~inputs
  in
  Alcotest.(check bool) "outputs identical" true
    (plain.ME.outputs = recovered.ME.outputs);
  Alcotest.(check int) "end_time identical" plain.ME.end_time
    recovered.ME.end_time;
  Alcotest.(check int) "no spurious retransmissions" 0
    recovered.ME.stats.ME.retransmits

(* ---------------- the tentpole property, kernel by kernel ---------------- *)

let test_kernels_crash_differential () =
  (* every kernel, 10 seeded crash+delay plans: the recovered machine
     run must equal the clean run value for value with zero sanitizer
     violations — checkpoint/rollback/re-host/replay is output-invisible *)
  let module D = Compiler.Driver in
  let module PC = Compiler.Program_compile in
  let module K = Kernels in
  let n = 8 and waves = 2 in
  let replicate xs = List.concat_map (fun _ -> xs) (List.init waves Fun.id) in
  let total_recoveries = ref 0 in
  List.iter
    (fun (k : K.kernel) ->
      let st = Random.State.make [| Hashtbl.hash k.K.name |] in
      let _, compiled =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
      in
      let kernel_inputs = k.K.inputs n st in
      let feeds =
        List.map
          (fun (name, _) -> (name, replicate (List.assoc name kernel_inputs)))
          compiled.PC.cp_inputs
      in
      List.iter
        (fun seed ->
          let plan =
            crash_plan ~seed
              ~pe:(seed mod 8)
              ~at:(40 + (5 * (seed mod 20)))
              (FP.delays ~prob:0.1 ~max_delay:5 seed)
          in
          let recovery =
            { Run_config.default_recovery with checkpoint_every = 40 }
          in
          let o =
            FD.machine ~recovery ~plan compiled.PC.cp_graph ~inputs:feeds
          in
          total_recoveries := !total_recoveries + o.FD.faulted_recoveries;
          if not o.FD.equal then
            Alcotest.failf "%s seed %d: %s" k.K.name seed
              (FD.mismatch_to_string (List.hd o.FD.mismatches));
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %d sanitizer clean" k.K.name seed)
            []
            (List.map V.to_string o.FD.faulted_violations))
        (List.init 10 (fun i -> 500 + (131 * i))))
    K.all;
  (* the property must not pass vacuously: most of the 80 plans crash a
     PE mid-run and every such run performs exactly one recovery *)
  Alcotest.(check bool)
    (Printf.sprintf "crashes actually recovered (%d)" !total_recoveries)
    true
    (!total_recoveries >= 40)

let test_generator_tail_quiesces_under_ack_loss () =
  (* hydro's windowing cells are fed by free-running CTL generators
     whose final token parks on an arc forever.  Under recovery that
     token's retransmission timer must neither keep the machine awake
     (the run must still quiesce) nor burn the retry budget while the
     token is merely resident at a slow consumer (regression: the
     consume-time acknowledge then had no retries left and a 15% ack
     loss wedged the run with an ack-conservation violation). *)
  let module D = Compiler.Driver in
  let module PC = Compiler.Program_compile in
  let module K = Kernels in
  let n = 8 and waves = 2 in
  let k = List.find (fun (k : K.kernel) -> k.K.name = "hydro") K.all in
  let st = Random.State.make [| Hashtbl.hash k.K.name |] in
  let _, compiled =
    D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
  in
  let kernel_inputs = k.K.inputs n st in
  let feeds =
    List.map
      (fun (name, _) ->
        (name, List.concat (List.init waves (fun _ -> List.assoc name kernel_inputs))))
      compiled.PC.cp_inputs
  in
  List.iter
    (fun seed ->
      let plan =
        FP.make
          { FP.none with FP.seed; delay_prob = 0.25; drop_ack_prob = 0.15 }
      in
      let recovery = Run_config.default_recovery in
      let watchdog =
        100
        + (4 * FP.none.FP.delay_max)
        + (17 * recovery.Run_config.retransmit_after)
      in
      let o =
        FD.machine ~watchdog ~recovery ~plan compiled.PC.cp_graph ~inputs:feeds
      in
      if not o.FD.equal then
        Alcotest.failf "hydro seed %d: %s" seed
          (FD.mismatch_to_string (List.hd o.FD.mismatches));
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d sanitizer clean" seed)
        []
        (List.map V.to_string o.FD.faulted_violations);
      match o.FD.faulted_stall with
      | None -> ()
      | Some sr ->
        (* residual generator tokens surface as a quiescent deadlock
           report, never as a watchdog no-progress trip *)
        Alcotest.(check bool)
          (Printf.sprintf "seed %d quiesced (got %s)" seed (SR.to_string sr))
          true
          (sr.SR.sr_reason = SR.Deadlock))
    [ 101; 202; 303 ]

(* ---------------- resume = straight run ---------------- *)

let kernel_feeds (k : Kernels.kernel) ~n ~waves =
  let st = Random.State.make [| Hashtbl.hash k.Kernels.name |] in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.Kernels.scalar_inputs
      (k.Kernels.source n)
  in
  let wave = k.Kernels.inputs n st in
  ( compiled.Compiler.Program_compile.cp_graph,
    List.map
      (fun (name, _) ->
        (name, List.concat (List.init waves (fun _ -> List.assoc name wave))))
      compiled.Compiler.Program_compile.cp_inputs )

let test_resume_matrix () =
  (* a crash-faulted run paused anywhere — before the crash, between
     crash and rollback target, after recovery — then carried through
     the JSON codec and resumed must finish exactly as the run that
     never paused: same outputs and timestamps, stats, checkpoint and
     recovery counts, stall text *)
  let arch = Machine.Arch.default in
  let resumed = ref 0 in
  List.iter
    (fun (k : Kernels.kernel) ->
      let g, inputs = kernel_feeds k ~n:16 ~waves:4 in
      List.iter
        (fun (pe, at) ->
          let cfg =
            Run_config.(
              ME.default_config
              |> with_fault (crash_plan ~seed:1 ~pe ~at FP.none)
              |> with_recovery default_recovery)
          in
          let straight = ME.run_cfg cfg ~arch g ~inputs in
          List.iter
            (fun pause ->
              let m = ME.create_cfg cfg ~arch g ~inputs in
              ME.advance m ~until:pause;
              if not (ME.finished m) then begin
                incr resumed;
                let doc =
                  Obs.Json.of_string
                    (Obs.Json.to_string
                       (CP.to_json ~graph:g (ME.snapshot m)))
                in
                match CP.of_json ~arena:(Arena.build g) doc with
                | Error e -> Alcotest.failf "%s: %s" k.Kernels.name e
                | Ok sn ->
                  let r = resume cfg ~arch g ~inputs sn in
                  if compare r straight <> 0 then
                    Alcotest.failf
                      "%s crash-pe=%d,crash-at=%d paused at %d: resumed run \
                       ends at %d with %d recoveries, %d dispatches; \
                       straight run ends at %d with %d recoveries, %d \
                       dispatches"
                      k.Kernels.name pe at pause r.ME.end_time
                      r.ME.recoveries r.ME.stats.ME.dispatches
                      straight.ME.end_time straight.ME.recoveries
                      straight.ME.stats.ME.dispatches
              end)
            [ 30; 100; 300; 1000 ])
        [ (0, 40); (1, 120); (2, 250); (3, 600) ])
    Kernels.all;
  Alcotest.(check bool)
    (Printf.sprintf "most runs paused mid-flight (%d)" !resumed)
    true (!resumed >= 100)

(* A queued event names the arc it travels by its consumer-side port,
   and the engine reads producer, consumer cell and local port back from
   the arena by it, unchecked.  A port past the arena's, a negative one
   and a constant port (no cell produces into it, so an acknowledge
   would go to no cell) are each an [Error] from [of_json] naming the
   event, and [restore] refuses each before it writes anything. *)
let test_tampered_events_rejected () =
  let k = List.find (fun k -> k.Kernels.name = "hydro") Kernels.all in
  let g, inputs = kernel_feeds k ~n:16 ~waves:2 in
  let cfg =
    Run_config.with_recovery Run_config.default_recovery ME.default_config
  in
  let arch = Machine.Arch.default in
  let arena = Arena.build g in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:143;
  let sn = ME.snapshot m in
  let text () = Obs.Json.to_string (CP.to_json ~graph:g (ME.snapshot m)) in
  let before = text () in
  (match CP.of_json ~arena (CP.to_json ~graph:g sn) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "untampered checkpoint rejected: %s" e);
  if Array.length sn.ME.sn_events = 0 then
    Alcotest.fail "no event queued at t=143";
  (* [sn] with its first queued event moved to port [p] *)
  let with_port p =
    let events = Array.copy sn.ME.sn_events in
    let t, ev = events.(0) in
    events.(0) <-
      ( t,
        match ev with
        | ME.Deliver d -> ME.Deliver { d with port = p }
        | ME.Ack a -> ME.Ack { a with port = p }
        | ME.Retransmit r -> ME.Retransmit { r with port = p } );
    { sn with ME.sn_events = events }
  in
  let const_port =
    let rec go p =
      if p >= arena.Arena.n_ports then Alcotest.fail "hydro has no const port"
      else if arena.Arena.port_kind.(p) = Arena.kind_const then p
      else go (p + 1)
    in
    go 0
  in
  List.iter
    (fun (label, p) ->
      (match CP.of_json ~arena (CP.to_json ~graph:g (with_port p)) with
      | Ok _ -> Alcotest.failf "%s: decoded" label
      | Error e ->
        Alcotest.(check string) (label ^ ": the error names the event")
          "events[0]" (String.sub e 0 (min 9 (String.length e))));
      (match ME.restore m (with_port p) with
      | () -> Alcotest.failf "%s: restored" label
      | exception Invalid_argument _ -> ());
      Alcotest.(check string) (label ^ ": snapshot unchanged") before (text ()))
    [ ("port at n_ports", arena.Arena.n_ports); ("negative port", -1);
      ("const port with no producer", const_port) ];
  ME.advance m ~until:max_int;
  let straight = ME.run_cfg cfg ~arch g ~inputs and resumed = ME.result m in
  Alcotest.(check int) "end time after refused restores"
    straight.ME.end_time resumed.ME.end_time;
  Alcotest.(check bool) "outputs after refused restores" true
    (straight.ME.outputs = resumed.ME.outputs)

(* [doc] with field [name] mapped through [f] *)
let map_field doc name f =
  match doc with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map (fun (k, x) -> (k, if k = name then f x else x)) fields)
  | _ -> Alcotest.fail "checkpoint field is not an object"

(* A document whose PE numbers, cursors or per-PE arrays do not fit the
   machine decodes cleanly; unchecked, it fails only inside the engine,
   with an index, [Ctlseq.nth] or [Array.blit] error.  [restore] refuses
   each before it changes any state, naming the field, the cell and the
   bound.  Each case: the field altered, how, and the message. *)
let tampered_state_cases ~n_pe =
  let ints v = function
    | Obs.Json.List xs -> Obs.Json.List (List.map (fun _ -> Obs.Json.Int v) xs)
    | j -> j
  in
  let prefix = "Machine_engine.restore: " in
  [ ("pe", ints 1_000_000,
     Printf.sprintf "%spe of cell 0 is 1000000, outside the arch's PEs 0..%d"
       prefix (n_pe - 1));
    ("cur", ints (-5), prefix ^ "cur of cell 0 is -5, below 0");
    ("pe_dead", (fun _ -> Obs.Json.List [ Obs.Json.Bool false ]),
     Printf.sprintf "%spe_dead has length 1, the arch has %d PEs" prefix n_pe);
    ("stats",
     (fun stats ->
       map_field stats "pe_dispatches" (fun _ ->
           Obs.Json.List [ Obs.Json.Int 0 ])),
     Printf.sprintf "%spe_dispatches has length 1, the arch has %d PEs" prefix
       n_pe) ]

let test_tampered_state_rejected () =
  let k = List.find (fun k -> k.Kernels.name = "hydro") Kernels.all in
  let g, inputs = kernel_feeds k ~n:8 ~waves:4 in
  let cfg = ME.default_config and arch = Machine.Arch.default in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:50;
  let doc = CP.to_json ~graph:g (ME.snapshot m) in
  List.iter
    (fun (field, f, expected) ->
      match CP.of_json ~arena:(Arena.build g) (map_field doc field f) with
      | Error e -> Alcotest.failf "%s: the decoder rejects it: %s" field e
      | Ok sn -> (
        match ME.restore m sn with
        | () -> Alcotest.failf "%s: restore accepted it" field
        | exception Invalid_argument e ->
          Alcotest.(check string) (field ^ " rejected") expected e))
    (tampered_state_cases ~n_pe:arch.Machine.Arch.n_pe);
  (* the refused restores left the paused machine as it was *)
  ME.advance m ~until:max_int;
  let straight = ME.run_cfg cfg ~arch g ~inputs and resumed = ME.result m in
  Alcotest.(check int) "end time after refused restores"
    straight.ME.end_time resumed.ME.end_time;
  Alcotest.(check bool) "outputs after refused restores" true
    (straight.ME.outputs = resumed.ME.outputs)

(* A value object is exactly one member: an operand slot whose object
   carries a second one is refused by the decoder, naming the field. *)
let test_value_extra_member_rejected () =
  let k = List.find (fun k -> k.Kernels.name = "hydro") Kernels.all in
  let g, inputs = kernel_feeds k ~n:8 ~waves:4 in
  let m =
    ME.create_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs
  in
  ME.advance m ~until:50;
  let doc = CP.to_json ~graph:g (ME.snapshot m) in
  let widened = ref false in
  let widen = function
    | Obs.Json.Obj kvs when not !widened ->
      widened := true;
      Obs.Json.Obj (kvs @ [ ("x", Obs.Json.Int 0) ])
    | v -> v
  in
  let doc =
    map_field doc "ops" (function
      | Obs.Json.List slots -> Obs.Json.List (List.map widen slots)
      | j -> j)
  in
  Alcotest.(check bool) "a slot was widened" true !widened;
  match CP.of_json ~arena:(Arena.build g) doc with
  | Ok _ -> Alcotest.fail "a value object with two members decoded"
  | Error e ->
    Alcotest.(check bool) ("the error names ops: " ^ e) true
      (String.length e >= 4 && String.sub e 0 4 = "ops:")

(* Every array a format-5 document carries, cut to its first entry, a
   FIFO filled past its capacity, a reshaped or missing sanitizer
   section, an event due at the snapshot's time and events listed out
   of time order each decode cleanly.  [restore] refuses each before it writes
   anything, naming the field: the paused machine's snapshot text is
   unchanged, and the machine then runs to the straight run's end. *)
let test_restore_all_or_nothing () =
  let k = List.find (fun k -> k.Kernels.name = "hydro") Kernels.all in
  let g, inputs = kernel_feeds k ~n:8 ~waves:4 in
  let cfg =
    Run_config.(
      ME.default_config |> with_recovery default_recovery |> with_sanitize true)
  in
  let arch = Machine.Arch.default in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:50;
  let text () = Obs.Json.to_string (CP.to_json ~graph:g (ME.snapshot m)) in
  let before = text () in
  let doc = CP.to_json ~graph:g (ME.snapshot m) in
  let first = function
    | Obs.Json.List (x :: _) -> Obs.Json.List [ x ]
    | j -> Alcotest.failf "not a non-empty list: %s" (Obs.Json.to_string j)
  in
  let fifo, cap =
    let a = Arena.build g in
    let rec go id =
      if id >= a.Arena.n then Alcotest.fail "hydro has no FIFO"
      else
        match a.Arena.ops.(id) with
        | Opcode.Fifo k -> (id, max k 1)
        | _ -> go (id + 1)
    in
    go 0
  in
  let overfill = function
    | Obs.Json.List qs ->
      Obs.Json.List
        (List.mapi
           (fun id q ->
             if id = fifo then
               Obs.Json.List
                 (List.init (cap + 1) (fun _ ->
                      Obs.Json.Obj [ ("i", Obs.Json.Int 0) ]))
             else q)
           qs)
    | j -> j
  in
  let cut_row = function
    | Obs.Json.List rows ->
      Obs.Json.List
        (List.map
           (function Obs.Json.List (_ :: rest) -> Obs.Json.List rest | r -> r)
           rows)
    | j -> j
  in
  let due_now = function
    | Obs.Json.List (e :: rest) ->
      Obs.Json.List
        (map_field e "at" (fun _ -> Obs.Json.member "time" doc) :: rest)
    | j -> Alcotest.failf "no event queued: %s" (Obs.Json.to_string j)
  in
  let reversed = function
    | Obs.Json.List es -> Obs.Json.List (List.rev es)
    | j -> j
  in
  let cases =
    List.map
      (fun field -> (field, field, first))
      [ "pe"; "acks"; "cur"; "fifo"; "col"; "ops"; "cons"; "recv"; "sent";
        "att"; "outv"; "cpend" ]
    @ [ ("fifo past its capacity", "fifo", overfill);
        ("sanitizer owed", "sanitizer",
         fun san -> map_field san "owed" first);
        ("sanitizer occ rows", "sanitizer", fun san -> map_field san "occ" cut_row);
        ("no sanitizer section", "sanitizer", fun _ -> Obs.Json.Null);
        ("an event due at the snapshot's time", "events", due_now);
        ("events out of time order", "events", reversed) ]
  in
  List.iter
    (fun (label, field, f) ->
      match CP.of_json ~arena:(Arena.build g) (map_field doc field f) with
      | Error e -> Alcotest.failf "%s: the decoder rejects it: %s" label e
      | Ok sn -> (
        (match ME.restore m sn with
        | () -> Alcotest.failf "%s: restore accepted it" label
        | exception Invalid_argument e ->
          let named = "Machine_engine.restore: " ^ field in
          Alcotest.(check string)
            (label ^ " rejected, naming the field")
            named
            (String.sub e 0 (min (String.length e) (String.length named))));
        Alcotest.(check string) (label ^ ": snapshot unchanged") before (text ())))
    cases;
  ME.advance m ~until:max_int;
  let straight = ME.run_cfg cfg ~arch g ~inputs and resumed = ME.result m in
  Alcotest.(check int) "end time after refused restores"
    straight.ME.end_time resumed.ME.end_time;
  Alcotest.(check bool) "outputs after refused restores" true
    (straight.ME.outputs = resumed.ME.outputs)

(* Retransmission timers due past the event queue's horizon wait in its
   overflow and move into their buckets as time nears them.  A run whose
   recovery timeout is several horizons long loses acknowledges, so
   timers from the overflow resend packets; paused anywhere and resumed
   through the JSON codec, it finishes exactly as the run that never
   paused, with the clean run's values. *)
let test_overflow_timers_resume () =
  let arch = Machine.Arch.default in
  let values (r : ME.result) =
    List.map (fun (name, pkts) -> (name, List.map snd pkts)) r.ME.outputs
  in
  let resumed = ref 0 in
  List.iter
    (fun (k : Kernels.kernel) ->
      let g, inputs = kernel_feeds k ~n:8 ~waves:2 in
      let arena = Arena.build g in
      let cfg =
        Run_config.(
          ME.default_config
          |> with_fault
               (FP.make { FP.none with FP.seed = 3; drop_ack_prob = 0.05 })
          |> with_recovery
               { default_recovery with
                 retransmit_after = 3 * ME.Wheel.horizon })
      in
      let straight = ME.run_cfg cfg ~arch g ~inputs in
      let clean = ME.run_cfg ME.default_config ~arch g ~inputs in
      Alcotest.(check bool)
        (k.Kernels.name ^ ": clean values") true
        (straight.ME.quiescent && values straight = values clean);
      List.iter
        (fun pause ->
          let m = ME.create_arena cfg ~arch arena ~inputs in
          ME.advance m ~until:pause;
          if not (ME.finished m) then begin
            incr resumed;
            let doc =
              Obs.Json.of_string
                (Obs.Json.to_string (CP.to_json ~graph:g (ME.snapshot m)))
            in
            match CP.of_json ~arena doc with
            | Error e -> Alcotest.failf "%s: %s" k.Kernels.name e
            | Ok sn ->
              if compare (resume cfg ~arch g ~inputs sn) straight <> 0 then
                Alcotest.failf "%s paused at %d: resumed run differs"
                  k.Kernels.name pause
          end)
        [ 40; 400; 2000; 5000 ])
    Kernels.all;
  Alcotest.(check bool)
    (Printf.sprintf "most runs paused mid-flight (%d)" !resumed)
    true (!resumed >= 16)

let suite =
  [
    Alcotest.test_case "recovery policy spec" `Quick test_policy_spec;
    Alcotest.test_case "checkpoint JSON round-trip" `Quick
      test_checkpoint_json_round_trip;
    Alcotest.test_case "save/load/resume bit-identical" `Quick
      test_save_load_resume_bit_identical;
    Alcotest.test_case "crash without recovery wedges" `Quick
      test_crash_without_recovery_wedges;
    Alcotest.test_case "crash with recovery equals clean" `Quick
      test_crash_with_recovery_equal;
    Alcotest.test_case "crash on input-host PE recovers" `Quick
      test_crash_on_input_host_recovers;
    Alcotest.test_case "drop-ack survived by retransmission" `Quick
      test_drop_ack_recovered;
    Alcotest.test_case "drop survived by retransmission" `Quick
      test_drop_result_recovered;
    Alcotest.test_case "dup deduplicated by sequence numbers" `Quick
      test_dup_recovered;
    Alcotest.test_case "recovery overhead-free on clean runs" `Quick
      test_recovery_overhead_free_when_clean;
    Alcotest.test_case "kernels crash differential" `Quick
      test_kernels_crash_differential;
    Alcotest.test_case "generator tail quiesces under ack loss" `Quick
      test_generator_tail_quiesces_under_ack_loss;
    Alcotest.test_case "crash matrix: resumed run = straight run" `Quick
      test_resume_matrix;
    Alcotest.test_case "tampered checkpoint events rejected" `Quick
      test_tampered_events_rejected;
    Alcotest.test_case "tampered PE, cursor and pe_dead fields rejected"
      `Quick test_tampered_state_rejected;
    Alcotest.test_case "a refused restore writes nothing" `Quick
      test_restore_all_or_nothing;
    Alcotest.test_case "one validity check: spec and both engines" `Quick
      test_one_validity_check;
    Alcotest.test_case "timers past the queue's horizon: resumed = straight"
      `Quick test_overflow_timers_resume;
    Alcotest.test_case "a value object with an extra member is refused"
      `Quick test_value_extra_member_rejected;
  ]
