(* lib/fault tests: PRNG and plan determinism, sanitizer negative paths,
   watchdog stall reports, and the kernel differential property — the
   paper's acknowledge discipline makes pipelines latency-insensitive,
   so delay-faulted runs must equal clean runs value for value. *)

open Dfg
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report
module V = Fault.Violation
module FD = Fault_diff
module Engine = Sim.Engine
module ME = Machine.Machine_engine

let ints xs = List.map (fun i -> Value.Int i) xs

(* a -> id -> out: the smallest pipeline with a real arc on each side *)
let tiny_pipeline () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let id = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:id ~port:0;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:id ~dst:out ~port:0;
  (g, a, id, out)

(* the paper's Figure 2 shape: two parallel arithmetic stages joined *)
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

(* ---------------- PRNG ---------------- *)

let test_prng_deterministic () =
  let xs seed = List.init 64 (fun _ -> Fault.Prng.int64 (Fault.Prng.create seed)) in
  let s1 = Fault.Prng.create 42 and s2 = Fault.Prng.create 42 in
  let seq g = List.init 64 (fun _ -> Fault.Prng.int64 g) in
  Alcotest.(check bool) "same seed, same stream" true (seq s1 = seq s2);
  Alcotest.(check bool) "different seed, different stream" true
    (xs 1 <> xs 2);
  (* keyed hashing is stateless: order of evaluation cannot matter *)
  let h1 = Fault.Prng.mix 7 [ 1; 2; 3 ] and h2 = Fault.Prng.mix 7 [ 1; 2; 3 ] in
  Alcotest.(check bool) "mix is pure" true (Int64.equal h1 h2);
  Alcotest.(check bool) "mix separates keys" true
    (not (Int64.equal (Fault.Prng.mix 7 [ 1; 2 ]) (Fault.Prng.mix 7 [ 2; 1 ])))

let test_plan_decisions_deterministic () =
  let plan = FP.make (FP.delays ~prob:0.5 ~max_delay:9 99) in
  let probe () =
    List.init 200 (fun i ->
        FP.result_delay plan ~time:i ~src:(i mod 7) ~dst:(i mod 5) ~port:0)
  in
  Alcotest.(check (list int)) "same plan, same decisions" (probe ()) (probe ());
  let hits = List.filter (fun d -> d > 0) (probe ()) in
  Alcotest.(check bool) "some sites selected" true (List.length hits > 20);
  Alcotest.(check bool) "magnitudes within bound" true
    (List.for_all (fun d -> d >= 1 && d <= 9) hits)

let test_plan_of_string () =
  (match FP.of_string "seed=7,delay=0.25,dup=0.5,drop-ack=0.1,stall=0.2" with
  | Ok s ->
    Alcotest.(check int) "seed" 7 s.FP.seed;
    Alcotest.(check (float 0.0)) "delay" 0.25 s.FP.delay_prob;
    Alcotest.(check (float 0.0)) "dup" 0.5 s.FP.dup_prob;
    Alcotest.(check (float 0.0)) "drop-ack" 0.1 s.FP.drop_ack_prob;
    Alcotest.(check (float 0.0)) "stall" 0.2 s.FP.stall_prob
  | Error e -> Alcotest.failf "unexpected parse error: %s" e);
  (match FP.of_string "seed=7,delay-max=3,fu-slow=2,am-slow=1" with
  | Ok s ->
    Alcotest.(check int) "delay-max" 3 s.FP.delay_max;
    Alcotest.(check int) "fu-slow" 2 s.FP.fu_slow;
    Alcotest.(check int) "am-slow" 1 s.FP.am_slow
  | Error e -> Alcotest.failf "unexpected parse error: %s" e);
  (match FP.of_string "delay=1.5" with
  | Ok _ -> Alcotest.fail "probability > 1 must be rejected"
  | Error _ -> ());
  (match FP.of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key must be rejected"
  | Error _ -> ());
  Alcotest.(check bool) "delay-only plan" true
    (FP.delay_only (FP.make (FP.delays 3)));
  Alcotest.(check bool) "dup plan is not delay-only" false
    (FP.delay_only (FP.make { FP.none with FP.seed = 1; dup_prob = 0.1 }))

(* ---------------- sanitizer: clean runs ---------------- *)

let test_sanitizer_clean_run () =
  let g = figure2 () in
  let inputs = fig2_inputs 24 in
  let plain = Engine.run_cfg Run_config.default g ~inputs in
  let checked =
    Engine.run_cfg
      Run_config.(default |> with_sanitizer (San.create g))
      g ~inputs
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map V.to_string checked.Engine.violations);
  Alcotest.(check int) "timing unchanged" plain.Engine.end_time
    checked.Engine.end_time;
  Alcotest.(check bool) "outputs unchanged" true
    (plain.Engine.outputs = checked.Engine.outputs);
  Alcotest.(check bool) "clean drain: no stall report" true
    (checked.Engine.stuck = None)

let test_sanitizer_clean_machine_run () =
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let arch = Machine.Arch.default in
  let plain = ME.run_cfg ME.default_config ~arch g ~inputs in
  let checked =
    ME.run_cfg
      Run_config.(ME.default_config |> with_sanitizer (San.create g))
      ~arch g ~inputs
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map V.to_string checked.ME.violations);
  Alcotest.(check int) "timing unchanged" plain.ME.end_time
    checked.ME.end_time;
  Alcotest.(check bool) "outputs unchanged" true
    (plain.ME.outputs = checked.ME.outputs)

(* ---------------- sanitizer: negative paths ---------------- *)

let test_arc_capacity_violation () =
  (* deliver twice into the same port without a consume: the
     one-token-per-arc invariant is broken *)
  let g, a, id, _ = tiny_pipeline () in
  let s = San.create g in
  Alcotest.(check bool) "first delivery is fine" true
    (San.on_deliver s ~time:1 ~src:a ~dst:id ~port:0 = None);
  (match San.on_deliver s ~time:2 ~src:a ~dst:id ~port:0 with
  | Some v ->
    Alcotest.(check bool) "kind arc-capacity" true (v.V.v_kind = V.Arc_capacity);
    Alcotest.(check bool) "fatal" true (V.fatal v.V.v_kind);
    Alcotest.(check int) "at the consumer" id v.V.v_node
  | None -> Alcotest.fail "second delivery must violate arc capacity");
  Alcotest.(check bool) "sanitizer tripped" true (San.tripped s)

let test_missing_ack_violation () =
  (* an acknowledge arriving at a cell that is owed none: the ack
     discipline is broken (e.g. a duplicated or misrouted ack) *)
  let g, a, _, _ = tiny_pipeline () in
  let s = San.create g in
  (match San.on_ack s ~time:3 ~dst:a with
  | Some v ->
    Alcotest.(check bool) "kind ack-underflow" true
      (v.V.v_kind = V.Ack_underflow);
    Alcotest.(check bool) "fatal" true (V.fatal v.V.v_kind)
  | None -> Alcotest.fail "unowed ack must violate");
  Alcotest.(check bool) "sanitizer tripped" true (San.tripped s)

let test_machine_dup_fault_caught () =
  (* duplicated result packets break the protocol; the sanitizer must
     record it (and the corrupted run must not silently equal clean) *)
  let g = figure2 () in
  let inputs = fig2_inputs 12 in
  let plan = FP.make { FP.none with FP.seed = 11; dup_prob = 1.0 } in
  let o = FD.machine ~plan g ~inputs in
  Alcotest.(check bool) "corruption detected" true
    (o.FD.faulted_violations <> []);
  Alcotest.(check bool) "a fatal kind was recorded" true
    (List.exists (fun v -> V.fatal v.V.v_kind) o.FD.faulted_violations)

let test_machine_drop_ack_conservation () =
  (* every ack lost: producers starve, the run wedges, and quiescence
     conservation reports the missing acknowledges *)
  let g = figure2 () in
  let inputs = fig2_inputs 6 in
  let plan = FP.make { FP.none with FP.seed = 13; drop_ack_prob = 1.0 } in
  let r =
    ME.run_cfg
      Run_config.(
        ME.default_config |> with_fault plan
        |> with_sanitizer (San.create g))
      ~arch:Machine.Arch.default g ~inputs
  in
  Alcotest.(check bool) "ack conservation violated" true
    (List.exists
       (fun v -> v.V.v_kind = V.Ack_conservation)
       r.ME.violations);
  match r.ME.stall with
  | None -> Alcotest.fail "starved producers must yield a stall report"
  | Some sr ->
    Alcotest.(check bool) "cells blocked on acks" true
      (List.exists
         (fun b -> b.SR.b_pending_acks > 0)
         sr.SR.sr_blocked)

let test_watchdog_no_progress () =
  (* with every packet delayed far beyond the window, the watchdog must
     stop the run and explain what it was waiting for *)
  let g = figure2 () in
  let inputs = fig2_inputs 8 in
  let plan = FP.make (FP.delays ~prob:1.0 ~max_delay:500 21) in
  let r =
    Engine.run_cfg
      Run_config.(default |> with_fault plan |> with_watchdog 4)
      g ~inputs
  in
  match r.Engine.stuck with
  | Some sr when sr.SR.sr_reason = SR.No_progress ->
    Alcotest.(check bool) "blocked cells listed" true (sr.SR.sr_blocked <> [])
  | Some sr ->
    Alcotest.failf "expected no-progress, got %s" (SR.reason_name sr.SR.sr_reason)
  | None -> Alcotest.fail "watchdog must produce a stall report"

let test_stall_report_cycle () =
  (* two primed cells waiting on each other: the wait-for graph has a
     cycle and the report should surface it *)
  let blocked =
    [
      { SR.b_node = 1; b_label = "x"; b_op = "ID"; b_missing = [ 0 ];
        b_held = []; b_pending_acks = 1; b_queue_len = 0; b_pending_inputs = 0 };
      { SR.b_node = 2; b_label = "y"; b_op = "ID"; b_missing = [ 0 ];
        b_held = []; b_pending_acks = 1; b_queue_len = 0; b_pending_inputs = 0 };
    ]
  in
  let sr =
    SR.make ~time:9 ~reason:SR.Deadlock ~blocked ~edges:[ (1, 2); (2, 1) ] ()
  in
  (match sr.SR.sr_cycle with
  | Some cycle -> Alcotest.(check bool) "cycle found" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected a wait-for cycle");
  Alcotest.(check bool) "to_string mentions the cycle" true
    (let s = SR.to_string sr in
     let rec has i =
       i + 14 <= String.length s && (String.sub s i 14 = "wait-for cycle" || has (i + 1))
     in
     has 0)

(* The stall report as it was rendered with Printf: the references
   [SR.blocked_line] and [SR.to_string] must match byte for byte. *)
let reference_blocked_line (b : SR.blocked) =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  if b.SR.b_held <> [] then
    add "holds %s"
      (String.concat ","
         (List.map
            (fun (port, v) -> Printf.sprintf "port%d=%s" port v)
            b.SR.b_held));
  if b.SR.b_queue_len > 0 then add "fifo(%d items)" b.SR.b_queue_len;
  if b.SR.b_pending_inputs > 0 then
    add "%d unsent inputs" b.SR.b_pending_inputs;
  if b.SR.b_missing <> [] then
    add "awaits port%s %s"
      (if List.length b.SR.b_missing > 1 then "s" else "")
      (String.concat "," (List.map string_of_int b.SR.b_missing));
  if b.SR.b_pending_acks > 0 then add "owed %d ack(s)" b.SR.b_pending_acks;
  Printf.sprintf "%s#%d %s" b.SR.b_label b.SR.b_node
    (String.concat "; " (List.rev !parts))

let reference_stall_to_string (t : SR.t) =
  let header =
    Printf.sprintf "stall (%s) at t=%d: %d blocked cell(s)"
      (SR.reason_name t.SR.sr_reason) t.SR.sr_time
      (List.length t.SR.sr_blocked)
  in
  let dead =
    match t.SR.sr_dead_pes with
    | [] -> []
    | pes ->
      [ Printf.sprintf "dead PE(s): %s (cells hosted there can never fire)"
          (String.concat "," (List.map string_of_int pes)) ]
  in
  let cycle =
    match t.SR.sr_cycle with
    | None -> []
    | Some ids ->
      [ Printf.sprintf "wait-for cycle: %s"
          (String.concat " -> "
             (List.map (fun id -> Printf.sprintf "#%d" id)
                (ids @ [ List.hd ids ]))) ]
  in
  String.concat "\n"
    ((header
     :: List.map (fun b -> "  " ^ reference_blocked_line b) t.SR.sr_blocked)
    @ dead @ cycle)
  ^ "\n"

let check_stall_rendering label sr =
  Alcotest.(check string) label (reference_stall_to_string sr) (SR.to_string sr);
  List.iter
    (fun b ->
      Alcotest.(check string) (label ^ ": blocked line")
        (reference_blocked_line b) (SR.blocked_line b))
    sr.SR.sr_blocked

let test_stall_rendering_oracle () =
  let runs = ref 0 and dead = ref 0 in
  List.iter
    (fun (k : Kernels.kernel) ->
      let _, cp =
        Compiler.Driver.compile_source ~scalar_inputs:k.Kernels.scalar_inputs
          (k.Kernels.source 16)
      in
      let g = cp.Compiler.Program_compile.cp_graph in
      let inputs =
        Compiler.Driver.feeds ~waves:1 cp (Kernels.seeded_inputs k 16)
      in
      let reports =
        [ (Engine.run_cfg Run_config.default g ~inputs).Engine.stuck;
          (ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs)
            .ME.stall;
          (* a PE that fail-stops with no recovery leaves dead PEs *)
          (ME.run_cfg
             Run_config.(
               ME.default_config
               |> with_fault
                    (FP.make
                       (Result.get_ok
                          (FP.of_string "seed=3,crash-pe=1,crash-at=20"))))
             ~arch:Machine.Arch.default g ~inputs)
            .ME.stall ]
      in
      List.iter
        (Option.iter (fun sr ->
             incr runs;
             if sr.SR.sr_dead_pes <> [] then incr dead;
             check_stall_rendering k.Kernels.name sr))
        reports)
    Kernels.all;
  Alcotest.(check bool) "one-wave runs end in stall reports" true (!runs >= 16);
  Alcotest.(check bool) "crashed runs report dead PEs" true (!dead > 0);
  (* every part of a blocked line, dead PEs and a wait-for cycle *)
  let cell node label ~held ~missing ~acks ~queued ~unsent =
    { SR.b_node = node; b_label = label; b_op = "ID"; b_missing = missing;
      b_held = held; b_pending_acks = acks; b_queue_len = queued;
      b_pending_inputs = unsent }
  in
  let blocked =
    [ cell 4 "a" ~held:[ (0, "1.5"); (2, "true") ] ~missing:[ 1; 3 ] ~acks:2
        ~queued:3 ~unsent:7;
      cell 5 "b" ~held:[] ~missing:[ 0 ] ~acks:1 ~queued:0 ~unsent:0;
      cell 6 "c" ~held:[ (1, "-7") ] ~missing:[] ~acks:0 ~queued:0 ~unsent:0;
      cell 12 "d" ~held:[] ~missing:[] ~acks:0 ~queued:0 ~unsent:0 ]
  in
  let sr =
    SR.make ~dead_pes:[ 0; 3 ] ~time:77 ~reason:SR.No_progress ~blocked
      ~edges:[ (4, 5); (5, 6); (6, 4); (12, 4) ] ()
  in
  Alcotest.(check bool) "the report has a cycle" true (sr.SR.sr_cycle <> None);
  check_stall_rendering "dead PEs and a cycle" sr;
  check_stall_rendering "max-time, no cycle"
    (SR.make ~time:1 ~reason:SR.Max_time_exhausted ~blocked:[ List.hd blocked ]
       ~edges:[] ())

let spec_gen =
  let open QCheck.Gen in
  (* probabilities on a 1/20 grid keep the generator simple; %.17g
     printing round-trips any float exactly, so the grid is not load-
     bearing for the property *)
  let prob = map (fun i -> float_of_int i /. 20.0) (int_range 0 20) in
  let* seed = int_range 0 100_000 in
  let* delay_prob = prob in
  let* delay_max = int_range 1 64 in
  let* dup_prob = prob in
  let* drop_ack_prob = prob in
  let* drop_prob = prob in
  let* stall_prob = prob in
  let* stall_max = int_range 1 64 in
  let* fu_slow = int_range 0 9 in
  let* am_slow = int_range 0 9 in
  let* crash_pe = int_range (-1) 7 in
  let* crash_at = int_range 0 1000 in
  let* corrupt_prob = prob in
  let* corrupt_ctl_prob = prob in
  return
    { FP.seed; delay_prob; delay_max; dup_prob; drop_ack_prob; drop_prob;
      stall_prob; stall_max; fu_slow; am_slow; crash_pe; crash_at;
      corrupt_prob; corrupt_ctl_prob }

let test_plan_string_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"plan to_string/of_string round-trip"
       (QCheck.make spec_gen ~print:FP.to_string)
       (fun s ->
         match FP.of_string (FP.to_string s) with
         | Ok s' -> s' = s
         | Error e -> QCheck.Test.fail_report e))

let test_engine_deadlock_cycle () =
  (* two primed ID cells feeding each other: each holds the other's
     token, so neither is ever granted its acknowledges.  The machine
     must quiesce immediately and the stall report must surface the
     wait-for cycle — this drives the cycle detector through a real
     engine run, not a hand-built blocked list. *)
  let g = Graph.create () in
  let x = Graph.add g Opcode.Id [| Graph.In_arc_init (Value.Int 1) |] in
  let y = Graph.add g Opcode.Id [| Graph.In_arc_init (Value.Int 2) |] in
  Graph.connect g ~src:x ~dst:y ~port:0;
  Graph.connect g ~src:y ~dst:x ~port:0;
  let r = ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs:[] in
  Alcotest.(check bool) "quiescent with work undone" true r.ME.quiescent;
  match r.ME.stall with
  | None -> Alcotest.fail "deadlocked machine must file a stall report"
  | Some sr ->
    Alcotest.(check bool) "reason deadlock" true (sr.SR.sr_reason = SR.Deadlock);
    Alcotest.(check int) "both cells blocked" 2 (List.length sr.SR.sr_blocked);
    (match sr.SR.sr_cycle with
    | Some cycle ->
      Alcotest.(check bool) "cycle covers both cells" true
        (List.sort compare cycle = [ x; y ]
        || List.length cycle >= 2)
    | None -> Alcotest.fail "wait-for cycle must be detected")

(* ---------------- determinism ---------------- *)

let test_machine_fault_determinism () =
  let g = figure2 () in
  let inputs = fig2_inputs 20 in
  let plan =
    FP.make
      { FP.seed = 77; delay_prob = 0.3; delay_max = 6; dup_prob = 0.0;
        drop_ack_prob = 0.0; drop_prob = 0.0; stall_prob = 0.2; stall_max = 5;
        fu_slow = 2; am_slow = 3; crash_pe = -1; crash_at = 0;
        corrupt_prob = 0.0; corrupt_ctl_prob = 0.0 }
  in
  let run () =
    ME.run_cfg
      Run_config.(
        ME.default_config |> with_fault plan
        |> with_sanitizer (San.create g))
      ~arch:Machine.Arch.default g ~inputs
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "end_time identical" r1.ME.end_time r2.ME.end_time;
  Alcotest.(check bool) "stats identical" true (r1.ME.stats = r2.ME.stats);
  Alcotest.(check bool) "outputs identical" true (r1.ME.outputs = r2.ME.outputs);
  Alcotest.(check int) "violations identical"
    (List.length r1.ME.violations)
    (List.length r2.ME.violations)

let test_am_fraction_nan () =
  let empty =
    { ME.dispatches = 0; fu_ops = 0; am_ops = 0; result_packets = 0;
      ack_packets = 0; retransmits = 0; corruptions = 0; corrupt_detected = 0;
      corrupt_healed = 0; pe_dispatches = [||] }
  in
  Alcotest.(check bool) "empty run has no AM fraction" true
    (Float.is_nan (ME.am_fraction empty));
  Alcotest.(check (float 1e-9)) "normal case unchanged" 0.25
    (ME.am_fraction { empty with ME.dispatches = 3; am_ops = 1 })

(* ---------------- the paper's property, kernel by kernel ---------------- *)

let test_kernels_latency_insensitive () =
  (* every kernel, 10 seeded delay-fault runs: output streams must be
     identical to the clean run (Section 3's acknowledge discipline
     makes the pipeline a Kahn network) *)
  let module D = Compiler.Driver in
  let module PC = Compiler.Program_compile in
  let module K = Kernels in
  let n = 12 and waves = 2 in
  let replicate xs = List.concat_map (fun _ -> xs) (List.init waves Fun.id) in
  List.iter
    (fun (k : K.kernel) ->
      let st = Random.State.make [| Hashtbl.hash k.K.name |] in
      let _, compiled =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
      in
      let kernel_inputs = k.K.inputs n st in
      let feeds =
        List.map
          (fun (name, _) ->
            (name, replicate (List.assoc name kernel_inputs)))
          compiled.PC.cp_inputs
      in
      List.iter
        (fun seed ->
          let plan = FP.make (FP.delays ~prob:0.3 ~max_delay:7 seed) in
          let o = FD.sim ~plan compiled.PC.cp_graph ~inputs:feeds in
          if not o.FD.equal then
            Alcotest.failf "%s seed %d: %s" k.K.name seed
              (FD.mismatch_to_string (List.hd o.FD.mismatches));
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %d sanitizer clean" k.K.name seed)
            []
            (List.map V.to_string o.FD.faulted_violations))
        (List.init 10 (fun i -> 1000 + (97 * i))))
    K.all

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "plan decisions deterministic" `Quick
      test_plan_decisions_deterministic;
    Alcotest.test_case "plan of_string" `Quick test_plan_of_string;
    Alcotest.test_case "sanitizer clean sim run" `Quick
      test_sanitizer_clean_run;
    Alcotest.test_case "sanitizer clean machine run" `Quick
      test_sanitizer_clean_machine_run;
    Alcotest.test_case "arc capacity violation" `Quick
      test_arc_capacity_violation;
    Alcotest.test_case "missing ack violation" `Quick
      test_missing_ack_violation;
    Alcotest.test_case "machine dup fault caught" `Quick
      test_machine_dup_fault_caught;
    Alcotest.test_case "machine drop-ack conservation" `Quick
      test_machine_drop_ack_conservation;
    Alcotest.test_case "watchdog no-progress report" `Quick
      test_watchdog_no_progress;
    Alcotest.test_case "stall report wait-for cycle" `Quick
      test_stall_report_cycle;
    test_plan_string_round_trip;
    Alcotest.test_case "engine-driven deadlock cycle" `Quick
      test_engine_deadlock_cycle;
    Alcotest.test_case "machine fault determinism" `Quick
      test_machine_fault_determinism;
    Alcotest.test_case "am_fraction nan on empty run" `Quick
      test_am_fraction_nan;
    Alcotest.test_case "kernels latency-insensitive under delay faults"
      `Quick test_kernels_latency_insensitive;
    Alcotest.test_case "stall report rendering = Printf reference" `Quick
      test_stall_rendering_oracle;
  ]
