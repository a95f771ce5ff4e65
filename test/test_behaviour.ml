(* Engine behaviour pinned across commits: every kernel runs in a fixed
   set of engine configurations, and a digest of each run's complete
   outcome — outputs with their arrival times, stats, checkpoint and
   recovery counts, stall text and violations — must equal a recorded
   constant.  The value-level differential tests would pass a change
   that shifts a single timestamp; this one does not.  A change that
   alters timing on purpose re-records the table: the failure message
   prints the digests the build under test produced. *)

open Dfg
module ME = Machine.Machine_engine
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report
module V = Fault.Violation
module K = Kernels
module PC = Compiler.Program_compile

let size = 12
let waves = 3

let subject (k : K.kernel) =
  let st = Random.State.make [| 7; Hashtbl.hash k.K.name |] in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let wave = k.K.inputs size st in
  let inputs =
    List.map
      (fun (name, _) ->
        (name, List.concat (List.init waves (fun _ -> List.assoc name wave))))
      compiled.PC.cp_inputs
  in
  (compiled.PC.cp_graph, inputs)

(* ---- outcome rendering: every field ---- *)

(* Reals to 12 significant digits: planckian's [exp] comes from the C
   library, whose last bit may differ between platforms; timings and
   every other field are exact. *)
let value = function
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Real f -> Printf.sprintf "%.12g" f

let outputs b outs =
  List.iter
    (fun (name, pkts) ->
      Buffer.add_string b name;
      List.iter
        (fun (t, v) -> Printf.bprintf b " %d:%s" t (value v))
        pkts;
      Buffer.add_char b '\n')
    outs

let tail b ~stall ~violations =
  Buffer.add_string b
    (match stall with None -> "no stall" | Some sr -> SR.to_string sr);
  List.iter (fun v -> Printf.bprintf b "\n%s" (V.to_string v)) violations

let sim_digest (r : Sim.Engine.result) =
  let b = Buffer.create 4096 in
  outputs b r.Sim.Engine.outputs;
  Array.iter (Printf.bprintf b "%d,") r.Sim.Engine.fire_counts;
  Printf.bprintf b "\nend=%d quiescent=%b\n" r.Sim.Engine.end_time
    r.Sim.Engine.quiescent;
  tail b ~stall:r.Sim.Engine.stuck ~violations:r.Sim.Engine.violations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let machine_digest (r : ME.result) =
  let b = Buffer.create 4096 in
  outputs b r.ME.outputs;
  let s = r.ME.stats in
  Printf.bprintf b "%d %d %d %d %d %d %d %d %d [" s.ME.dispatches s.ME.fu_ops
    s.ME.am_ops s.ME.result_packets s.ME.ack_packets s.ME.retransmits
    s.ME.corruptions s.ME.corrupt_detected s.ME.corrupt_healed;
  Array.iter (Printf.bprintf b "%d,") s.ME.pe_dispatches;
  Printf.bprintf b "]\nend=%d quiescent=%b checkpoints=%d recoveries=%d\n"
    r.ME.end_time r.ME.quiescent r.ME.checkpoints r.ME.recoveries;
  tail b ~stall:r.ME.stall ~violations:r.ME.violations;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- the configurations ---- *)

let seed = 4242

let configs :
    (string * (Graph.t -> (string * Value.t list) list -> string)) list =
  let sim cfg g inputs = sim_digest (Sim.Engine.run_cfg (cfg g) g ~inputs) in
  let machine cfg g inputs =
    machine_digest (ME.run_cfg (cfg g) ~arch:Machine.Arch.default g ~inputs)
  in
  let delays = FP.delays ~prob:0.25 ~max_delay:6 seed in
  let rec_ = Run_config.with_recovery ME.default_recovery in
  let with_plan spec = Run_config.with_fault (FP.make spec) in
  let san g = Run_config.with_sanitizer (San.create g) in
  [ ("sim clean", sim (fun _ -> Run_config.default));
    ("sim delay",
     sim (fun g -> Run_config.(default |> with_plan delays |> san g)));
    ("machine clean", machine (fun _ -> ME.default_config));
    ("machine delay",
     machine (fun g -> ME.default_config |> with_plan delays |> san g));
    ("machine dup+drop-ack recover",
     machine (fun g ->
         ME.default_config
         |> with_plan
              { FP.none with FP.seed; dup_prob = 0.1; drop_ack_prob = 0.1 }
         |> rec_ |> san g));
    ("machine crash recover",
     machine (fun _ ->
         ME.default_config
         |> with_plan { delays with FP.crash_pe = 1; crash_at = 150 }
         |> rec_));
    ("machine crash no-recover",
     machine (fun _ ->
         ME.default_config
         |> with_plan { FP.none with FP.seed; crash_pe = 2; crash_at = 90 }));
    ("machine corrupt integrity recover",
     machine (fun _ ->
         ME.default_config
         |> with_plan
              { FP.none with
                FP.seed; corrupt_prob = 0.05; corrupt_ctl_prob = 0.05 }
         |> rec_ |> Run_config.with_integrity true)) ]

(* Recorded on the commit before the machine engine moved onto the
   shared run-state layout; a straight run must still produce them. *)
let expected =
  [
    ("hydro", "sim clean", "a8118c64543f7c5be67fb72f7830710a");
    ("hydro", "sim delay", "6133e12917eb49fb648b14581ee6ae9d");
    ("hydro", "machine clean", "029013603ca68808d919e6839b84107b");
    ("hydro", "machine delay", "257c91120a88ab11034144e94162e3c7");
    ("hydro", "machine dup+drop-ack recover", "e3d3702c67f4dcbb4c373f8d830d8a3c");
    ("hydro", "machine crash recover", "026e4f69ff83d287b6778a2d355b1ce0");
    ("hydro", "machine crash no-recover", "c45132e95aee92cea02e23f257f1771c");
    ("hydro", "machine corrupt integrity recover", "d8ef5309a4a130c9d9f31023825f8195");
    ("first_difference", "sim clean", "c843fe5dfa14f9538c66df3aa12b736f");
    ("first_difference", "sim delay", "db7c21143645a0ebbf77272c7a3c1ffd");
    ("first_difference", "machine clean", "aee21de092086d8d48343457cdb4c10a");
    ("first_difference", "machine delay", "81c330118a55900c18859c91e0601a94");
    ("first_difference", "machine dup+drop-ack recover", "59623cdbcae11aac69ceed9f4a458710");
    ("first_difference", "machine crash recover", "3ab73345d0e6b32c83951f0a4fdaf93b");
    ("first_difference", "machine crash no-recover", "2ddd25fa5ce608e0b81e60c343287db1");
    ("first_difference", "machine corrupt integrity recover", "42ccd9e0e4ae2410109ecf72c16d5371");
    ("state_eos", "sim clean", "5e1a19da86ab9ba42a880b89d44551b4");
    ("state_eos", "sim delay", "b0d7244dd86502579a740df260a4d7f4");
    ("state_eos", "machine clean", "ab768e6066b52eeea6b0e136b5c8995b");
    ("state_eos", "machine delay", "24134e2fe55ee87820956f5bb3bed3c2");
    ("state_eos", "machine dup+drop-ack recover", "28360ebf72d259406fb406d593911cc4");
    ("state_eos", "machine crash recover", "8c18ec7f4ef0259d5f6ed02f45d178b0");
    ("state_eos", "machine crash no-recover", "337cb56656d0f5d7460de81afaef96b4");
    ("state_eos", "machine corrupt integrity recover", "a776ef2d34c0c6decafa9925cee4679b");
    ("tridiag", "sim clean", "36dcae1135d9fc3a9cf295a81458e679");
    ("tridiag", "sim delay", "119df7ffd47e0271a0ea129626700e24");
    ("tridiag", "machine clean", "238070d2c2e9375b50a456414a151131");
    ("tridiag", "machine delay", "d5fc7d4339648fd3793a39f9d6b89c60");
    ("tridiag", "machine dup+drop-ack recover", "295ed9c030ab3193e29acd969c115d10");
    ("tridiag", "machine crash recover", "59b7b28a6ba5a09368c3473543372726");
    ("tridiag", "machine crash no-recover", "5b183cc8ee61f702d7a16888cffeffac");
    ("tridiag", "machine corrupt integrity recover", "930d0cecb4ac1b0e8a8beb79f08d52b4");
    ("prefix_sum", "sim clean", "1680b256952c2991f43fd96540e8839f");
    ("prefix_sum", "sim delay", "b87cd6f6149799d0a21b828c2faec98b");
    ("prefix_sum", "machine clean", "5d626a0326bb2a853254001dacd9e0a8");
    ("prefix_sum", "machine delay", "9883a172f76921049b647e39cf696c68");
    ("prefix_sum", "machine dup+drop-ack recover", "2cdda154cb9f51523a368c6b5c7845e5");
    ("prefix_sum", "machine crash recover", "282ff0fc14bf626bc5f75a685e553c81");
    ("prefix_sum", "machine crash no-recover", "94e3d7c03ffc774c40dd1cd24fb68474");
    ("prefix_sum", "machine corrupt integrity recover", "19733a8367f075bec3b6bcfc8b00922a");
    ("smooth_chain", "sim clean", "91f0320004a3f8e92cda6b22c216a755");
    ("smooth_chain", "sim delay", "c39aaf2813c7c7759dc7fe3384945421");
    ("smooth_chain", "machine clean", "e13771c4996d71e300411a42b89b913d");
    ("smooth_chain", "machine delay", "f54266f8593c61e5816b89bebe5e99d7");
    ("smooth_chain", "machine dup+drop-ack recover", "82f599b706329f7a5611aa2ea24afbdc");
    ("smooth_chain", "machine crash recover", "beecaf1b3e5965fb90b8ae3d8dbb02a8");
    ("smooth_chain", "machine crash no-recover", "7efdcba7c134de4be4850e8f63d8b802");
    ("smooth_chain", "machine corrupt integrity recover", "0227d7c454daa6c8581237d53f4b72e8");
    ("planckian", "sim clean", "a98f6e8195ca094ca32865d8a85ddbed");
    ("planckian", "sim delay", "bca32045696450b9ea6aa06a7f004666");
    ("planckian", "machine clean", "48b3399d0d875e77e05b532bde490b0f");
    ("planckian", "machine delay", "e02ad8078bad9488a57bfe59da60d942");
    ("planckian", "machine dup+drop-ack recover", "6064ae2cdfa94f49fe0d74c9f078386a");
    ("planckian", "machine crash recover", "62a3415d417086f08c25b8884edb74fc");
    ("planckian", "machine crash no-recover", "f519d5c950d80e925497cadc8618aafe");
    ("planckian", "machine corrupt integrity recover", "b11b1fffbea6af1d4dcec937f012e4e5");
    ("integrate_predictors", "sim clean", "655b05de6cb3627b3c2464103be633aa");
    ("integrate_predictors", "sim delay", "ecb0ed5d3da70acf2a873eb3016b7a43");
    ("integrate_predictors", "machine clean", "dff25f6ff36ce66b5afc4d3940c905f8");
    ("integrate_predictors", "machine delay", "f7f36df6eb13b56d1cdd4e00e9e2141a");
    ("integrate_predictors", "machine dup+drop-ack recover", "88cfeb5e07cc6a53fc789269efe27d07");
    ("integrate_predictors", "machine crash recover", "40c3277334e86e1c4e3abc3aefd67aaa");
    ("integrate_predictors", "machine crash no-recover", "de82dcd3a4b65bd1b3bf25a072f56f00");
    ("integrate_predictors", "machine corrupt integrity recover", "8a55c2f0458a357790ea7c007de93384")
  ]

let test_pinned () =
  let got =
    List.concat_map
      (fun (k : K.kernel) ->
        let g, inputs = subject k in
        List.map (fun (name, run) -> (k.K.name, name, run g inputs)) configs)
      K.all
  in
  if got <> expected then
    Alcotest.failf "engine behaviour changed; this build produces:\n%s"
      (String.concat "\n"
         (List.map
            (fun (k, c, d) -> Printf.sprintf "    (%S, %S, %S);" k c d)
            got))

(* ---- checkpoint bytes ---- *)

(* Every kernel advanced in slices of 97 time units under 7 machine
   configurations.  After each pause the snapshot's format-3 JSON text
   is appended, and at every other pause the machine is restored from
   that text, so a change to how the engine keeps its event queue or
   computes checksums has to reproduce the same documents and resume
   from them to the same outcome.  Reals are exact ([%h]) in these
   texts, unlike in [machine_digest]. *)

let checkpoint_configs :
    (string * Machine.Arch.t * (Graph.t -> Run_config.t)) list =
  let arch = Machine.Arch.default in
  let plan s =
    match FP.of_string s with
    | Ok spec -> Run_config.with_fault (FP.make spec)
    | Error e -> invalid_arg e
  in
  let rec_ = Run_config.with_recovery ME.default_recovery in
  [ ("plain", arch, fun _ -> ME.default_config);
    ("stored", { arch with Machine.Arch.array_policy = Machine.Arch.Stored },
     fun _ -> ME.default_config);
    ("recovery", arch, fun _ -> ME.default_config |> rec_);
    ("recovery+integrity+faults", arch,
     fun _ ->
       ME.default_config
       |> plan
            "seed=11,delay=0.2,dup=0.05,drop=0.03,drop-ack=0.03,corrupt=0.05,\
             corrupt-ctl=0.02,stall=0.05,fu-slow=1,am-slow=1"
       |> rec_ |> Run_config.with_integrity true);
    ("recovery+crash", arch,
     fun _ ->
       ME.default_config |> plan "seed=5,delay=0.1,crash-pe=2,crash-at=300"
       |> rec_);
    ("delay", arch, fun _ -> ME.default_config |> plan "seed=3,delay=0.25");
    ("dup+sanitizer", arch,
     fun g ->
       ME.default_config |> plan "seed=9,dup=0.05"
       |> Run_config.with_sanitizer (San.create g)) ]

let checkpoint_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (k : K.kernel) ->
      let g, inputs = subject k in
      List.iter
        (fun (_, arch, cfg) ->
          let m = ME.create_cfg (cfg g) ~arch g ~inputs in
          let pause = ref 0 in
          while not (ME.finished m) do
            incr pause;
            ME.advance m ~until:(97 * !pause);
            let text =
              Obs.Json.to_string
                (Recover.Checkpoint.to_json ~graph:g (ME.snapshot m))
            in
            Buffer.add_string b text;
            Buffer.add_char b '\n';
            if !pause mod 2 = 0 then
              match
                Recover.Checkpoint.of_json ~graph:g (Obs.Json.of_string text)
              with
              | Ok sn -> ME.restore m sn
              | Error e -> Alcotest.failf "%s: %s" k.K.name e
          done;
          Buffer.add_string b (machine_digest (ME.result m));
          Buffer.add_char b '\n')
        checkpoint_configs)
    K.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_checkpoints = "a9d0ecf68a1f5e937ee543bb51e26a37"

let test_checkpoints_pinned () =
  let got = checkpoint_digest () in
  if got <> expected_checkpoints then
    Alcotest.failf "checkpoint texts changed; this build produces %S" got

(* ---- graph engine stopped in flight, and its trace ---- *)

(* Every kernel on the graph engine under 3 configurations, each cut off
   at 5 time budgets: most stops leave result packets and acknowledges
   in flight, which the stall report must not count as arrived.  Each
   run's [sim_digest] and the Perfetto rendering of its full trace —
   every firing, delivery, acknowledge, fault and stall event in emission
   order — go into one digest. *)

let stop_times = [ 5; 17; 40; 97; Run_config.default.Run_config.max_time ]

let inflight_configs : (string * (Graph.t -> Run_config.t)) list =
  let with_delays =
    Run_config.with_fault (FP.make (FP.delays ~prob:0.25 ~max_delay:6 seed))
  in
  [ ("clean", fun _ -> Run_config.default);
    ("delay+sanitizer",
     fun g ->
       Run_config.(default |> with_delays |> with_sanitizer (San.create g)));
    ("delay+watchdog",
     fun _ -> Run_config.(default |> with_delays |> with_watchdog 3)) ]

let inflight_digest () =
  let b = Buffer.create (1 lsl 20) in
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) () in
  List.iter
    (fun (k : K.kernel) ->
      let g, inputs = subject k in
      List.iter
        (fun (name, cfg) ->
          List.iter
            (fun max_time ->
              Obs.Tracer.clear tracer;
              let cfg =
                Run_config.(
                  cfg g |> with_max_time max_time |> with_tracer tracer)
              in
              let r = Sim.Engine.run_cfg cfg g ~inputs in
              if Obs.Tracer.dropped tracer > 0 then
                Alcotest.failf "%s %s t<=%d: trace overflowed" k.K.name name
                  max_time;
              Buffer.add_string b (sim_digest r);
              Buffer.add_string b
                (Obs.Perfetto.to_string (Obs.Tracer.events tracer)))
            stop_times)
        inflight_configs)
    K.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_inflight = "12cd07cd325ad1174e2fb609467122d5"

let test_inflight_pinned () =
  let got = inflight_digest () in
  if got <> expected_inflight then
    Alcotest.failf "stopped graph-engine runs changed; this build produces %S"
      got

(* ---- machine runs and their traces ---- *)

(* Every kernel on the machine engine under 7 configurations, traced.
   Each run's [machine_digest] and the Perfetto rendering of its full
   trace — every dispatch, delivery, acknowledge, retransmission, fault,
   corruption, checkpoint, recovery, violation and stall event in
   emission order — go into one digest, so a change to where or when the
   engine emits an event shows even where outputs and stats agree. *)

let traced_machine_configs :
    (string * Machine.Arch.t * (Graph.t -> Run_config.t)) list =
  let arch = Machine.Arch.default in
  let delays = FP.delays ~prob:0.25 ~max_delay:6 seed in
  let rec_ = Run_config.with_recovery ME.default_recovery in
  let with_plan spec = Run_config.with_fault (FP.make spec) in
  let san g = Run_config.with_sanitizer (San.create g) in
  [ ("clean", arch, fun _ -> ME.default_config);
    ("stored", { arch with Machine.Arch.array_policy = Machine.Arch.Stored },
     fun _ -> ME.default_config);
    ("delay+sanitizer", arch,
     fun g -> ME.default_config |> with_plan delays |> san g);
    ("dup+drop-ack+recover+sanitizer", arch,
     fun g ->
       ME.default_config
       |> with_plan { FP.none with FP.seed; dup_prob = 0.1; drop_ack_prob = 0.1 }
       |> rec_ |> san g);
    ("corrupt+integrity+recover", arch,
     fun _ ->
       ME.default_config
       |> with_plan
            { FP.none with FP.seed; corrupt_prob = 0.05; corrupt_ctl_prob = 0.05 }
       |> rec_ |> Run_config.with_integrity true);
    ("crash+recover", arch,
     fun _ ->
       ME.default_config
       |> with_plan { delays with FP.crash_pe = 1; crash_at = 150 }
       |> rec_);
    ("crash no-recover", arch,
     fun _ ->
       ME.default_config
       |> with_plan { FP.none with FP.seed; crash_pe = 2; crash_at = 90 }) ]

let traced_machine_digest () =
  let b = Buffer.create (1 lsl 20) in
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) () in
  List.iter
    (fun (k : K.kernel) ->
      let g, inputs = subject k in
      List.iter
        (fun (name, arch, cfg) ->
          Obs.Tracer.clear tracer;
          let cfg = Run_config.with_tracer tracer (cfg g) in
          let r = ME.run_cfg cfg ~arch g ~inputs in
          if Obs.Tracer.dropped tracer > 0 then
            Alcotest.failf "%s %s: trace overflowed" k.K.name name;
          Buffer.add_string b (machine_digest r);
          Buffer.add_string b
            (Obs.Perfetto.to_string (Obs.Tracer.events tracer)))
        traced_machine_configs)
    K.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_traced_machine = "fbbc62022731c0ad111ea17652a02aa9"

let test_traced_machine_pinned () =
  let got = traced_machine_digest () in
  if got <> expected_traced_machine then
    Alcotest.failf "machine runs or their traces changed; this build produces %S"
      got

let suite =
  [ Alcotest.test_case "8 kernels x 8 configurations match recorded digests"
      `Quick test_pinned;
    Alcotest.test_case "checkpoint texts at every pause match recorded digest"
      `Quick test_checkpoints_pinned;
    Alcotest.test_case "graph runs stopped in flight match recorded digest"
      `Quick test_inflight_pinned;
    Alcotest.test_case "machine runs with traces match recorded digest"
      `Quick test_traced_machine_pinned ]
