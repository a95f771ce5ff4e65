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
  let sim cfg g inputs = sim_digest (Sim.Engine.run_cfg cfg g ~inputs) in
  let machine cfg g inputs =
    machine_digest (ME.run_cfg cfg ~arch:Machine.Arch.default g ~inputs)
  in
  let delays = FP.delays ~prob:0.25 ~max_delay:6 seed in
  let rec_ = Run_config.with_recovery Run_config.default_recovery in
  let with_plan spec = Run_config.with_fault (FP.make spec) in
  let san = Run_config.with_sanitize true in
  [ ("sim clean", sim Run_config.default);
    ("sim delay", sim Run_config.(default |> with_plan delays |> san));
    ("machine clean", machine ME.default_config);
    ("machine delay", machine (ME.default_config |> with_plan delays |> san));
    ("machine dup+drop-ack recover",
     machine
       (ME.default_config
       |> with_plan
            { FP.none with FP.seed; dup_prob = 0.1; drop_ack_prob = 0.1 }
       |> rec_ |> san));
    ("machine crash recover",
     machine
       (ME.default_config
       |> with_plan { delays with FP.crash_pe = 1; crash_at = 150 }
       |> rec_));
    ("machine crash no-recover",
     machine
       (ME.default_config
       |> with_plan { FP.none with FP.seed; crash_pe = 2; crash_at = 90 }));
    ("machine corrupt integrity recover",
     machine
       (ME.default_config
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
    ("hydro", "machine clean", "6294ad5bc65eb83b33fffbc968f308b8");
    ("hydro", "machine delay", "62cbf02eca22faab0f0ed4391b74f68a");
    ("hydro", "machine dup+drop-ack recover", "71a277cc1c134fab09c7420042d26118");
    ("hydro", "machine crash recover", "c64fbed0852f9b0f11dfdfbfeb42f321");
    ("hydro", "machine crash no-recover", "a06565ad8b261c3ee80f9567a5574b64");
    ("hydro", "machine corrupt integrity recover", "ede81cab2e05d81b00d735266dabf5b3");
    ("first_difference", "sim clean", "c843fe5dfa14f9538c66df3aa12b736f");
    ("first_difference", "sim delay", "db7c21143645a0ebbf77272c7a3c1ffd");
    ("first_difference", "machine clean", "aee21de092086d8d48343457cdb4c10a");
    ("first_difference", "machine delay", "81c330118a55900c18859c91e0601a94");
    ("first_difference", "machine dup+drop-ack recover", "d764a5612a4d013f166511c663cf834b");
    ("first_difference", "machine crash recover", "3ab73345d0e6b32c83951f0a4fdaf93b");
    ("first_difference", "machine crash no-recover", "2ddd25fa5ce608e0b81e60c343287db1");
    ("first_difference", "machine corrupt integrity recover", "42ccd9e0e4ae2410109ecf72c16d5371");
    ("state_eos", "sim clean", "5e1a19da86ab9ba42a880b89d44551b4");
    ("state_eos", "sim delay", "b0d7244dd86502579a740df260a4d7f4");
    ("state_eos", "machine clean", "8ba522bb4ff94bc724355afad38819fc");
    ("state_eos", "machine delay", "06bcf1c853155e6e8b6d2a62d18896cc");
    ("state_eos", "machine dup+drop-ack recover", "ac6473f699f245ad080c6a22618e7cb8");
    ("state_eos", "machine crash recover", "7eb4b30758506310e7f6ac5426f88029");
    ("state_eos", "machine crash no-recover", "488bc5440c598ab8a777141eb90f7699");
    ("state_eos", "machine corrupt integrity recover", "e3ec143cfd57bb4ebb0d41aff0feff47");
    ("tridiag", "sim clean", "36dcae1135d9fc3a9cf295a81458e679");
    ("tridiag", "sim delay", "119df7ffd47e0271a0ea129626700e24");
    ("tridiag", "machine clean", "97f673e634f099457efad95833851dfa");
    ("tridiag", "machine delay", "caef6fde1af2beb479b1e73eebcab7e6");
    ("tridiag", "machine dup+drop-ack recover", "bbfef6551a6fc80f7c2ee86ded6c105b");
    ("tridiag", "machine crash recover", "fbfb987ddf0e1003e9f3c2fbd07cdbe2");
    ("tridiag", "machine crash no-recover", "29960dca34f34ae32b16020a5f0cb813");
    ("tridiag", "machine corrupt integrity recover", "91e2beb019d0d67c327afca202f2049a");
    ("prefix_sum", "sim clean", "1680b256952c2991f43fd96540e8839f");
    ("prefix_sum", "sim delay", "b87cd6f6149799d0a21b828c2faec98b");
    ("prefix_sum", "machine clean", "474044d70f77ef6101123bcf16944949");
    ("prefix_sum", "machine delay", "f568f090284924008ff5a301457b377e");
    ("prefix_sum", "machine dup+drop-ack recover", "a5be37cc5969514c13dba0e05f8b47f5");
    ("prefix_sum", "machine crash recover", "8352954644fcaf10561a744a24b0ee9f");
    ("prefix_sum", "machine crash no-recover", "247de89185674620ad0c0cc6a77b2bc6");
    ("prefix_sum", "machine corrupt integrity recover", "157a7aeaa8c4d3b2921b7b86593f225a");
    ("smooth_chain", "sim clean", "91f0320004a3f8e92cda6b22c216a755");
    ("smooth_chain", "sim delay", "c39aaf2813c7c7759dc7fe3384945421");
    ("smooth_chain", "machine clean", "0893d0d154c0a465ae03fc28bd41696b");
    ("smooth_chain", "machine delay", "e2478f12e1672118f81c44f096f41f7b");
    ("smooth_chain", "machine dup+drop-ack recover", "0e7014964f4515aaf906d83e8c9621a3");
    ("smooth_chain", "machine crash recover", "5dcb0635919569bc96ee721242512dbe");
    ("smooth_chain", "machine crash no-recover", "038d266f27c4070853a66949776c774b");
    ("smooth_chain", "machine corrupt integrity recover", "55789a6f94a2b8dea346fec7001424ff");
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
    ("integrate_predictors", "machine clean", "2d568d53fde437be59fb5de374bb9714");
    ("integrate_predictors", "machine delay", "46e3262ee3766cb624d91cdeead4f6e3");
    ("integrate_predictors", "machine dup+drop-ack recover", "dd6d5132346701c35fe404af87ffcab0");
    ("integrate_predictors", "machine crash recover", "0db6452911f986b9c9ef92c3da08ccb5");
    ("integrate_predictors", "machine crash no-recover", "d18720c550f28c36b16c7474d41d1318");
    ("integrate_predictors", "machine corrupt integrity recover", "7e68233f18a0e6ca2a456eb81148be4d")
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
   configurations.  After each pause the snapshot's format-5 JSON text
   is appended, and at every other pause the machine is restored from
   that text, so a change to how the engine keeps its event queue or
   computes checksums has to reproduce the same documents and resume
   from them to the same outcome.  Reals are exact ([%h]) in these
   texts, unlike in [machine_digest]. *)

let checkpoint_configs : (string * Machine.Arch.t * Run_config.t) list =
  let arch = Machine.Arch.default in
  let plan s =
    match FP.of_string s with
    | Ok spec -> Run_config.with_fault (FP.make spec)
    | Error e -> invalid_arg e
  in
  let rec_ = Run_config.with_recovery Run_config.default_recovery in
  [ ("plain", arch, ME.default_config);
    ("stored", { arch with Machine.Arch.array_policy = Machine.Arch.Stored },
     ME.default_config);
    ("recovery", arch, ME.default_config |> rec_);
    ("recovery+integrity+faults", arch,
     ME.default_config
     |> plan
          "seed=11,delay=0.2,dup=0.05,drop=0.03,drop-ack=0.03,corrupt=0.05,\
           corrupt-ctl=0.02,stall=0.05,fu-slow=1,am-slow=1"
     |> rec_ |> Run_config.with_integrity true);
    ("recovery+crash", arch,
     ME.default_config |> plan "seed=5,delay=0.1,crash-pe=2,crash-at=300"
     |> rec_);
    ("delay", arch, ME.default_config |> plan "seed=3,delay=0.25");
    ("dup+sanitizer", arch,
     ME.default_config |> plan "seed=9,dup=0.05"
     |> Run_config.with_sanitize true) ]

let checkpoint_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (k : K.kernel) ->
      let g, inputs = subject k in
      List.iter
        (fun (_, arch, cfg) ->
          let m = ME.create_cfg cfg ~arch g ~inputs in
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
                Recover.Checkpoint.of_json ~arena:(Arena.build g) (Obs.Json.of_string text)
              with
              | Ok sn -> ME.restore m sn
              | Error e -> Alcotest.failf "%s: %s" k.K.name e
          done;
          Buffer.add_string b (machine_digest (ME.result m));
          Buffer.add_char b '\n')
        checkpoint_configs)
    K.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_checkpoints = "b158e419c58305b7131a35d2eb228125"

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

let inflight_configs : (string * Run_config.t) list =
  let with_delays =
    Run_config.with_fault (FP.make (FP.delays ~prob:0.25 ~max_delay:6 seed))
  in
  [ ("clean", Run_config.default);
    ("delay+sanitizer",
     Run_config.(default |> with_delays |> with_sanitize true));
    ("delay+watchdog", Run_config.(default |> with_delays |> with_watchdog 3)) ]

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
                Run_config.(cfg |> with_max_time max_time |> with_tracer tracer)
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

let expected_inflight = "7a31c00e410013a5669aff2003bec11d"

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

let traced_machine_configs : (string * Machine.Arch.t * Run_config.t) list =
  let arch = Machine.Arch.default in
  let delays = FP.delays ~prob:0.25 ~max_delay:6 seed in
  let rec_ = Run_config.with_recovery Run_config.default_recovery in
  let with_plan spec = Run_config.with_fault (FP.make spec) in
  let san = Run_config.with_sanitize true in
  [ ("clean", arch, ME.default_config);
    ("stored", { arch with Machine.Arch.array_policy = Machine.Arch.Stored },
     ME.default_config);
    ("delay+sanitizer", arch, ME.default_config |> with_plan delays |> san);
    ("dup+drop-ack+recover+sanitizer", arch,
     ME.default_config
     |> with_plan { FP.none with FP.seed; dup_prob = 0.1; drop_ack_prob = 0.1 }
     |> rec_ |> san);
    ("corrupt+integrity+recover", arch,
     ME.default_config
     |> with_plan
          { FP.none with FP.seed; corrupt_prob = 0.05; corrupt_ctl_prob = 0.05 }
     |> rec_ |> Run_config.with_integrity true);
    ("crash+recover", arch,
     ME.default_config
     |> with_plan { delays with FP.crash_pe = 1; crash_at = 150 }
     |> rec_);
    ("crash no-recover", arch,
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
          let cfg = Run_config.with_tracer tracer cfg in
          let r = ME.run_cfg cfg ~arch g ~inputs in
          if Obs.Tracer.dropped tracer > 0 then
            Alcotest.failf "%s %s: trace overflowed" k.K.name name;
          Buffer.add_string b (machine_digest r);
          Buffer.add_string b
            (Obs.Perfetto.to_string (Obs.Tracer.events tracer)))
        traced_machine_configs)
    K.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_traced_machine = "e3b4e37ef2393a01005b5290048d08c1"

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
