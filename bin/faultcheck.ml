(* faultcheck: differential fault suite over the kernel library.

   For every kernel and every seed, run the compiled graph clean and
   under a fault plan, and require the output streams to be identical —
   the executable form of the paper's claim that the acknowledge
   discipline makes pipelines latency-insensitive, extended to lossy
   and crashing machines when a recovery policy is attached.  Any
   mismatch, sanitizer violation or unexpected stall writes a dump file
   (plus a machine-state checkpoint for post-mortems) into --out, prints
   a ready-to-paste repro command, and fails the run (CI uploads the
   dumps as artifacts).

   The fault plan is one --fault SPEC string (default delay=0.25), the
   form dfsim, dfclient and every printed repro use.

   Examples:
     faultcheck --seeds 101,202,303 --out fault-reports
     faultcheck --machine --fault delay=0.5
     faultcheck --machine --recover --fault 'delay=0.25,drop-ack=0.15'
     faultcheck --machine --recover --fault 'delay=0.1,crash-pe=2,crash-at=120'
     faultcheck --machine --recover --integrity --fault corrupt=0.05
     faultcheck --machine --fault 'seed=7,stall=0.1,corrupt=0.02' --integrity
     faultcheck --kernel hydro --seeds 42 *)

module PC = Compiler.Program_compile
module D = Compiler.Driver
module K = Kernels
module FP = Fault.Fault_plan
module FD = Fault_diff
module ME = Machine.Machine_engine

type config = {
  dir : string;
  size : int;
  waves : int;
  spec : FP.spec;  (* seed overwritten per run *)
  machine : bool;
  recovery : Run_config.recovery option;
  integrity : bool;
  kernel_filter : string option;
}

(* the exact command line that reruns one failing combination *)
let repro_command cfg ~kernel ~seed =
  Printf.sprintf
    "faultcheck --kernel %s --seeds %d --size %d --waves %d --fault '%s'%s%s%s"
    kernel seed cfg.size cfg.waves
    (FP.to_string { cfg.spec with FP.seed })
    (match cfg.recovery with
    | Some p -> " --recover " ^ Recover.to_string p
    | None -> "")
    (if cfg.integrity then " --integrity" else "")
    (if cfg.machine then " --machine" else "")

let dump_failure cfg ~graph ~kernel ~seed ~engine (o : FD.outcome) =
  let dir = cfg.dir in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let path = Filename.concat dir
      (Printf.sprintf "%s-%s-seed%d.txt" kernel engine seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "kernel %s, engine %s, seed %d\nclean end %d, faulted end %d\n\
         recoveries %d\ndigest clean %d, faulted %d\nrepro: %s\n\n"
        kernel engine seed o.FD.clean_end o.FD.faulted_end
        o.FD.faulted_recoveries o.FD.clean_digest o.FD.faulted_digest
        (repro_command cfg ~kernel ~seed);
      (match o.FD.diagnosis with
      | Some d -> Printf.fprintf oc "diagnosis: %s\n\n" d
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
          (fun v ->
            Printf.fprintf oc "  %s\n" (Fault.Violation.to_string v))
          o.FD.faulted_violations
      end;
      match o.FD.faulted_stall with
      | Some sr -> output_string oc (Fault.Stall_report.to_string sr)
      | None -> ());
  (* the final machine state, for post-mortems under dfsim --restore *)
  (match o.FD.faulted_snapshot with
  | Some sn ->
    let spath = Filename.concat dir
        (Printf.sprintf "%s-%s-seed%d-state.json" kernel engine seed) in
    Recover.Checkpoint.save ~path:spath ~graph sn
  | None -> ());
  path

(* one kernel/seed combination; the report goes into [buf] so the matrix
   can run across domains and still print in submission order *)
let check_one cfg ~buf ~seed (k : K.kernel) =
  let subject =
    Runspec.compile_subject k ~size:cfg.size ~waves:cfg.waves
  in
  let compiled = subject.Runspec.compiled in
  let inputs = subject.Runspec.inputs in
  let plan = FP.make { cfg.spec with FP.seed } in
  let watchdog = Runspec.watchdog_for cfg.spec cfg.recovery in
  let run engine diff =
    let o = diff () in
    let ok =
      o.FD.equal && o.FD.faulted_violations = []
      && not (Fault.Stall_report.unexpected o.FD.faulted_stall)
      && o.FD.clean_digest = o.FD.faulted_digest
    in
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
    if ok then begin
      Printf.bprintf buf
        "ok   %-14s %-7s seed=%d (clean end %d, faulted end %d%s%s)\n"
        k.K.name engine seed o.FD.clean_end o.FD.faulted_end
        (if o.FD.faulted_recoveries > 0 then
           Printf.sprintf ", %d recovery" o.FD.faulted_recoveries
         else "")
        integrity_note;
      true
    end
    else begin
      let path =
        dump_failure cfg ~graph:compiled.PC.cp_graph ~kernel:k.K.name ~seed
          ~engine o
      in
      Printf.bprintf buf
        "FAIL %-14s %-7s seed=%d (%d mismatches, %d violations%s) -> %s\n\
        \     repro: %s\n"
        k.K.name engine seed
        (List.length o.FD.mismatches)
        (List.length o.FD.faulted_violations)
        integrity_note path
        (repro_command cfg ~kernel:k.K.name ~seed);
      (match o.FD.diagnosis with
      | Some d -> Printf.bprintf buf "     %s\n" d
      | None -> ());
      false
    end
  in
  let g = compiled.PC.cp_graph in
  (* the graph-level simulator honours delay faults only: running it
     under a protocol-breaking plan would vacuously pass *)
  let ok_sim =
    FP.delay_only plan
    |> not
    || run "sim" (fun () -> FD.sim ~watchdog ~plan g ~inputs)
  in
  let ok_machine =
    (not cfg.machine)
    || run "machine" (fun () ->
           FD.machine ~watchdog ?recovery:cfg.recovery
             ~integrity:cfg.integrity ~plan g ~inputs)
  in
  ok_sim && ok_machine

let main seeds dir kernel_filter size waves fault recover machine integrity
    jobs =
  let recovery =
    match recover with
    | None -> None
    | Some spec -> (
      match Recover.of_string spec with
      | Ok p -> Some p
      | Error e -> failwith (Printf.sprintf "--recover %s: %s" spec e))
  in
  (* each run's seed comes from --seeds, overriding any seed= here *)
  let spec =
    match FP.of_string fault with
    | Ok spec -> spec
    | Error e -> failwith (Printf.sprintf "--fault %s: %s" fault e)
  in
  let cfg =
    { dir; size; waves; spec; machine; recovery; integrity; kernel_filter }
  in
  let kernels =
    match Runspec.kernels_matching kernel_filter with
    | Ok ks -> ks
    | Error e -> failwith (Printf.sprintf "--kernel: %s" e)
  in
  if (not (FP.delay_only (FP.make spec))) && not machine then
    print_endline
      "note: dup/drop/drop-ack/crash faults are machine-only; the sim \
       differential is skipped for them (add --machine)";
  (* the kernel x seed matrix fans out across domains; reports are
     merged in submission order, so stdout is byte-identical to a
     sequential run whatever the worker count *)
  let matrix =
    List.concat_map
      (fun (k : K.kernel) -> List.map (fun seed -> (k, seed)) seeds)
      kernels
  in
  let jobs = match jobs with Some j -> j | None -> Exec.Pool.default_jobs () in
  let results, elapsed =
    Exec.Pool.timed (fun () ->
        Exec.Pool.map_result ~jobs
          (fun ((k : K.kernel), seed) ->
            let buf = Buffer.create 256 in
            let ok = check_one cfg ~buf ~seed k in
            (Buffer.contents buf, ok))
          matrix)
  in
  let failures = ref 0 in
  let runs = List.length matrix in
  List.iter2
    (fun ((k : K.kernel), seed) r ->
      match r with
      | Ok (report, ok) ->
        print_string report;
        if not ok then incr failures
      | Error (e : Exec.Pool.error) ->
        incr failures;
        Printf.printf "FAIL %-14s seed=%d raised %s\n     repro: %s\n"
          k.K.name seed e.Exec.Pool.message
          (repro_command cfg ~kernel:k.K.name ~seed))
    matrix results;
  (* timing goes to stderr: stdout stays diffable across worker counts *)
  Printf.eprintf "faultcheck: %d runs in %.2fs (%d worker%s)\n" runs elapsed
    jobs
    (if jobs = 1 then "" else "s");
  if !failures = 0 then begin
    Printf.printf
      "all %d kernel/seed runs: faulted outputs identical to clean\n" runs;
    `Ok ()
  end
  else
    `Error
      (false, Printf.sprintf "%d of %d kernel/seed runs failed" !failures runs)

let main_safe seeds dir kernel size waves fault recover machine integrity jobs
    =
  try main seeds dir kernel size waves fault recover machine integrity jobs
  with Failure msg -> `Error (false, msg)

let cmd =
  let open Cmdliner in
  let seeds =
    Arg.(value & opt (list int) [ 101; 202; 303 ]
         & info [ "seeds" ] ~docv:"N,N,..."
             ~doc:"fault-plan seeds to test each kernel under")
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
  let fault =
    Arg.(value & opt string "delay=0.25"
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"the fault plan, as a Fault_plan string: comma-separated \
                   key=value over seed, delay, dup, drop-ack, drop, stall, \
                   corrupt, corrupt-ctl (probabilities), delay-max, \
                   stall-max, fu-slow, am-slow, crash-at (magnitudes) and \
                   crash-pe (PE index), e.g. \
                   'delay=0.1,crash-pe=2,crash-at=120'.  Every repro that \
                   faultcheck and chaos print uses this form; \
                   $(b,--seeds) picks the per-run seed")
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
             ~doc:"worker domains for the kernel/seed matrix (default: \
                   \\$(b,EXEC_JOBS) or the available cores); output is \
                   identical whatever the count")
  in
  let term =
    Term.(ret (const main_safe $ seeds $ dir $ kernel $ size $ waves $ fault
               $ recover $ machine $ integrity $ jobs))
  in
  Cmd.v
    (Cmd.info "faultcheck" ~version:"1.0"
       ~doc:"differential fault suite: faulted kernel runs must match \
             clean runs value for value")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
