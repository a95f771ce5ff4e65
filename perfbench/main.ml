(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir D]

   Every workload runs the same phases — kernel streams, compiles, and a
   served read/write mix — in four rounds, so its result line carries
   every end-to-end metric; the workload decides which phase gets most
   of the [--seconds] budget and which program set the compile phase
   uses (see README.md).  Inputs derive from [--seed] only.  Outputs are
   checked outside the timed regions; a failed check is a failed
   operation, and the run then exits 1.  The runtime's collector
   settings are left as they are and the benchmark forces no collection.
   With [--trace 1] the result line carries the per-layer metrics
   instead, from spans the benchmark records around its calls into the
   layers.  The last line of standard output is the result; the full
   record (raw and host-normalized values, per-phase host factors,
   counts per class, gate failures) goes to
   [D/runs/<workload>-s<seed>-t<trace>.json]. *)

module ST = Stream_phase
module CP = Compile_phase
module SP = Serve_phase

type plan = {
  stream : float;  (* share of --seconds *)
  compile_set : [ `Kernels | `Generated ];
  compile : float;
  read : float;
  keyed : int;
  misses : int;
}

(* Every phase gets a few seconds even where it is not the focus: a
   figure from one second of a shared host moves with whatever ran in
   that second. *)
let workloads =
  [ ( "kernel-streams",
      { stream = 0.45; compile_set = `Kernels; compile = 0.15; read = 0.2;
        keyed = 32; misses = 48 } );
    ( "dag-compile",
      { stream = 0.15; compile_set = `Generated; compile = 0.5; read = 0.15;
        keyed = 32; misses = 48 } );
    ( "serve-mix",
      { stream = 0.15; compile_set = `Kernels; compile = 0.1; read = 0.45;
        keyed = 96; misses = 128 } ) ]

let generated_count = 240
let min_compiles = 200
let rounds = 4

(* Window size of the write classes' windowed percentiles
   (Stats.windowed); the read phase windows its hits as they arrive
   (Serve_phase.hit_window). *)
let write_window = 16

(* Measured, printed and kept in the run record, but not in the result
   line: over three ten-seed sets on the reference host (a shared 2-vCPU
   Xeon VM) their spreads did not stay within any bound of at most 0.25.
   The hit p99 (of 0.3 ms requests) counts multi-millisecond host
   stalls; the write classes' latencies doubled whenever the slice
   factor rose by a quarter.  CALIBRATION.md has the spreads. *)
let unbounded = [ "hit_p99_ms"; "durable_p50_ms"; "miss_p50_ms"; "hol_p50_ms" ]

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.

let ms xs = List.map (fun x -> 1000. *. x) xs
let us xs = List.map (fun x -> 1e6 *. x) xs

let layer_metrics ~compiles ~pool_rtt ~stats =
  let median_self name = Stats.median (ms (Span.self_times name)) in
  Report.layer "val_lang.parse_ms" "ms" (median_self "val_lang.parse");
  Report.layer "val_lang.classify_ms" "ms" (median_self "val_lang.classify");
  Report.layer "compiler.lower_ms" "ms" (median_self "compiler.lower");
  Report.layer "compiler.cells" "count"
    (Stats.median (List.map float_of_int CP.layer_counts.CP.cells));
  Report.layer "balance.phase_ms" "ms" (median_self "balance.phase");
  let balance_total = Stats.sum (Span.durations "balance.phase") in
  let compile_total = Stats.sum (Span.durations "compile") in
  Report.layer "balance.share" "ratio" (balance_total /. compile_total);
  Report.layer "balance.share_base_ms" "ms"
    (1000. *. compile_total /. float_of_int compiles);
  Report.layer "balance.fifo_stages" "count"
    (Stats.median (List.map float_of_int CP.layer_counts.CP.fifo_stages));
  Report.layer "exec.arena_ms" "ms" (Stats.median (ms (Span.durations "exec.arena")));
  Report.layer "exec.pool_rtt_us" "us" (Stats.median pool_rtt);
  let c = ST.counters in
  Report.layer "sim.firings_per_s" "1/s" (c.ST.sim_firings /. c.ST.sim_s);
  Report.layer "sim.minor_words_per_firing" "count" (c.ST.sim_minor /. c.ST.sim_firings);
  let of_class cls name =
    List.filter_map
      (fun s ->
        if String.length s.Span.subject > String.length cls
           && String.sub s.Span.subject 0 (String.length cls + 1) = cls ^ "#"
        then Some (Span.duration s)
        else None)
      (Span.named name)
  in
  Report.layer "sim.job_ms" "ms" (Stats.median (ms (of_class "hit" "sim.job")));
  Report.layer "machine.dispatches_per_s" "1/s" (c.ST.dispatches /. c.ST.machine_s);
  Report.layer "machine.minor_words_per_dispatch" "count"
    (c.ST.machine_minor /. c.ST.dispatches);
  Report.layer "recover.checkpoint_ms" "ms"
    (Stats.median (ms (Span.durations "recover.checkpoint")));
  let kb xs = Stats.median (List.map (fun b -> float_of_int b /. 1024.) xs) in
  Report.layer "recover.checkpoint_kb" "KiB" (kb SP.replay_counts.SP.checkpoint_bytes);
  Report.layer "serve.journal_append_us" "us"
    (Stats.median (us (Span.durations "serve.journal_append")));
  Report.layer "serve.decode_us" "us" (Stats.median (us (Span.durations "serve.decode")));
  Report.layer "serve.encode_ms" "ms" (Stats.median (ms (Span.durations "serve.encode")));
  Report.layer "serve.response_kb" "KiB" (kb SP.replay_counts.SP.response_bytes);
  Report.layer "integrity.digest_us" "us"
    (Stats.median (us (Span.durations "integrity.digest")));
  List.iter
    (fun cls ->
      Report.layer
        ("serve.wait_ms." ^ SP.cls_name cls)
        "ms"
        (Stats.median
           (List.filter_map
              (fun (c, w) -> if c = cls then Some w else None)
              SP.replay_counts.SP.waits)))
    [ SP.Hit; SP.Durable; SP.Miss; SP.Hol ];
  let stat name =
    List.fold_left
      (fun acc st ->
        acc +. float_of_int (Option.value ~default:0 (Obs.Json.get_int (Obs.Json.member name st))))
      0. stats
  in
  let lookups = stat "cache_hits" +. stat "cache_misses" in
  Report.layer "serve.cache_hit_ratio" "ratio" (stat "cache_hits" /. lookups);
  Report.layer "serve.cache_lookups" "count" lookups;
  Report.layer "serve.cache_evictions" "count" (stat "cache_evictions")

(* Timed set-ups after the warm-ups; the median is reported. *)
let setup_repeats = 21

let run ~workload ~seed ~seconds ~trace ~dir =
  let plan = List.assoc workload workloads in
  (* Set-up: the kernels compiled and their streams built, and the
     compile phase's programs generated.  It is done once untimed, then
     timed [setup_repeats] times in a row after the warm-ups, on a heap
     that has reached its working size, each after a calibration slice;
     the median is reported.  The server's start is not in it: its
     domain spawns and first requests follow the host's thread wake-up
     latency, which spread the figure by about half its median over ten
     runs. *)
  let inputs () =
    ( ST.setup ~seed,
      match plan.compile_set with
      | `Kernels -> CP.kernel_programs ~seed ~size:ST.size
      | `Generated -> CP.generated_programs ~seed ~count:generated_count )
  in
  let subjects, programs = inputs () in
  ST.warm_up subjects;
  CP.warm_up programs;
  let setup_calib = Calib.create () in
  let setup_times =
    List.init setup_repeats (fun _ ->
        Calib.tick setup_calib;
        let t0 = Span.now () in
        ignore (inputs ());
        (t0, Span.now () -. t0))
  in
  Span.enabled := trace;
  (* The phases run in [rounds] rounds, so each metric's samples spread
     over the whole run instead of one stretch of it; host contention
     here changes over seconds.  The server runs only in the serve part
     of a round: beside idle server domains, the single-domain phases ran
     up to 3x slower (every minor collection stops all domains). *)
  let calibs = Hashtbl.create 4 and gcs = Hashtbl.create 4 in
  let phase name f =
    let calib =
      match Hashtbl.find_opt calibs name with
      | Some c -> c
      | None ->
        let c = Calib.create () in
        Hashtbl.replace calibs name c;
        c
    in
    Calib.tick calib;
    let s0 = Gc.quick_stat () and t0 = Span.now () in
    let r = f calib in
    let s1 = Gc.quick_stat () and dt = Span.now () -. t0 in
    let majors, growth, secs =
      Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt gcs name)
    in
    Hashtbl.replace gcs name
      ( majors + s1.Gc.major_collections - s0.Gc.major_collections,
        growth + s1.Gc.heap_words - s0.Gc.heap_words,
        secs +. dt );
    r
  in
  let stream = ST.create subjects and compiles = CP.create () and reads = SP.reads () in
  let subsets =
    match plan.compile_set with
    | `Kernels -> List.init rounds (fun _ -> programs)
    | `Generated ->
      (* every program once, each round a stratified share of the sizes *)
      List.init rounds (fun r -> List.filteri (fun i _ -> i mod rounds = r) programs)
  in
  let min_per_round = (min_compiles + rounds - 1) / rounds in
  let keyed = plan.keyed / rounds and misses = plan.misses / rounds in
  let per_round = Float.of_int rounds in
  let rec go r warm timed stats =
    if r = rounds then (warm, timed, stats)
    else begin
      phase "stream" (fun calib ->
          ST.round stream ~budget:(plan.stream *. seconds /. per_round) ~calib subjects);
      phase "compile" (fun calib ->
          CP.round compiles ~budget:(plan.compile *. seconds /. per_round)
            ~min_samples:(match plan.compile_set with `Kernels -> min_per_round | `Generated -> 0)
            ~calib (List.nth subsets r));
      let server = SP.setup ~dir in
      let (ww, wt), st =
        Fun.protect
          ~finally:(fun () -> SP.stop server)
          (fun () ->
            phase "read" (fun calib ->
                SP.read_phase server reads ~budget:(plan.read *. seconds /. per_round) ~calib);
            let writes =
              phase "write" (fun calib ->
                  SP.write_phase server ~seed ~first:(r * max keyed misses) ~keyed
                    ~misses ~calib)
            in
            (writes, SP.stats server))
      in
      go (r + 1) (warm @ ww) (timed @ wt) (st :: stats)
    end
  in
  let warm_writes, writes, stats = go 0 [] [] [] in
  (* the peak of the major heap over the phases, before the gates run *)
  let heap_top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* A time metric over samples (start, seconds): [stat] of the raw
     times, and of the times each divided by the host factor of its own
     stretch of the phase. *)
  let timed name unit ~scale calib stat samples =
    let norm (t0, d) = d /. Calib.factor_between calib t0 (t0 +. d) in
    Report.normalized name unit
      ~raw:(stat (List.map (fun (_, d) -> scale *. d) samples))
      ~norm:(stat (List.map (fun x -> scale *. norm x) samples))
  in
  Report.factor "setup" (Calib.factor setup_calib);
  timed "setup_s" "s" ~scale:1. setup_calib Stats.median setup_times;
  List.iter
    (fun name ->
      let majors, growth, secs = Hashtbl.find gcs name in
      Report.layer ("gc.major_collections." ^ name) "count" (float_of_int majors);
      Report.layer ("gc.heap_growth_mb." ^ name) "MB" (mb growth);
      Report.phase_seconds := (name, secs) :: !Report.phase_seconds;
      let c = Hashtbl.find calibs name in
      Report.factor name (Calib.factor c))
    [ "stream"; "compile"; "read"; "write" ];
  let calib = Hashtbl.find calibs in
  let (sim_raw, sim_norm), (mach_raw, mach_norm) =
    ST.finish stream ~calib:(calib "stream") subjects
  in
  Report.count "stream" ~attempted:stream.ST.runs ~failed:0;
  Report.normalized "sim_elems_per_s" "1/s" ~raw:sim_raw ~norm:sim_norm;
  Report.normalized "machine_elems_per_s" "1/s" ~raw:mach_raw ~norm:mach_norm;
  Report.count "compile" ~attempted:compiles.CP.n ~failed:0;
  (* windows of whole passes, at least min_compiles samples each *)
  let n_programs = List.length programs in
  let window = n_programs * ((min_compiles + n_programs - 1) / n_programs) in
  List.iter
    (fun (name, p) ->
      timed name "ms" ~scale:1000. (calib "compile") (Stats.windowed p ~window)
        compiles.CP.samples)
    [ ("compile_p50_ms", 50.); ("compile_p95_ms", 95.) ];
  let hits name pick =
    let f (t0, t1, _, _) = Calib.factor_between (calib "read") t0 t1 in
    Report.normalized name "ms"
      ~raw:(Stats.median (List.map pick reads.SP.windows))
      ~norm:(Stats.median (List.map (fun w -> pick w /. f w) reads.SP.windows))
  in
  hits "hit_p50_ms" (fun (_, _, p50, _) -> p50);
  hits "hit_p99_ms" (fun (_, _, _, p99) -> p99);
  List.iter
    (fun (name, cls) ->
      timed name "ms" ~scale:1000. (calib "write")
        (Stats.windowed 50. ~window:write_window)
        (List.filter_map
           (fun x -> if x.SP.cls = cls then Some (x.SP.sent, x.SP.recv -. x.SP.sent) else None)
           writes))
    [ ("durable_p50_ms", SP.Durable); ("miss_p50_ms", SP.Miss); ("hol_p50_ms", SP.Hol) ];
  Report.plain "heap_mb" "MB" (mb heap_top);
  List.iter
    (fun x -> Span.sample ("rtt." ^ SP.cls_name x.SP.cls) x.SP.sent (SP.rtt_ms x))
    writes;
  SP.check (warm_writes @ writes);
  if trace then begin
    let served = List.rev_append reads.SP.kept writes in
    List.iter
      (fun x ->
        ignore
          (Span.add
             ~subject:(Printf.sprintf "%s#%d" (SP.cls_name x.SP.cls) x.SP.id)
             ~start:x.SP.sent ~stop:x.SP.recv
             ("serve.rtt." ^ SP.cls_name x.SP.cls)))
      served;
    SP.replay_all ~dir served;
    let pool_rtt = SP.pool_rtt_us ~n:500 in
    let compiles =
      match List.assoc_opt "compile" !Report.counts with
      | Some (a, _) -> a
      | None -> 0
    in
    layer_metrics ~compiles ~pool_rtt ~stats
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and dir = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME kernel-streams | dag-compile | serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
      ("--dir", Arg.Set_string dir, "D scratch and record directory (default .perfbench)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("unknown workload " ^ !workload ^ " (have: "
      ^ String.concat ", " (List.map fst workloads)
      ^ ")");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let runs_dir = Filename.concat !dir "runs" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ !dir; runs_dir ];
  let trace = !trace = 1 in
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~dir:!dir;
  let value m = Option.value ~default:m.Report.raw m.Report.norm in
  let printed = List.rev (if trace then !Report.per_layer else !Report.end_to_end) in
  let reported = List.filter (fun m -> not (List.mem m.Report.name unbounded)) printed in
  let attempted, failed =
    List.fold_left (fun (a, f) (_, (a', f')) -> (a + a', f + f')) (0, 0) !Report.counts
  in
  let correct = !Report.gate_failures = [] in
  let module J = Obs.Json in
  let metric_json m = (m.Report.name, J.Obj [ ("value", J.Float (value m)); ("unit", J.String m.Report.unit) ]) in
  let detail =
    J.Obj
      [ ("workload", J.String !workload);
        ("seed", J.Int !seed);
        ("seconds", J.Float !seconds);
        ("trace", J.Bool trace);
        ("correct", J.Bool correct);
        ( "counts",
          J.Obj
            (List.map
               (fun (c, (a, f)) -> (c, J.Obj [ ("attempted", J.Int a); ("failed", J.Int f) ]))
               (List.rev !Report.counts)) );
        ("host_factors", J.Obj (List.rev_map (fun (p, f) -> (p, J.Float f)) !Report.factors));
        ( "phase_seconds",
          J.Obj (List.rev_map (fun (p, t) -> (p, J.Float t)) !Report.phase_seconds) );
        ( "end_to_end",
          J.Obj
            (List.rev_map
               (fun m ->
                 ( m.Report.name,
                   J.Obj
                     [ ("unit", J.String m.Report.unit);
                       ("raw", J.Float m.Report.raw);
                       ("normalized", match m.Report.norm with Some v -> J.Float v | None -> J.Null);
                       ("reported", J.Float (value m)) ] ))
               !Report.end_to_end) );
        ("per_layer", J.Obj (List.rev_map metric_json !Report.per_layer));
        ("gate_failures", J.List (List.rev_map (fun s -> J.String s) !Report.gate_failures));
        ( "series",
          J.Obj
            (Hashtbl.fold
               (fun name xs acc ->
                 (name, J.List (List.rev_map (fun (t, v) -> J.List [ J.Float t; J.Float v ]) xs))
                 :: acc)
               Span.series []) ) ]
  in
  let base = Printf.sprintf "%s-s%d-t%d" !workload !seed (if trace then 1 else 0) in
  J.write_file (Filename.concat runs_dir (base ^ ".json")) detail;
  if trace then Span.write (Filename.concat runs_dir (base ^ ".spans.jsonl"));
  Printf.printf "perfbench %s seed %d, %.0f s, trace %b\n" !workload !seed !seconds trace;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.4f %s%s%s\n" m.Report.name (value m) m.Report.unit
        (match m.Report.norm with
        | Some _ -> Printf.sprintf "   (raw %.4f)" m.Report.raw
        | None -> "")
        (if List.mem m.Report.name unbounded then "   (not in the result)" else ""))
    printed;
  List.iter
    (fun (c, (a, f)) -> Printf.printf "  ops %-10s attempted %6d failed %d\n" c a f)
    (List.rev !Report.counts);
  List.iter
    (fun (p, t) ->
      Printf.printf "  phase %-8s %6.2f s, host factor %.3f\n" p t (Report.factor_of p))
    (List.rev !Report.phase_seconds);
  List.iter (fun g -> Printf.printf "  GATE FAILED: %s\n" g) (List.rev !Report.gate_failures);
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric_json reported)) ]));
  exit (if correct then 0 else 1)
