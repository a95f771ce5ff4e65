(* Steady-state firing: the eight library kernels, compiled once, each
   streamed through the graph engine and the machine engine (default
   arch, streamed arrays) for many waves.  A round runs every kernel on
   both engines; rounds repeat until the budget is spent.  A kernel's
   rate on an engine is the median over its runs of output elements per
   second, and the metric is the geometric mean over the kernels; the
   normalized figure takes each run's rate times the host factor near
   it. *)

open Dfg
module K = Kernels
module PC = Compiler.Program_compile
module ME = Machine.Machine_engine

let size = 32
let sim_waves = 256
let machine_waves = 32

type subject = {
  k : K.kernel;
  cp : PC.compiled;
  wave : (string * Value.t list) list;  (* one wave per array input *)
  sim_inputs : (string * Value.t list) list;
  machine_inputs : (string * Value.t list) list;
}

let setup ~seed =
  List.map
    (fun (k : K.kernel) ->
      let st = Random.State.make [| seed; Hashtbl.hash k.K.name |] in
      let wave = k.K.inputs size st in
      let _, cp =
        Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
          (k.K.source size)
      in
      { k;
        cp;
        wave;
        sim_inputs = Runspec.feeds cp ~waves:sim_waves wave;
        machine_inputs = Runspec.feeds cp ~waves:machine_waves wave })
    K.all

(* Layer counters of the traced run. *)
type counters = {
  mutable sim_s : float;
  mutable sim_firings : float;
  mutable sim_minor : float;
  mutable machine_s : float;
  mutable dispatches : float;
  mutable machine_minor : float;
}

let counters =
  { sim_s = 0.; sim_firings = 0.; sim_minor = 0.; machine_s = 0.;
    dispatches = 0.; machine_minor = 0. }

let run_sim s =
  let g = s.cp.PC.cp_graph in
  if !Span.enabled then ignore (Span.with_ ~subject:s.k.K.name "exec.arena" (fun () -> Arena.build g));
  let m0 = Gc.minor_words () in
  let t0 = Span.now () in
  let r =
    Span.with_ ~subject:s.k.K.name "sim.run" (fun () ->
        Sim.Engine.run_cfg Run_config.default g ~inputs:s.sim_inputs)
  in
  let dt = Span.now () -. t0 in
  if !Span.enabled then begin
    counters.sim_s <- counters.sim_s +. dt;
    counters.sim_minor <- counters.sim_minor +. (Gc.minor_words () -. m0);
    counters.sim_firings <-
      counters.sim_firings
      +. float_of_int (Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts)
  end;
  (List.length (Sim.Engine.output_values r s.k.K.output), t0, dt, r)

let run_machine s =
  let g = s.cp.PC.cp_graph in
  let m0 = Gc.minor_words () in
  let t0 = Span.now () in
  let r =
    Span.with_ ~subject:s.k.K.name "machine.run" (fun () ->
        ME.run_cfg ME.default_config ~arch:Machine.Arch.default g
          ~inputs:s.machine_inputs)
  in
  let dt = Span.now () -. t0 in
  if !Span.enabled then begin
    counters.machine_s <- counters.machine_s +. dt;
    counters.machine_minor <-
      counters.machine_minor +. (Gc.minor_words () -. m0);
    counters.dispatches <-
      counters.dispatches +. float_of_int r.ME.stats.ME.dispatches
  end;
  (List.length (ME.output_values r s.k.K.output), t0, dt, r)

(* [xs] is a prefix of [ys] under [eq]. *)
let rec is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> eq x y && is_prefix eq xs ys

(* Values against the kernel's hand-written OCaml reference; the graph
   engine's rate against the theory's predicted interval (8% as in the
   kernel tests).  The machine model paces elements by its FU and
   routing latencies, not by the graph-level prediction, so its check is
   bit-identity with the graph engine's stream instead. *)
let check s (sim : Sim.Engine.result) (mach : ME.result) =
  let name = s.k.K.name in
  let wave_n = PC.wave_size (List.assoc s.k.K.output s.cp.PC.cp_outputs) in
  let expected =
    s.k.K.reference size
      (s.wave @ List.map (fun (n, v) -> (n, [ v ])) s.k.K.scalar_inputs)
  in
  let sim_vals = Sim.Engine.output_values sim s.k.K.output in
  let mach_vals = ME.output_values mach s.k.K.output in
  let matches vals =
    List.length expected = wave_n
    && List.length vals >= wave_n
    && is_prefix
         (fun e v -> Float.abs (e -. Value.to_real v) <= 1e-9)
         expected vals
  in
  if not (matches sim_vals) then Report.gate_fail "stream" "%s: graph engine != reference" name;
  if not (matches mach_vals) then Report.gate_fail "stream" "%s: machine engine != reference" name;
  if
    List.length mach_vals < machine_waves * wave_n
    || not (is_prefix (fun a b -> Value.equal a b) mach_vals sim_vals)
  then Report.gate_fail "stream" "%s: machine stream != graph-engine stream" name;
  let interval =
    Sim.Metrics.initiation_interval (Sim.Engine.output_times sim s.k.K.output)
  in
  let predicted = s.k.K.predicted_interval size in
  if Float.abs (interval -. predicted) /. predicted > 0.08 then
    Report.gate_fail "stream" "%s: interval %.3f, predicted %.3f" name interval predicted

(* Rates per kernel and engine, gathered over the rounds of a run, each
   with the start and end of its run. *)
type acc = {
  sim_rates : (float * float * float) list array;
  mach_rates : (float * float * float) list array;
  last : (Sim.Engine.result * ME.result) option array;
  mutable runs : int;
}

let create subjects =
  let n = List.length subjects in
  { sim_rates = Array.make n []; mach_rates = Array.make n [];
    last = Array.make n None; runs = 0 }

(* One untimed pass, so the heap has grown to its working size. *)
let warm_up subjects =
  List.iter (fun s -> ignore (run_sim s); ignore (run_machine s)) subjects

(* Every kernel on both engines, repeated until [budget] is spent. *)
let round acc ~budget ~calib subjects =
  let t_start = Span.now () in
  let first = ref true in
  while !first || Span.now () -. t_start < budget do
    first := false;
    List.iteri
      (fun i s ->
        Calib.maybe calib;
        let elems, t0, dt, sim = run_sim s in
        let rate = float_of_int elems /. dt in
        acc.sim_rates.(i) <- (t0, t0 +. dt, rate) :: acc.sim_rates.(i);
        Span.sample ("sim." ^ s.k.K.name) (Span.now ()) rate;
        Calib.maybe calib;
        let elems, t0, dt, mach = run_machine s in
        let rate = float_of_int elems /. dt in
        acc.mach_rates.(i) <- (t0, t0 +. dt, rate) :: acc.mach_rates.(i);
        Span.sample ("machine." ^ s.k.K.name) (Span.now ()) rate;
        acc.last.(i) <- Some (sim, mach);
        acc.runs <- acc.runs + 2)
      subjects
  done

(* The gate on each kernel's last runs, and per engine the geometric
   mean of the per-kernel median rates (elements/s), raw and normalized. *)
let finish acc ~calib subjects =
  List.iteri
    (fun i s ->
      match acc.last.(i) with
      | Some (sim, mach) -> check s sim mach
      | None -> ())
    subjects;
  let gm rate rates =
    Stats.geomean (Array.to_list (Array.map (fun rs -> Stats.median (List.map rate rs)) rates))
  in
  let raw (_, _, r) = r and norm (t0, t1, r) = r *. Calib.factor_between calib t0 t1 in
  let both rates = (gm raw rates, gm norm rates) in
  (both acc.sim_rates, both acc.mach_rates)
