open Dfg

type mismatch = {
  m_stream : string;
  m_index : int;
  m_clean : Value.t option;
  m_faulted : Value.t option;
}

type outcome = {
  equal : bool;
  mismatches : mismatch list;
  clean_end : int;
  faulted_end : int;
  faulted_stall : Fault.Stall_report.t option;
  faulted_violations : Fault.Violation.t list;
  faulted_recoveries : int;
  faulted_snapshot : Machine.Machine_engine.snapshot option;
  clean_digest : int;
  faulted_digest : int;
  diagnosis : string option;
}

let mismatch_cap = 16

let value_str = function
  | Some v -> Value.to_string v
  | None -> "<missing>"

let mismatch_to_string m =
  Printf.sprintf "%s[%d]: clean %s, faulted %s" m.m_stream m.m_index
    (value_str m.m_clean) (value_str m.m_faulted)

let compare_outputs ~clean ~faulted =
  let out = ref [] in
  let count = ref 0 in
  let push m =
    if !count < mismatch_cap then out := m :: !out;
    incr count
  in
  List.iter
    (fun (name, cvs) ->
      let fvs = Option.value ~default:[] (List.assoc_opt name faulted) in
      let rec go i cs fs =
        match (cs, fs) with
        | [], [] -> ()
        | c :: cs, f :: fs ->
          if not (Value.equal c f) then
            push
              { m_stream = name; m_index = i; m_clean = Some c;
                m_faulted = Some f };
          go (i + 1) cs fs
        | c :: cs, [] ->
          push
            { m_stream = name; m_index = i; m_clean = Some c;
              m_faulted = None };
          go (i + 1) cs []
        | [], f :: fs ->
          push
            { m_stream = name; m_index = i; m_clean = None;
              m_faulted = Some f };
          go (i + 1) [] fs
      in
      go 0 cvs fvs)
    clean;
  List.rev !out

(* The unprotected-corruption post-mortem: a value mismatch with
   corruption injected and integrity checking off is exactly the silent
   failure mode the integrity layer exists for.  Name the first
   diverging packet, its output cell and arrival time, and say so —
   a bare stream diff reads like a simulator bug. *)
(* a low-bit flip in a Real prints identically under %g; the diagnosis
   must show the divergence, so reals get the bit-exact %h form *)
let value_bits = function
  | Some (Value.Real r) -> Printf.sprintf "%h" r
  | Some v -> Value.to_string v
  | None -> "<missing>"

let diagnose ~plan ~integrity ~graph ~faulted_outputs mismatches =
  match (mismatches, plan) with
  | m :: _, Some p when Fault.Fault_plan.has_corruption p && not integrity ->
    let spec = Fault.Fault_plan.spec p in
    let cell =
      Option.bind graph (fun g ->
          Option.map
            (Printf.sprintf "output cell #%d")
            (List.assoc_opt m.m_stream (Graph.outputs g)))
      |> Option.value ~default:"output cell unknown"
    in
    let arrival =
      match List.assoc_opt m.m_stream faulted_outputs with
      | Some packets -> (
        match List.nth_opt packets m.m_index with
        | Some (t, _) -> Printf.sprintf "arrived t=%d" t
        | None -> "packet missing from the faulted stream")
      | None -> "stream missing from the faulted run"
    in
    Some
      (Printf.sprintf
         "value mismatch under corruption faults (corrupt=%g, corrupt-ctl=%g) \
          with integrity checking disabled — silent data corruption is the \
          likely cause, not a simulator defect.  First divergence: %s[%d] \
          (clean %s, faulted %s), %s, %s.  Re-run with integrity checking \
          (and a recovery policy) to detect and heal it."
         spec.Fault.Fault_plan.corrupt_prob
         spec.Fault.Fault_plan.corrupt_ctl_prob m.m_stream m.m_index
         (value_bits m.m_clean) (value_bits m.m_faulted) cell arrival)
  | _ -> None

let outcome ?(faulted_recoveries = 0) ?faulted_snapshot ?plan
    ?(integrity = false) ?graph ~clean_outputs ~faulted_outputs ~clean_end
    ~faulted_end ~faulted_stall ~faulted_violations () =
  let strip outs = List.map (fun (name, vs) -> (name, List.map snd vs)) outs in
  let mismatches =
    compare_outputs ~clean:(strip clean_outputs)
      ~faulted:(strip faulted_outputs)
  in
  {
    equal = mismatches = [];
    mismatches;
    clean_end;
    faulted_end;
    faulted_stall;
    faulted_violations;
    faulted_recoveries;
    faulted_snapshot;
    clean_digest = Integrity.digest_outputs clean_outputs;
    faulted_digest = Integrity.digest_outputs faulted_outputs;
    diagnosis = diagnose ~plan ~integrity ~graph ~faulted_outputs mismatches;
  }

(* The clean run is the reference execution, not a checked one, so it
   runs on the engine's default configuration. *)
let faulted_config ?watchdog ~plan base =
  Run_config.(
    base |> with_fault plan |> with_sanitize true |> with_watchdog_opt watchdog)

let sim ?watchdog ~plan g ~inputs =
  let clean = Sim.Engine.run_cfg Run_config.default g ~inputs in
  let faulted =
    Sim.Engine.run_cfg (faulted_config ?watchdog ~plan Run_config.default) g
      ~inputs
  in
  outcome ~plan ~graph:g ~clean_outputs:clean.Sim.Engine.outputs
    ~faulted_outputs:faulted.Sim.Engine.outputs
    ~clean_end:clean.Sim.Engine.end_time
    ~faulted_end:faulted.Sim.Engine.end_time
    ~faulted_stall:faulted.Sim.Engine.stuck
    ~faulted_violations:faulted.Sim.Engine.violations ()

let machine ?watchdog ?(arch = Machine.Arch.default) ?recovery
    ?(integrity = false) ~plan g ~inputs =
  let module ME = Machine.Machine_engine in
  let clean = ME.run_cfg ME.default_config ~arch g ~inputs in
  let faulted_cfg =
    Run_config.(
      faulted_config ?watchdog ~plan ME.default_config
      |> with_recovery_opt recovery |> with_integrity integrity)
  in
  let m = ME.create_cfg faulted_cfg ~arch g ~inputs in
  ME.advance m ~until:max_int;
  let faulted = ME.result m in
  outcome ~faulted_recoveries:faulted.ME.recoveries
    ~faulted_snapshot:(ME.snapshot m) ~plan ~integrity ~graph:g
    ~clean_outputs:clean.ME.outputs ~faulted_outputs:faulted.ME.outputs
    ~clean_end:clean.ME.end_time ~faulted_end:faulted.ME.end_time
    ~faulted_stall:faulted.ME.stall ~faulted_violations:faulted.ME.violations
    ()
