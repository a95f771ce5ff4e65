open Dfg
module ME = Machine.Machine_engine

type counters = {
  firings : int;
  cells : int;
  fu_ops : int;
  am_ops : int;
  result_packets : int;
  ack_packets : int;
  retransmits : int;
  checkpoints : int;
  recoveries : int;
}

type detail =
  | Sim_detail of Sim.Engine.result
  | Machine_detail of ME.result

type t = {
  name : string;
  outputs : (string * (int * Value.t) list) list;
  end_time : int;
  quiescent : bool;
  stall : Fault.Stall_report.t option;
  violations : Fault.Violation.t list;
  counters : counters;
  detail : detail;
}

let of_sim ~name (r : Sim.Engine.result) =
  {
    name;
    outputs = r.Sim.Engine.outputs;
    end_time = r.Sim.Engine.end_time;
    quiescent = r.Sim.Engine.quiescent;
    stall = r.Sim.Engine.stuck;
    violations = r.Sim.Engine.violations;
    counters =
      {
        firings = Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts;
        cells = Array.length r.Sim.Engine.fire_counts;
        fu_ops = 0;
        am_ops = 0;
        result_packets = 0;
        ack_packets = 0;
        retransmits = 0;
        checkpoints = 0;
        recoveries = 0;
      };
    detail = Sim_detail r;
  }

let of_machine ~name (r : ME.result) =
  let s = r.ME.stats in
  {
    name;
    outputs = r.ME.outputs;
    end_time = r.ME.end_time;
    quiescent = r.ME.quiescent;
    stall = r.ME.stall;
    violations = r.ME.violations;
    counters =
      {
        firings = s.ME.dispatches;
        cells = 0;
        fu_ops = s.ME.fu_ops;
        am_ops = s.ME.am_ops;
        result_packets = s.ME.result_packets;
        ack_packets = s.ME.ack_packets;
        retransmits = s.ME.retransmits;
        checkpoints = r.ME.checkpoints;
        recoveries = r.ME.recoveries;
      };
    detail = Machine_detail r;
  }

let am_fraction c =
  Df_util.Conventions.ratio
    (float_of_int c.am_ops)
    (float_of_int (c.firings + c.am_ops))

let digest o = Integrity.digest_outputs o.outputs

let stream o name =
  Df_util.Conventions.lookup_stream
    ~who:("Job " ^ o.name)
    o.outputs name

let output_values o name = List.map snd (stream o name)
let output_times o name = List.map fst (stream o name)

(* ---------------- metrics registries ----------------

   These render an engine result into the shared metrics vocabulary the
   CLIs and dfserve expose.  They live here (not in Runspec) so every
   outcome consumer gets identical metrics without matching on the
   engine; Runspec re-exports them for the CLIs. *)

let metrics_of_sim (result : Sim.Engine.result) =
  let m = Obs.Metrics_registry.create () in
  let open Obs.Metrics_registry in
  incr m "sim.firings"
    ~by:(Array.fold_left ( + ) 0 result.Sim.Engine.fire_counts);
  incr m "sim.cells" ~by:(Array.length result.Sim.Engine.fire_counts);
  incr m "sim.stuck_cells"
    ~by:
      (match result.Sim.Engine.stuck with
      | None -> 0
      | Some sr -> List.length sr.Fault.Stall_report.sr_blocked);
  incr m "sim.violations" ~by:(List.length result.Sim.Engine.violations);
  set m "sim.end_time" (float_of_int result.Sim.Engine.end_time);
  set m "sim.quiescent" (if result.Sim.Engine.quiescent then 1.0 else 0.0);
  Array.iteri
    (fun id _ ->
      observe m "sim.cell_utilization" (Sim.Metrics.utilization result id))
    result.Sim.Engine.fire_counts;
  List.iter
    (fun (name, arrivals) ->
      incr m
        ("sim.output." ^ name ^ ".packets")
        ~by:(List.length arrivals);
      set m
        ("sim.output." ^ name ^ ".interval")
        (Sim.Metrics.output_interval result name))
    result.Sim.Engine.outputs;
  m

let metrics_of_machine (r : ME.result) =
  let m = Obs.Metrics_registry.create () in
  let open Obs.Metrics_registry in
  let s = r.ME.stats in
  incr m "machine.dispatches" ~by:s.ME.dispatches;
  incr m "machine.fu_ops" ~by:s.ME.fu_ops;
  incr m "machine.am_ops" ~by:s.ME.am_ops;
  incr m "machine.result_packets" ~by:s.ME.result_packets;
  incr m "machine.ack_packets" ~by:s.ME.ack_packets;
  incr m "machine.retransmits" ~by:s.ME.retransmits;
  incr m "machine.checkpoints" ~by:r.ME.checkpoints;
  incr m "machine.recoveries" ~by:r.ME.recoveries;
  set m "machine.end_time" (float_of_int r.ME.end_time);
  set m "machine.quiescent" (if r.ME.quiescent then 1.0 else 0.0);
  incr m "machine.stalled_cells"
    ~by:
      (match r.ME.stall with
      | None -> 0
      | Some sr -> List.length sr.Fault.Stall_report.sr_blocked);
  incr m "machine.violations" ~by:(List.length r.ME.violations);
  set m "machine.am_fraction" (ME.am_fraction s);
  Array.iteri
    (fun i d ->
      (* "%02d" *)
      let pe = if i < 10 then "0" ^ string_of_int i else string_of_int i in
      incr m ("machine.pe." ^ pe ^ ".dispatches") ~by:d;
      observe m "machine.pe_occupancy" (float_of_int d))
    s.ME.pe_dispatches;
  List.iter
    (fun (name, arrivals) ->
      incr m
        ("machine.output." ^ name ^ ".packets")
        ~by:(List.length arrivals))
    r.ME.outputs;
  m

let metrics o =
  match o.detail with
  | Sim_detail r -> metrics_of_sim r
  | Machine_detail r -> metrics_of_machine r
