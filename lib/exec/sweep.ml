module K = Kernels
module PC = Compiler.Program_compile
module J = Obs.Json

type cell = { kernel : K.kernel; n_pe : int; waves : int; size : int }

type row = {
  r_kernel : string;
  r_pe : int;
  r_waves : int;
  r_size : int;
  r_cells : int;
  r_end_time : int;
  r_outputs : int;
  r_interval : float;
  r_predicted : float;
  r_throughput : float;
  r_dispatches : int;
  r_fu_ops : int;
  r_am_ops : int;
  r_am_fraction : float;
  r_ok : bool;
}

let grid ~kernels ~pes ~waves ~size =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun n_pe -> List.map (fun w -> { kernel; n_pe; waves = w; size }) waves)
        pes)
    kernels

let run_cell { kernel = k; n_pe; waves; size } =
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let g = compiled.PC.cp_graph in
  let o =
    Job.run
      (Job.make ~name:(Printf.sprintf "%s/pe%d/w%d" k.K.name n_pe waves)
         ~engine:(Job.Machine { Machine.Arch.default with Machine.Arch.n_pe })
         (Job.Graph_program g)
         ~inputs:
           (Compiler.Driver.feeds ~waves compiled (K.seeded_inputs k size)))
  in
  let c = o.Outcome.counters in
  let times = Job.output_times o k.K.output in
  let outputs = List.length times in
  let interval = Sim.Metrics.initiation_interval times in
  {
    r_kernel = k.K.name;
    r_pe = n_pe;
    r_waves = waves;
    r_size = size;
    r_cells = Dfg.Graph.node_count g;
    r_end_time = o.Outcome.end_time;
    r_outputs = outputs;
    r_interval = interval;
    r_predicted = k.K.predicted_interval size;
    r_throughput =
      float_of_int outputs /. float_of_int (max 1 o.Outcome.end_time);
    r_dispatches = c.Outcome.firings;
    r_fu_ops = c.Outcome.fu_ops;
    r_am_ops = c.Outcome.am_ops;
    r_am_fraction = Outcome.am_fraction c;
    r_ok =
      o.Outcome.quiescent
      && (not (Fault.Stall_report.unexpected o.Outcome.stall))
      && o.Outcome.violations = [];
  }

let run_grid ?jobs cells = Pool.map_result ?jobs run_cell cells

let row_json r =
  J.Obj
    [
      ("kernel", J.String r.r_kernel);
      ("pes", J.Int r.r_pe);
      ("waves", J.Int r.r_waves);
      ("size", J.Int r.r_size);
      ("cells", J.Int r.r_cells);
      ("end_time", J.Int r.r_end_time);
      ("outputs", J.Int r.r_outputs);
      ("interval", J.Float r.r_interval);
      ("predicted_interval", J.Float r.r_predicted);
      ("throughput", J.Float r.r_throughput);
      ("dispatches", J.Int r.r_dispatches);
      ("fu_ops", J.Int r.r_fu_ops);
      ("am_ops", J.Int r.r_am_ops);
      ("am_fraction", J.Float r.r_am_fraction);
      ("ok", J.Bool r.r_ok);
    ]

let to_json rows =
  let ok_rows =
    List.filter (function Ok r -> r.r_ok | Error _ -> false) rows
  in
  J.Obj
    [
      ("schema", J.String "dataflow_pipelining.sweep/1");
      ("total", J.Int (List.length rows));
      ("ok", J.Int (List.length ok_rows));
      ( "rows",
        J.List
          (List.map
             (function
               | Ok r -> row_json r
               | Error (e : Pool.error) ->
                 J.Obj
                   [
                     ("index", J.Int e.Pool.index);
                     ("error", J.String e.Pool.message);
                   ])
             rows) );
    ]
