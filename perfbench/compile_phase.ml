(* Per-program compile latency: [Compiler.Driver.compile_source] from
   source text to a validated, balanced graph.  A round's programs are
   run in whole passes only, so every program weighs the same in the
   percentiles however many passes the budget allows.

   In a traced run each compile is done stepwise — parse, classify,
   lower (block compile, prune, CSE, with balancing off) and optimal
   phase balancing — inside one span per stage, and the gate checks that
   the stepwise graph is byte-identical to [compile_source]'s. *)

open Dfg
module PC = Compiler.Program_compile
module K = Kernels

type program = {
  label : string;
  source : string;
  scalars : (string * Value.t) list;
  inputs : (string * Value.t list) list;
      (* one wave per array input, plus scalar inputs as singletons for
         the interpreter *)
}

let kernel_programs ~seed ~size =
  List.map
    (fun (k : K.kernel) ->
      let st = Random.State.make [| seed; Hashtbl.hash k.K.name |] in
      { label = Printf.sprintf "%s[%d]" k.K.name size;
        source = k.K.source size;
        scalars = k.K.scalar_inputs;
        inputs =
          k.K.inputs size st
          @ List.map (fun (n, v) -> (n, [ v ])) k.K.scalar_inputs })
    K.all

let generated_programs ~seed ~count =
  Array.to_list
    (Array.mapi
       (fun index source ->
         { label = Printf.sprintf "gen-%d-%d" seed index;
           source;
           scalars = [];
           inputs =
             List.map
               (fun (n, xs) -> (n, Compiler.Driver.wave_of_floats xs))
               (Gen.input_waves ~seed ~index) })
       (Gen.suite ~seed ~count ()))

type layer_counts = {
  mutable fifo_stages : int list;  (* per program *)
  mutable cells : int list;  (* lowered, before balancing *)
}

let layer_counts = { fifo_stages = []; cells = [] }

let fifo_capacity g =
  let c = ref 0 in
  Graph.iter_nodes g (fun nd ->
      match nd.Graph.op with Opcode.Fifo k -> c := !c + k | _ -> ());
  !c

let stepwise p =
  Span.with_ ~subject:p.label "compile" (fun () ->
      let prog =
        Span.with_ "val_lang.parse" (fun () ->
            Val_lang.Parser.parse_program p.source)
      in
      let pp =
        Span.with_ "val_lang.classify" (fun () ->
            Val_lang.Classify.classify_program prog)
      in
      let cp =
        Span.with_ "compiler.lower" (fun () ->
            PC.compile
              ~options:{ PC.default_options with PC.balance = `None }
              ~scalar_inputs:p.scalars pp)
      in
      let shift id = Option.value ~default:0 (Hashtbl.find_opt cp.PC.cp_shifts id) in
      let g =
        Span.with_ "balance.phase" (fun () ->
            Balance.Balancer.phase_balance ~strategy:`Optimal ~shift
              cp.PC.cp_graph)
      in
      Graph.validate_exn g;
      (cp.PC.cp_graph, g))

(* The timed unit: compile_source, or in a traced run the stepwise
   compile (whose graphs the gate compares with compile_source's). *)
type compiled =
  | Whole of Val_lang.Ast.program * PC.compiled
  | Steps of Graph.t * Graph.t  (* lowered, balanced *)

let compile p =
  if !Span.enabled then
    let lowered, g = stepwise p in
    Steps (lowered, g)
  else
    let prog, cp = Compiler.Driver.compile_source ~scalar_inputs:p.scalars p.source in
    Whole (prog, cp)

(* One-wave graph-engine run against the interpreter, and in a traced
   run the stepwise graph against compile_source's. *)
let check p compiled =
  match
    match compiled with
    | Whole (prog, cp) -> (prog, cp)
    | Steps (lowered, g) ->
      let prog, cp =
        Compiler.Driver.compile_source ~scalar_inputs:p.scalars p.source
      in
      layer_counts.cells <- Graph.node_count lowered :: layer_counts.cells;
      layer_counts.fifo_stages <-
        (fifo_capacity g - fifo_capacity lowered) :: layer_counts.fifo_stages;
      if Text.to_string g <> Text.to_string cp.PC.cp_graph then
        Report.gate_fail "compile" "%s: stepwise graph differs from compile_source"
          p.label;
      (prog, cp)
  with
  | exception e -> Report.gate_fail "compile" "%s: %s" p.label (Printexc.to_string e)
  | prog, cp -> (
    let result = Compiler.Driver.run_cfg Run_config.default cp ~inputs:p.inputs in
    match Compiler.Driver.check_against_oracle prog cp result ~inputs:p.inputs with
    | () -> ()
    | exception Compiler.Driver.Mismatch m ->
      Report.gate_fail "compile" "%s: %s" p.label m)

(* Untimed compiles of every tenth program (all of a short set), so the
   heap has grown to its working size. *)
let warm_up programs =
  let span_state = !Span.enabled in
  Span.enabled := false;
  List.iteri
    (fun i p ->
      if List.length programs < 50 || i mod 10 = 0 then
        ignore (Compiler.Driver.compile_source ~scalar_inputs:p.scalars p.source))
    programs;
  Span.enabled := span_state

(* Compile latencies with the time each compile started. *)
type acc = {
  mutable samples : (float * float) list;
  mutable n : int;
  checked : (string, unit) Hashtbl.t;
}

let create () = { samples = []; n = 0; checked = Hashtbl.create 256 }

(* Whole passes over [programs] while another one fits [budget]; at
   least one, and at least [min_samples] compiles.  A program's gate runs
   right after its first timed compile, outside the timer. *)
let round acc ~budget ~min_samples ~calib programs =
  let t_start = Span.now () and n0 = acc.n in
  let pass_s = ref 0. and passes = ref 0 in
  let continue () =
    !passes = 0
    || acc.n - n0 < min_samples
    || Span.now () -. t_start +. !pass_s <= budget
  in
  while continue () do
    let p0 = Span.now () in
    List.iter
      (fun p ->
        Calib.maybe calib;
        let t0 = Span.now () in
        match compile p with
        | c ->
          acc.samples <- (t0, Span.now () -. t0) :: acc.samples;
          acc.n <- acc.n + 1;
          if not (Hashtbl.mem acc.checked p.label) then begin
            Hashtbl.replace acc.checked p.label ();
            check p c
          end
        | exception e ->
          acc.n <- acc.n + 1;
          Report.gate_fail "compile" "%s: %s" p.label (Printexc.to_string e))
      programs;
    pass_s := Span.now () -. p0;
    incr passes
  done
