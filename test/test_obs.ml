(* Observability subsystem tests: tracer on/off parity (tracing never
   changes simulation results, a disabled tracer records nothing),
   ring-buffer semantics, Perfetto export well-formedness on a compiled
   kernel, metrics-registry and bench-JSON round trips through the JSON
   parser, and the nan behavior of Metrics.initiation_interval on tiny
   samples. *)

open Dfg
module D = Compiler.Driver
module ME = Machine.Machine_engine
module Arch = Machine.Arch

let reals xs = List.map (fun f -> Value.Real f) xs

(* The paper's Figure 2: let y = a*b in (y+2)*(y-3). *)
let fig2_graph () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let b = Graph.add g (Opcode.Input "b") [||] in
  let mult1 =
    Graph.add g ~label:"cell1" (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_arc |]
  in
  let add =
    Graph.add g ~label:"cell2" (Opcode.Arith Opcode.Add)
      [| Graph.In_arc; Graph.In_const (Value.Real 2.) |]
  in
  let sub =
    Graph.add g ~label:"cell3" (Opcode.Arith Opcode.Sub)
      [| Graph.In_arc; Graph.In_const (Value.Real 3.) |]
  in
  let mult2 =
    Graph.add g ~label:"cell4" (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_arc |]
  in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:mult1 ~port:0;
  Graph.connect g ~src:b ~dst:mult1 ~port:1;
  Graph.connect g ~src:mult1 ~dst:add ~port:0;
  Graph.connect g ~src:mult1 ~dst:sub ~port:0;
  Graph.connect g ~src:add ~dst:mult2 ~port:0;
  Graph.connect g ~src:sub ~dst:mult2 ~port:1;
  Graph.connect g ~src:mult2 ~dst:out ~port:0;
  g

let fig2_inputs n =
  [ ("a", reals (List.init n (fun i -> float_of_int (i + 1))));
    ("b", reals (List.init n (fun i -> 1.0 +. (0.5 *. float_of_int i)))) ]

let fires events =
  List.length
    (List.filter (function Obs.Event.Fire _ -> true | _ -> false) events)

let kernel_source =
  {|
param n = 15;
input A : array[real] [0, n];
input B : array[real] [0, n];

R : array[real] :=
  forall i in [0, n]
    y : real := A[i] * B[i];
  construct
    (y + 2.) * (y - 3.)
  endall;
|}

(* ---------------- tracer ---------------- *)

let test_sim_parity () =
  let inputs = fig2_inputs 40 in
  let base = Sim.Engine.run_cfg Run_config.default (fig2_graph ()) ~inputs in
  let tracer = Obs.Tracer.create () in
  let traced =
    Sim.Engine.run_cfg
      Run_config.(default |> with_tracer tracer)
      (fig2_graph ()) ~inputs
  in
  Alcotest.(check int)
    "same end time" base.Sim.Engine.end_time traced.Sim.Engine.end_time;
  Alcotest.(check bool)
    "same outputs" true
    (base.Sim.Engine.outputs = traced.Sim.Engine.outputs);
  Alcotest.(check bool)
    "same fire counts" true
    (base.Sim.Engine.fire_counts = traced.Sim.Engine.fire_counts);
  let total = Array.fold_left ( + ) 0 base.Sim.Engine.fire_counts in
  Alcotest.(check int)
    "one Fire event per firing" total
    (fires (Obs.Tracer.events tracer))

let test_machine_parity () =
  let inputs = fig2_inputs 40 in
  let arch = Arch.default in
  let base = ME.run_cfg ME.default_config ~arch (fig2_graph ()) ~inputs in
  let tracer = Obs.Tracer.create () in
  let traced =
    ME.run_cfg
      Run_config.(ME.default_config |> with_tracer tracer)
      ~arch (fig2_graph ()) ~inputs
  in
  Alcotest.(check int)
    "same end time" base.ME.end_time traced.ME.end_time;
  Alcotest.(check bool)
    "same outputs" true (base.ME.outputs = traced.ME.outputs);
  Alcotest.(check bool) "same stats" true (base.ME.stats = traced.ME.stats);
  Alcotest.(check int)
    "one Fire event per dispatch" base.ME.stats.ME.dispatches
    (fires (Obs.Tracer.events tracer));
  Alcotest.(check int)
    "per-PE dispatches sum to the total" base.ME.stats.ME.dispatches
    (Array.fold_left ( + ) 0 base.ME.stats.ME.pe_dispatches)

let test_null_tracer () =
  Alcotest.(check bool) "disabled" false (Obs.Tracer.enabled Obs.Tracer.null);
  Obs.Tracer.emit Obs.Tracer.null
    (Obs.Event.Ack { time = 0; track = 0; src = 0; dst = 0 });
  Alcotest.(check int) "records nothing" 0 (Obs.Tracer.length Obs.Tracer.null);
  (* the engines default to the null tracer: a plain run traces nothing *)
  let (_ : Sim.Engine.result) =
    Sim.Engine.run_cfg Run_config.default (fig2_graph ()) ~inputs:(fig2_inputs 10)
  in
  Alcotest.(check int)
    "still nothing after a run" 0
    (Obs.Tracer.length Obs.Tracer.null)

let test_ring_buffer () =
  let t = Obs.Tracer.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Tracer.emit t (Obs.Event.Ack { time = i; track = 0; src = 0; dst = 0 })
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length t);
  Alcotest.(check int) "dropped counted" 6 (Obs.Tracer.dropped t);
  Alcotest.(check int) "total emitted" 10 (Obs.Tracer.total t);
  Alcotest.(check (list int))
    "newest retained, oldest first" [ 6; 7; 8; 9 ]
    (List.map Obs.Event.time (Obs.Tracer.events t));
  Obs.Tracer.clear t;
  Alcotest.(check int) "clear empties" 0 (Obs.Tracer.length t)

(* ---------------- Perfetto export ---------------- *)

let test_perfetto_wellformed () =
  let _prog, cp = D.compile_source kernel_source in
  let tracer = Obs.Tracer.create () in
  let st = Random.State.make [| 1 |] in
  let wave = List.init 16 (fun _ -> Random.State.float st 1.0) in
  let result =
    D.run_cfg ~waves:4
      Run_config.(default |> with_tracer tracer)
      cp
      ~inputs:[ ("A", D.wave_of_floats wave); ("B", D.wave_of_floats wave) ]
  in
  let doc =
    Obs.Json.of_string
      (Obs.Perfetto.to_string ~process_name:"test"
         ~track_names:[ (0, "cell 0") ]
         (Obs.Tracer.events tracer))
  in
  let total = Array.fold_left ( + ) 0 result.Sim.Engine.fire_counts in
  Alcotest.(check int)
    "slice count equals total firings" total
    (Obs.Perfetto.slice_count doc);
  let events = Obs.Json.get_list (Obs.Json.member "traceEvents" doc) in
  Alcotest.(check bool) "has events" true (events <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        "every event has ph/pid/name" true
        (Obs.Json.get_string (Obs.Json.member "ph" ev) <> None
        && Obs.Json.get_int (Obs.Json.member "pid" ev) <> None
        && Obs.Json.get_string (Obs.Json.member "name" ev) <> None))
    events

(* ---------------- metrics registry ---------------- *)

let test_metrics_roundtrip () =
  let m = Obs.Metrics_registry.create () in
  Obs.Metrics_registry.incr m "runs";
  Obs.Metrics_registry.incr m "runs" ~by:7;
  Obs.Metrics_registry.set m "interval" 2.5;
  for i = 1 to 100 do
    Obs.Metrics_registry.observe m "period" (float_of_int i)
  done;
  Alcotest.(check int) "counter" 8 (Obs.Metrics_registry.counter m "runs");
  Alcotest.(check int) "absent counter" 0 (Obs.Metrics_registry.counter m "x");
  (match Obs.Metrics_registry.summary m "period" with
  | None -> Alcotest.fail "missing summary"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Obs.Metrics_registry.count;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Obs.Metrics_registry.mean;
    Alcotest.(check (float 1e-9)) "p50" 51.0 s.Obs.Metrics_registry.p50);
  let doc =
    Obs.Json.of_string (Obs.Json.to_string (Obs.Metrics_registry.to_json m))
  in
  let open Obs.Json in
  Alcotest.(check (option int))
    "counter round-trips" (Some 8)
    (get_int (member "runs" (member "counters" doc)));
  Alcotest.(check (option (float 1e-9)))
    "gauge round-trips" (Some 2.5)
    (get_float (member "interval" (member "gauges" doc)));
  Alcotest.(check (option (float 1e-9)))
    "histogram mean round-trips" (Some 50.5)
    (get_float (member "mean" (member "period" (member "histograms" doc))))

(* ---------------- bench JSON ---------------- *)

let test_bench_schema () =
  let entries =
    [ Obs.Bench_json.entry ~predicted:2.0 ~measured:2.003 ~ok:true "E1"
        "pipeline";
      Obs.Bench_json.entry ~ok:false ~detail:"broke" "E2" "balance" ]
  in
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Bench_json.write_file ~path entries;
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let doc = Obs.Json.of_string text in
      let open Obs.Json in
      Alcotest.(check (option string))
        "schema" (Some "dataflow_pipelining.bench/1")
        (get_string (member "schema" doc));
      Alcotest.(check (option int)) "total" (Some 2)
        (get_int (member "total" doc));
      Alcotest.(check (option int))
        "failures" (Some 1)
        (get_int (member "failures" doc));
      match get_list (member "results" doc) with
      | [ e1; e2 ] ->
        Alcotest.(check (option string))
          "id" (Some "E1")
          (get_string (member "id" e1));
        Alcotest.(check (option string))
          "verdict" (Some "PASS")
          (get_string (member "verdict" e1));
        Alcotest.(check (option (float 1e-9)))
          "predicted" (Some 2.0)
          (get_float (member "predicted" e1));
        Alcotest.(check (option bool))
          "ok false" (Some false)
          (get_bool (member "ok" e2))
      | _ -> Alcotest.fail "expected two results")

(* ---------------- JSON wire-format round trips ---------------- *)

(* Structural equality with bit-exact floats: the printer must preserve
   every finite double, including -0.0 and subnormals, which plain (=)
   would conflate with their neighbours. *)
let rec json_equal a b =
  let open Obs.Json in
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | String x, String y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
         xs ys
  | _ -> false

let roundtrips j = json_equal j (Obs.Json.of_string (Obs.Json.to_string j))

let finite_float_gen =
  QCheck.Gen.(
    frequency
      [ (4, float);
        (2, map2 (fun m e -> ldexp m e) (float_range (-1.0) 1.0) (int_range (-1074) 1023));
        (1, oneofl
             [ 0.0; -0.0; 0.1; 1.0 /. 3.0; 1e15; 1e15 -. 1.0; 1e22;
               max_float; min_float; epsilon_float; 4.9e-324;
               9007199254740993.0; 1.2345678901234567 ]) ]
    |> map (fun f -> if Float.is_nan f || Float.abs f = infinity then 0.5 else f))

(* Strings of arbitrary bytes (almost all need an escape) and strings
   of bytes that need none, which the reader takes as one substring. *)
let string_gen =
  QCheck.Gen.(
    frequency
      [ (1, string_of char);
        (1,
         string_of
           (map
              (fun c -> if c = '"' || c = '\\' || c < ' ' then 'x' else c)
              char)) ])

let json_gen =
  let open QCheck.Gen in
  let scalar =
    frequency
      [ (1, return Obs.Json.Null);
        (2, map (fun b -> Obs.Json.Bool b) bool);
        (4, map (fun i -> Obs.Json.Int i) int);
        (4, map (fun f -> Obs.Json.Float f) finite_float_gen);
        (4, map (fun s -> Obs.Json.String s) string_gen) ]
  in
  sized_size (int_bound 4)
    (fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [ (3, scalar);
               (1, map (fun xs -> Obs.Json.List xs)
                     (list_size (int_bound 4) (self (depth - 1))));
               (1, map (fun kvs -> Obs.Json.Obj kvs)
                     (list_size (int_bound 4)
                        (pair string_gen (self (depth - 1))))) ]))

(* The writer as it was before it lost the format interpreter: the
   reference [Obs.Json.to_string] must match byte for byte. *)
let reference_json_to_string j =
  let open Obs.Json in
  let buf = Buffer.create 256 in
  let add_escaped s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
        Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else
        let s = Printf.sprintf "%.12g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
        let s =
          if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
          else s ^ ".0"
        in
        Buffer.add_string buf s
    | String s ->
      Buffer.add_char buf '"';
      add_escaped s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped k;
          Buffer.add_string buf "\":";
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

let writes_as_reference j =
  String.equal (reference_json_to_string j) (Obs.Json.to_string j)

let test_json_writer_oracle () =
  let every_byte = String.init 256 Char.chr in
  List.iter
    (fun j ->
      Alcotest.(check string)
        "to_string = reference writer" (reference_json_to_string j)
        (Obs.Json.to_string j))
    [ Obs.Json.String every_byte;
      Obs.Json.Obj [ (every_byte, Obs.Json.String every_byte) ];
      Obs.Json.List
        (List.init 256 (fun c -> Obs.Json.String (String.make 3 (Char.chr c))));
      Obs.Json.List
        (List.map
           (fun f -> Obs.Json.Float f)
           [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e15;
             1e15 -. 1.0; -1e15; 0.1; 4.9e-324; max_float; 1e22 ]) ]

let prop_tests =
  let count = 500 in
  [ QCheck.Test.make ~count ~name:"string round-trip (escapes, control chars)"
      (QCheck.make ~print:(Printf.sprintf "%S") string_gen)
      (fun s -> roundtrips (Obs.Json.String s));
    QCheck.Test.make ~count ~name:"int round-trip (full range)"
      QCheck.(frequency [ (4, int); (1, oneofl [ min_int; max_int; 0; -1 ]) ])
      (fun i -> roundtrips (Obs.Json.Int i));
    QCheck.Test.make ~count ~name:"finite float round-trip (bit-exact)"
      (QCheck.make ~print:(Printf.sprintf "%h") finite_float_gen)
      (fun f -> roundtrips (Obs.Json.Float f));
    QCheck.Test.make ~count:200 ~name:"nested document round-trip"
      (QCheck.make ~print:Obs.Json.to_string json_gen)
      roundtrips;
    QCheck.Test.make ~count ~name:"json writer on documents = reference"
      (QCheck.make ~print:Obs.Json.to_string json_gen)
      writes_as_reference ]

let test_json_corner_cases () =
  let open Obs.Json in
  (* non-finite reals have no JSON number form; they print as null and
     travel as %h hex-float strings on wire formats that need them *)
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string)
    "inf is null" "null" (to_string (Float Float.infinity));
  List.iter
    (fun f ->
      let s = Printf.sprintf "%h" f in
      let back = float_of_string s in
      let same =
        if Float.is_nan f then Float.is_nan back
        else Int64.bits_of_float back = Int64.bits_of_float f
      in
      Alcotest.(check bool)
        (Printf.sprintf "hex-float string %s survives the wire" s)
        true
        (same && get_string (of_string (to_string (String s))) = Some s))
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.1; max_float ];
  Alcotest.(check string)
    "negative zero keeps its sign" "-0.0" (to_string (Float (-0.0)));
  Alcotest.(check string)
    "escapes nest" {|"a\"b\\n\\c"|} (to_string (String {|a"b\n\c|}));
  Alcotest.(check bool)
    "deep escape round-trip" true
    (roundtrips (String "\\\\\"\n\t\r\b\012\000\031end"))

(* ---------------- Metrics.initiation_interval on tiny samples ------- *)

let test_interval_tiny_samples () =
  let nan_for msg times =
    Alcotest.(check bool)
      msg true
      (Float.is_nan (Sim.Metrics.initiation_interval times))
  in
  nan_for "empty sample" [];
  nan_for "single arrival" [ 5 ];
  Alcotest.(check (float 1e-9))
    "two arrivals" 2.0
    (Sim.Metrics.initiation_interval [ 3; 5 ]);
  Alcotest.(check (float 1e-9))
    "negative trim clamps instead of raising" 2.0
    (Sim.Metrics.initiation_interval ~trim:(-1.0) [ 0; 2; 4 ]);
  Alcotest.(check bool)
    "over-trim yields nan" true
    (Float.is_nan (Sim.Metrics.initiation_interval ~trim:0.9 [ 0; 2; 4 ]))

let suite =
  [
    Alcotest.test_case "sim tracer on/off parity" `Quick test_sim_parity;
    Alcotest.test_case "machine tracer on/off parity" `Quick
      test_machine_parity;
    Alcotest.test_case "null tracer records nothing" `Quick test_null_tracer;
    Alcotest.test_case "ring buffer drops oldest" `Quick test_ring_buffer;
    Alcotest.test_case "perfetto export well-formed" `Quick
      test_perfetto_wellformed;
    Alcotest.test_case "metrics registry round-trip" `Quick
      test_metrics_roundtrip;
    Alcotest.test_case "bench JSON schema" `Quick test_bench_schema;
    Alcotest.test_case "initiation_interval tiny samples" `Quick
      test_interval_tiny_samples;
    Alcotest.test_case "json wire-format corner cases" `Quick
      test_json_corner_cases;
    Alcotest.test_case "json writer on every byte = reference" `Quick
      test_json_writer_oracle;
  ]
  @ List.map QCheck_alcotest.to_alcotest prop_tests
