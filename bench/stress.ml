(* Large-kernel throughput stress: raw engine speed on a wide, deep
   grid of Id cells (the maximally-pipelined shape the paper's balancing
   produces), measured as firings per wall-second and output tokens per
   wall-second: T1 on the graph engine, T3 on the machine engine.

   This is deliberately a separate executable from bench/main.exe: the
   main harness must stay byte-deterministic across hosts and worker
   counts (CI diffs its output), so nothing wall-clock-dependent can
   live there.

     stress.exe [--quick] [--json FILE] [--merge FILE]
                [--gate FILE] [--tolerance T]

   --json    write a standalone bench document of the stress entries
   --merge   splice the stress entries into an existing bench document
             (replacing previous T* entries, preserving everything else)
   --gate    after measuring, compare firings/sec against the T* entries
             of a committed baseline document: every fresh measurement
             must reach (1 - T) of the baseline's, else exit 1.
             The default tolerance 0.7 is deliberately loose — it gates
             against order-of-magnitude regressions (losing the arena
             fast path), not against host-to-host hardware variance. *)

open Dfg
module J = Obs.Json
module ME = Machine.Machine_engine

let grid ~width ~depth =
  let g = Graph.create () in
  let input = Graph.add g ~label:"in" (Opcode.Input "in") [||] in
  for w = 0 to width - 1 do
    let prev = ref input in
    for d = 0 to depth - 1 do
      let id =
        Graph.add g ~label:(Printf.sprintf "c%d_%d" w d) Opcode.Id
          [| Graph.In_arc |]
      in
      Graph.connect g ~src:!prev ~dst:id ~port:0;
      prev := id
    done;
    let out =
      Graph.add g
        ~label:(Printf.sprintf "o%d" w)
        (Opcode.Output (Printf.sprintf "o%d" w))
        [| Graph.In_arc |]
    in
    Graph.connect g ~src:!prev ~dst:out ~port:0
  done;
  g

type measurement = {
  ms_id : string;
  ms_title : string;
  ms_cells : int;
  ms_firings : int;
  ms_tokens : int;  (* output packets collected *)
  ms_wall : float;
  ms_quiescent : bool;
  ms_predicted : float;  (* pre-rewrite engine rate, firings/sec *)
  ms_factor : float;  (* required measured/predicted ratio for ok *)
}

let rate m = float_of_int m.ms_firings /. m.ms_wall
let token_rate m = float_of_int m.ms_tokens /. m.ms_wall
let ok m = m.ms_quiescent && rate m >= m.ms_factor *. m.ms_predicted

(* Pre-rewrite baselines: the last interpreted engines before the
   flat-arena rewrite, measured on the same host interleaved with the
   rewritten engines (single-vCPU container, so only interleaved A/B
   ratios are trustworthy). *)
let sim_baseline = 1.75e6
let machine_baseline = 0.65e6

let measure ~id ~title ~predicted ~factor ~run =
  let t0 = Unix.gettimeofday () in
  let cells, firings, tokens, quiescent = run () in
  let wall = Unix.gettimeofday () -. t0 in
  let m =
    { ms_id = id; ms_title = title; ms_cells = cells; ms_firings = firings;
      ms_tokens = tokens; ms_wall = wall; ms_quiescent = quiescent;
      ms_predicted = predicted; ms_factor = factor }
  in
  Printf.printf
    "  [%s] %-28s %9d cells %10d firings  %6.2fs  %10.0f firings/s  %9.0f \
     tokens/s%s\n%!"
    (if ok m then "PASS" else "FAIL")
    title cells firings wall (rate m) (token_rate m)
    (if quiescent then "" else "  (NOT QUIESCENT)");
  m

let out_tokens outputs =
  List.fold_left (fun acc (_, arrivals) -> acc + List.length arrivals) 0 outputs

let sim_run ~width ~depth ~len () =
  let g = grid ~width ~depth in
  let inputs = [ ("in", List.init len (fun i -> Value.Int i)) ] in
  let r = Sim.Engine.run_cfg Run_config.default g ~inputs in
  ( Graph.node_count g,
    Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts,
    out_tokens r.Sim.Engine.outputs,
    r.Sim.Engine.quiescent )

let machine_run ~width ~depth ~len () =
  let g = grid ~width ~depth in
  let inputs = [ ("in", List.init len (fun i -> Value.Int i)) ] in
  let r = ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs in
  ( Graph.node_count g,
    r.ME.stats.ME.dispatches,
    out_tokens r.ME.outputs,
    r.ME.quiescent )

let measurements ~quick =
  (* the full sim grid is the acceptance shape: >= 1e5 cells, >= 1e7
     firings; --quick shrinks everything for smoke runs *)
  let sw, sd, sl = if quick then (200, 50, 40) else (1000, 100, 100) in
  let mw, md, ml = if quick then (50, 20, 20) else (200, 50, 50) in
  let t1 =
    measure ~id:"T1" ~title:"sim interpreted" ~predicted:sim_baseline
      ~factor:5.0
      ~run:(sim_run ~width:sw ~depth:sd ~len:sl)
  in
  let t3 =
    measure ~id:"T3" ~title:"machine interpreted"
      ~predicted:machine_baseline ~factor:0.5
      ~run:(machine_run ~width:mw ~depth:md ~len:ml)
  in
  [ t1; t3 ]

let entry_of m =
  Obs.Bench_json.entry ~predicted:m.ms_predicted ~measured:(rate m)
    ~units:"firings/sec"
    ~detail:
      (Printf.sprintf
         "throughput stress; ok iff quiescent and >= %.1fx the pre-rewrite \
          interpreted engine"
         m.ms_factor)
    ~extra:
      [ ("cells", J.Int m.ms_cells); ("firings", J.Int m.ms_firings);
        ("tokens", J.Int m.ms_tokens);
        ("tokens_per_sec", J.Float (token_rate m));
        ("quiescent", J.Bool m.ms_quiescent) ]
    ~ok:(ok m) m.ms_id m.ms_title

let meta =
  [ ("suite", J.String "dennis-gao-icpp83");
    ("generated_by", J.String "bench/stress.exe") ]

let is_stress_id j =
  match J.get_string (J.member "id" j) with
  | Some id -> String.length id >= 1 && id.[0] = 'T'
  | None -> false

(* Splice fresh T* entries into an existing bench document, keeping the
   other experiments' entries and top-level fields intact. *)
let merge_into path ms =
  let fresh = List.map (fun m -> Obs.Bench_json.json_of_entry (entry_of m)) ms in
  let doc =
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      J.of_string s)
    else Obs.Bench_json.to_json ~meta []
  in
  match doc with
  | J.Obj fields ->
    let old_results =
      match J.member "results" doc with
      | J.List l -> List.filter (fun e -> not (is_stress_id e)) l
      | _ -> []
    in
    let results = old_results @ fresh in
    let failed j =
      match J.get_bool (J.member "ok" j) with Some b -> not b | None -> false
    in
    let fields =
      List.map
        (fun (k, v) ->
          match k with
          | "results" -> (k, J.List results)
          | "total" -> (k, J.Int (List.length results))
          | "failures" ->
            (k, J.Int (List.length (List.filter failed results)))
          | _ -> (k, v))
        fields
    in
    (* a fresh document from to_json ~meta [] already has all four keys *)
    J.write_file path (J.Obj fields);
    Printf.printf "merged %d stress entries into %s\n" (List.length fresh) path
  | _ -> failwith (path ^ ": not a bench document")

let gate path ~tolerance ms =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let doc = J.of_string s in
  let baseline id =
    match J.member "results" doc with
    | J.List l ->
      List.find_map
        (fun e ->
          if J.get_string (J.member "id" e) = Some id then
            J.get_float (J.member "measured" e)
          else None)
        l
    | _ -> None
  in
  let failures =
    List.filter
      (fun m ->
        match baseline m.ms_id with
        | None ->
          Printf.printf "  [gate] %s: no baseline in %s (skipped)\n" m.ms_id
            path;
          false
        | Some b ->
          let floor = (1.0 -. tolerance) *. b in
          let pass = rate m >= floor && m.ms_quiescent in
          Printf.printf
            "  [gate %s] %s: %.0f firings/s vs baseline %.0f (floor %.0f)\n"
            (if pass then "PASS" else "FAIL")
            m.ms_id (rate m) b floor;
          not pass)
      ms
  in
  if failures <> [] then (
    Printf.printf "PERF GATE FAILED: %d measurement(s) below the band\n"
      (List.length failures);
    exit 1)
  else Printf.printf "perf gate passed (tolerance %.2f)\n" tolerance

let () =
  let quick = ref false and json = ref None in
  let merge = ref None and gate_path = ref None and tolerance = ref 0.7 in
  let rec parse i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--quick" ->
        quick := true;
        parse (i + 1)
      | ("--json" | "--merge" | "--gate" | "--tolerance") as flag
        when i + 1 >= Array.length Sys.argv ->
        failwith (flag ^ " needs an argument")
      | "--json" ->
        json := Some Sys.argv.(i + 1);
        parse (i + 2)
      | "--merge" ->
        merge := Some Sys.argv.(i + 1);
        parse (i + 2)
      | "--gate" ->
        gate_path := Some Sys.argv.(i + 1);
        parse (i + 2)
      | "--tolerance" ->
        tolerance := float_of_string Sys.argv.(i + 1);
        parse (i + 2)
      | a -> failwith ("unknown argument " ^ a)
  in
  parse 1;
  Printf.printf "engine throughput stress (%s grids)\n"
    (if !quick then "quick" else "full");
  let ms = measurements ~quick:!quick in
  (match !json with
  | Some path ->
    Obs.Bench_json.write_file ~path ~meta (List.map entry_of ms);
    Printf.printf "wrote %s\n" path
  | None -> ());
  (match !merge with Some path -> merge_into path ms | None -> ());
  (match !gate_path with
  | Some path -> gate path ~tolerance:!tolerance ms
  | None -> ());
  if List.exists (fun m -> not (ok m)) ms && !gate_path = None then exit 2
