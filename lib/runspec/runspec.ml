open Dfg
module FP = Fault.Fault_plan
module PC = Compiler.Program_compile
module K = Kernels

(* ---------------- kernel subjects ---------------- *)

let feeds compiled ~waves kernel_inputs =
  Compiler.Driver.feeds ~waves compiled kernel_inputs

type subject = {
  kernel : K.kernel;
  size : int;
  waves : int;
  compiled : PC.compiled;
  graph : Graph.t;
  inputs : (string * Value.t list) list;
}

let compile_subject (k : K.kernel) ~size ~waves =
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let inputs = Compiler.Driver.feeds ~waves compiled (K.seeded_inputs k size) in
  { kernel = k; size; waves; compiled; graph = compiled.PC.cp_graph; inputs }

let kernels_matching = function
  | None -> Ok K.all
  | Some name -> (
    match List.filter (fun (k : K.kernel) -> k.K.name = name) K.all with
    | [] ->
      Error
        (Printf.sprintf "unknown kernel %s (have: %s)" name
           (String.concat ", "
              (List.map (fun (k : K.kernel) -> k.K.name) K.all)))
    | ks -> Ok ks)

(* ---------------- run hygiene ---------------- *)

(* the watchdog must sit above every injected latency source — routing
   delays, PE stall windows, FU/AM slowdowns — and above the full
   retransmission window when the recovery protocol is on *)
let watchdog_for ?(base = 100) (spec : FP.spec) recovery =
  base
  + (4 * spec.FP.delay_max)
  + (if spec.FP.stall_prob > 0.0 then 4 * spec.FP.stall_max else 0)
  + (16 * (spec.FP.fu_slow + spec.FP.am_slow))
  + (match recovery with
    | Some (r : Run_config.recovery) -> 17 * r.retransmit_after
    | None -> 0)

let synth_wave ~seed ~elt ~size name =
  let st = Random.State.make [| seed; Hashtbl.hash name |] in
  List.init size (fun _ ->
      match elt with
      | Val_lang.Ast.Tint -> Value.Int (Random.State.int st 100)
      | Val_lang.Ast.Treal -> Value.Real (Random.State.float st 2.0 -. 1.0)
      | Val_lang.Ast.Tbool -> Value.Bool (Random.State.bool st))

(* ---------------- result rendering ---------------- *)

let value_text = function
  | Value.Int i -> string_of_int i
  | Value.Bool b -> if b then "true" else "false"
  | Value.Real r -> Printf.sprintf "%h" r

let write_values ~path outputs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (name, arrivals) ->
          List.iter
            (fun (t, v) ->
              Printf.fprintf oc "%s\t%d\t%s\n" name t (value_text v))
            arrivals)
        outputs)

let hostport_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port_s = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port_s with
    | Some port when port >= 0 && port <= 65535 ->
      Ok ((if host = "" then "127.0.0.1" else host), port)
    | Some port -> Error (Printf.sprintf "port %d outside 0..65535" port)
    | None -> Error (Printf.sprintf "%S: port is not a number" port_s))

(* Cluster member lists: "a.sock,b.sock,tcp:h:p" inline, or "@FILE"
   with one address per line (blank lines and #-comments ignored).
   Addresses are kept verbatim — Serve.Client.addr_of_string decides
   Unix-path vs TCP later — but duplicates are rejected here, because
   a duplicated member would get double weight in rendezvous hashing
   and double probes. *)
let members_of_string spec =
  let clean lines =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None else Some line)
      lines
  in
  let parsed =
    if String.length spec > 0 && spec.[0] = '@' then (
      let path = String.sub spec 1 (String.length spec - 1) in
      match open_in path with
      | exception Sys_error e -> Error e
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            Ok (clean (go []))))
    else Ok (clean (String.split_on_char ',' spec))
  in
  match parsed with
  | Error _ as e -> e
  | Ok [] -> Error "empty cluster member list"
  | Ok members ->
    if List.length (List.sort_uniq compare members) <> List.length members
    then Error "duplicate cluster member"
    else Ok members
