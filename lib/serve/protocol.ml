open Dfg
module J = Obs.Json
module CP = Recover.Checkpoint

(* ---------------- values ---------------- *)

let value_to_json = CP.value_to_json
let value_of_json = CP.value_of_json

let rec result_map f = function
  | [] -> Ok []
  | x :: rest -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> ( match result_map f rest with Ok ys -> Ok (y :: ys) | e -> e))

let outputs_to_json outputs =
  J.List
    (List.map
       (fun (name, packets) ->
         J.Obj
           [ ("name", J.String name);
             ("packets", J.List (List.map CP.packet_to_json packets)) ])
       outputs)

let outputs_of_json j =
  match j with
  | J.List streams ->
    result_map
      (fun s ->
        match (J.get_string (J.member "name" s), J.member "packets" s) with
        | Some name, J.List packets -> (
          match result_map CP.packet_of_json packets with
          | Ok packets -> Ok (name, packets)
          | Error _ as e -> e)
        | _ -> Error (Printf.sprintf "bad stream %s" (J.to_string s)))
      streams
  | _ -> Error "outputs: expected a list"

(* ---------------- requests ---------------- *)

type program =
  | Kernel of { name : string; size : int }
  | Source of {
      source : string;
      scalars : (string * Value.t) list;
      input_seed : int;
    }

type watchdog_spec = Off | Auto | At of int

type run = {
  program : program;
  waves : int;
  engine : [ `Sim | `Machine ];
  n_pe : int option;
  stored : bool;
  fault : string option;
  fault_seed : int option;
  recovery : string option;
  integrity : bool;
  watchdog : watchdog_spec;
  max_time : int option;
  sanitize : bool;
  idem : string option;
  restore : J.t option;
}

let default_run program =
  { program;
    waves = 1;
    engine = `Sim;
    n_pe = None;
    stored = false;
    fault = None;
    fault_seed = None;
    recovery = None;
    integrity = false;
    watchdog = Off;
    max_time = None;
    sanitize = false;
    idem = None;
    restore = None }

type sweep = {
  sw_kernels : string list option;
  sw_pes : int list;
  sw_waves : int list;
  sw_size : int;
}

type request =
  | Compile of program
  | Simulate of run
  | Sweep of sweep
  | Cancel of int
  | Migrate of string
  | Replicate of { origin : string; entry : J.t }
  | Recover of { origin : string }
  | Members
  | Stats
  | Shutdown

let program_fields = function
  | Kernel { name; size } -> [ ("kernel", J.String name); ("size", J.Int size) ]
  | Source { source; scalars; input_seed } ->
    [ ("source", J.String source);
      ("scalars", J.Obj (List.map (fun (n, v) -> (n, value_to_json v)) scalars));
      ("input_seed", J.Int input_seed) ]

let run_fields r =
  program_fields r.program
  @ [ ("waves", J.Int r.waves);
      ("engine", J.String (match r.engine with `Sim -> "sim" | `Machine -> "machine")) ]
  @ (match r.n_pe with Some n -> [ ("pe", J.Int n) ] | None -> [])
  @ (if r.stored then [ ("stored", J.Bool true) ] else [])
  @ (match r.fault with Some s -> [ ("fault", J.String s) ] | None -> [])
  @ (match r.fault_seed with Some n -> [ ("fault_seed", J.Int n) ] | None -> [])
  @ (match r.recovery with Some s -> [ ("recovery", J.String s) ] | None -> [])
  @ (if r.integrity then [ ("integrity", J.Bool true) ] else [])
  @ (match r.watchdog with
    | Off -> []
    | Auto -> [ ("watchdog", J.String "auto") ]
    | At n -> [ ("watchdog", J.Int n) ])
  @ (match r.max_time with Some n -> [ ("max_time", J.Int n) ] | None -> [])
  @ (if r.sanitize then [ ("sanitize", J.Bool true) ] else [])
  @ (match r.idem with Some k -> [ ("idem", J.String k) ] | None -> [])
  @ match r.restore with Some ck -> [ ("restore", ck) ] | None -> []

let sweep_fields s =
  (match s.sw_kernels with
  | None -> []
  | Some ks -> [ ("kernels", J.List (List.map (fun k -> J.String k) ks)) ])
  @ [ ("pes", J.List (List.map (fun n -> J.Int n) s.sw_pes));
      ("waves", J.List (List.map (fun n -> J.Int n) s.sw_waves));
      ("size", J.Int s.sw_size) ]

let request_to_json ~id req =
  let verb, fields =
    match req with
    | Compile p -> ("compile", program_fields p)
    | Simulate r -> ("simulate", run_fields r)
    | Sweep s -> ("sweep", sweep_fields s)
    | Cancel target -> ("cancel", [ ("target", J.Int target) ])
    | Migrate idem -> ("migrate", [ ("idem", J.String idem) ])
    | Replicate { origin; entry } ->
      ("replicate", [ ("origin", J.String origin); ("entry", entry) ])
    | Recover { origin } -> ("recover", [ ("origin", J.String origin) ])
    | Members -> ("members", [])
    | Stats -> ("stats", [])
    | Shutdown -> ("shutdown", [])
  in
  J.Obj (("id", J.Int id) :: ("verb", J.String verb) :: fields)

let program_of_json j =
  match (J.get_string (J.member "kernel" j), J.get_string (J.member "source" j)) with
  | Some _, Some _ -> Error "both kernel and source given"
  | Some name, None ->
    let size = Option.value ~default:12 (J.get_int (J.member "size" j)) in
    if size < 1 then Error "size must be positive"
    else Ok (Kernel { name; size })
  | None, Some source -> (
    let input_seed =
      Option.value ~default:1 (J.get_int (J.member "input_seed" j))
    in
    match J.member "scalars" j with
    | J.Null -> Ok (Source { source; scalars = []; input_seed })
    | J.Obj kvs -> (
      match
        result_map
          (fun (n, v) ->
            match value_of_json v with Ok v -> Ok (n, v) | Error _ as e -> e)
          kvs
      with
      | Ok scalars -> Ok (Source { source; scalars; input_seed })
      | Error e -> Error ("scalars: " ^ e))
    | _ -> Error "scalars must be an object")
  | None, None -> Error "request names neither kernel nor source"

let run_of_json j =
  match program_of_json j with
  | Error _ as e -> e
  | Ok program -> (
    let waves = Option.value ~default:1 (J.get_int (J.member "waves" j)) in
    let engine_s =
      Option.value ~default:"sim" (J.get_string (J.member "engine" j))
    in
    let engine_ok =
      match engine_s with
      | "sim" -> Ok `Sim
      | "machine" -> Ok `Machine
      | s -> Error (Printf.sprintf "unknown engine %S" s)
    in
    let watchdog_ok =
      match J.member "watchdog" j with
      | J.Null -> Ok Off
      | J.String "auto" -> Ok Auto
      | J.Int n when n > 0 -> Ok (At n)
      | w -> Error (Printf.sprintf "bad watchdog %s" (J.to_string w))
    in
    match (engine_ok, watchdog_ok) with
    | Error e, _ | _, Error e -> Error e
    | Ok engine, Ok watchdog ->
      if waves < 1 then Error "waves must be positive"
      else
        Ok
          { program;
            waves;
            engine;
            n_pe = J.get_int (J.member "pe" j);
            stored =
              Option.value ~default:false (J.get_bool (J.member "stored" j));
            fault = J.get_string (J.member "fault" j);
            fault_seed = J.get_int (J.member "fault_seed" j);
            recovery = J.get_string (J.member "recovery" j);
            integrity =
              Option.value ~default:false (J.get_bool (J.member "integrity" j));
            watchdog;
            max_time = J.get_int (J.member "max_time" j);
            sanitize =
              Option.value ~default:false (J.get_bool (J.member "sanitize" j));
            idem = J.get_string (J.member "idem" j);
            restore =
              (match J.member "restore" j with J.Null -> None | ck -> Some ck);
          })

let sweep_of_json j =
  let ints name =
    match J.member name j with
    | J.Null -> Ok None
    | J.List xs -> (
      match result_map (fun x -> match J.get_int x with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "%s: expected integers" name)) xs
      with
      | Ok ns -> Ok (Some ns)
      | Error _ as e -> e)
    | _ -> Error (Printf.sprintf "%s: expected a list" name)
  in
  let kernels =
    match J.member "kernels" j with
    | J.Null -> Ok None
    | J.List xs -> (
      match result_map (fun x -> match J.get_string x with
        | Some s -> Ok s
        | None -> Error "kernels: expected strings") xs
      with
      | Ok ks -> Ok (Some ks)
      | Error _ as e -> e)
    | _ -> Error "kernels: expected a list"
  in
  match (kernels, ints "pes", ints "waves") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok kernels, Ok pes, Ok waves ->
    let pes = Option.value ~default:[ 1; 2; 4; 8; 16 ] pes in
    let waves = Option.value ~default:[ 4 ] waves in
    let size = Option.value ~default:32 (J.get_int (J.member "size" j)) in
    if List.exists (fun p -> p < 1) pes then Error "pes must be positive"
    else if List.exists (fun w -> w < 1) waves then
      Error "waves must be positive"
    else if size < 1 then Error "size must be positive"
    else Ok { sw_kernels = kernels; sw_pes = pes; sw_waves = waves;
              sw_size = size }

let request_of_json j =
  match (J.get_int (J.member "id" j), J.get_string (J.member "verb" j)) with
  | None, _ -> Error "missing id"
  | _, None -> Error "missing verb"
  | Some id, Some verb -> (
    let wrap = function Ok r -> Ok (id, r) | Error e -> Error e in
    match verb with
    | "compile" -> wrap (Result.map (fun p -> Compile p) (program_of_json j))
    | "simulate" -> wrap (Result.map (fun r -> Simulate r) (run_of_json j))
    | "sweep" -> wrap (Result.map (fun s -> Sweep s) (sweep_of_json j))
    | "cancel" -> (
      match J.get_int (J.member "target" j) with
      | Some t -> Ok (id, Cancel t)
      | None -> Error "cancel: missing target")
    | "migrate" -> (
      match J.get_string (J.member "idem" j) with
      | Some k -> Ok (id, Migrate k)
      | None -> Error "migrate: missing idem")
    | "replicate" -> (
      match (J.get_string (J.member "origin" j), J.member "entry" j) with
      | Some origin, (J.Obj _ as entry) -> Ok (id, Replicate { origin; entry })
      | None, _ -> Error "replicate: missing origin"
      | _, _ -> Error "replicate: missing entry")
    | "recover" -> (
      match J.get_string (J.member "origin" j) with
      | Some origin -> Ok (id, Recover { origin })
      | None -> Error "recover: missing origin")
    | "members" -> Ok (id, Members)
    | "stats" -> Ok (id, Stats)
    | "shutdown" -> Ok (id, Shutdown)
    | v -> Error (Printf.sprintf "unknown verb %S" v))

(* ---------------- responses ---------------- *)

type error_kind =
  | Bad_request
  | Malformed
  | Compile_error
  | Unknown_verb
  | Overloaded
  | Cancelled
  | Run_error
  | Shutting_down
  | Deadline
  | Replica_error

let error_kind_to_string = function
  | Bad_request -> "bad_request"
  | Malformed -> "malformed"
  | Compile_error -> "compile_error"
  | Unknown_verb -> "unknown_verb"
  | Overloaded -> "overloaded"
  | Cancelled -> "cancelled"
  | Run_error -> "run_error"
  | Shutting_down -> "shutting_down"
  | Deadline -> "deadline"
  | Replica_error -> "replica_error"

let error_kind_of_string = function
  | "bad_request" -> Some Bad_request
  | "malformed" -> Some Malformed
  | "compile_error" -> Some Compile_error
  | "unknown_verb" -> Some Unknown_verb
  | "overloaded" -> Some Overloaded
  | "cancelled" -> Some Cancelled
  | "run_error" -> Some Run_error
  | "shutting_down" -> Some Shutting_down
  | "deadline" -> Some Deadline
  | "replica_error" -> Some Replica_error
  | _ -> None

let ok ~id ~verb fields =
  J.Obj
    (("id", J.Int id) :: ("ok", J.Bool true) :: ("verb", J.String verb)
   :: fields)

let error ?(extra = []) ~id kind message =
  J.Obj
    (("id", J.Int id) :: ("ok", J.Bool false)
    :: ("error", J.String (error_kind_to_string kind))
    :: ("message", J.String message)
    :: extra)

let response_id j = J.get_int (J.member "id" j)

(* Re-address a recorded response to a new request id: journal replays
   and idempotent dedup answer a retried request with the response
   recorded for the original one, under the retry's own id. *)
let with_id id = function
  | J.Obj fields ->
    J.Obj (("id", J.Int id) :: List.filter (fun (k, _) -> k <> "id") fields)
  | j -> j

let response_ok j =
  Option.value ~default:false (J.get_bool (J.member "ok" j))

let response_error j =
  if response_ok j then None
  else
    match J.get_string (J.member "error" j) with
    | None -> None
    | Some kind ->
      Some
        ( error_kind_of_string kind,
          Option.value ~default:"" (J.get_string (J.member "message" j)) )

let outcome_fields ~cache_hit ~key (o : Exec.Outcome.t) =
  [ ("cache_hit", J.Bool cache_hit);
    ("key", J.Int key);
    ("outputs", outputs_to_json o.Exec.Outcome.outputs);
    ("end_time", J.Int o.Exec.Outcome.end_time);
    ("quiescent", J.Bool o.Exec.Outcome.quiescent);
    ( "stall",
      match o.Exec.Outcome.stall with
      | None -> J.Null
      | Some sr -> J.String (Fault.Stall_report.to_string sr) );
    ( "violations",
      J.List
        (List.map
           (fun v -> J.String (Fault.Violation.to_string v))
           o.Exec.Outcome.violations) );
    ("digest", J.Int (Exec.Outcome.digest o));
    ("metrics", Obs.Metrics_registry.to_json (Exec.Outcome.metrics o)) ]
