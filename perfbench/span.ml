(* In-memory spans recorded by the benchmark around its calls into the
   repository's layers: name, start, end, parent span and the program or
   request the work belongs to.  Nothing is written until [write] runs at
   the end of a traced run.  Spans nest through a stack, so they must be
   opened from one domain (the benchmark's main domain). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  subject : string;
  parent : int;  (* -1 for a root *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> p | [] -> -1

let add ?(subject = "") ?(parent = parent ()) ~start ~stop name =
  if !enabled then begin
    let id = fresh () in
    recorded := { id; name; subject; parent; start; stop } :: !recorded;
    id
  end
  else -1

let with_ ?(subject = "") name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = parent () in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      stack := List.tl !stack;
      recorded :=
        { id; name; subject; parent; start; stop = now () } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) (all ())
let durations name = List.map duration (named name)

(* A span's self time: its duration minus the time its children cover. *)
let self_times name =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !recorded;
  List.map
    (fun s ->
      duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id))
    (named name)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"subject\":%S,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
            s.id s.name s.subject s.parent s.start s.stop)
        (all ()))

(* Time series kept for the run record: (time, value) per sample. *)
let series : (string, (float * float) list) Hashtbl.t = Hashtbl.create 16

let sample name t v =
  Hashtbl.replace series name
    ((t, v) :: Option.value ~default:[] (Hashtbl.find_opt series name))
