(* What one run measured: end-to-end and per-layer metrics, operation
   counts per class, and correctness-gate failures. *)

type metric = {
  name : string;
  unit : string;
  raw : float;
  norm : float option;
      (* the same metric in reference-host units, for time-based
         metrics (see Calib) *)
}

let end_to_end : metric list ref = ref []
let per_layer : metric list ref = ref []
let counts : (string * (int * int)) list ref = ref []
let gate_failures : string list ref = ref []
let factors : (string * float) list ref = ref []
let phase_seconds : (string * float) list ref = ref []

(* A metric with its value in reference-host units, from samples each
   normalized by the host factor near it (Calib.factor_between). *)
let normalized name unit ~raw ~norm =
  end_to_end := { name; unit; raw; norm = Some norm } :: !end_to_end

let plain name unit raw =
  end_to_end := { name; unit; raw; norm = None } :: !end_to_end

let layer name unit v =
  per_layer := { name; unit; raw = v; norm = None } :: !per_layer

let count cls ~attempted ~failed =
  let a, f = Option.value ~default:(0, 0) (List.assoc_opt cls !counts) in
  counts :=
    (cls, (a + attempted, f + failed)) :: List.remove_assoc cls !counts

(* A correctness-gate failure: one failed operation of class [cls]. *)
let gate_fail cls fmt =
  Printf.ksprintf
    (fun m ->
      count cls ~attempted:0 ~failed:1;
      gate_failures := m :: !gate_failures)
    fmt

let factor phase f = factors := (phase, f) :: !factors
let factor_of phase = List.assoc phase !factors
