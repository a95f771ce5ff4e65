(* The calibration slice: integer ALU work that scans off-heap buffers —
   a dispatch loop over a 4096-entry program held in a [Bigarray], whose
   eight opcodes do shifts, adds, branches, and loads and stores into a
   512 KiB register file.  It is shaped like the engines' hot loops
   (branchy, many instructions per cycle, L1/L2 traffic), so it slows
   down under the same contention from other tenants of a shared host's
   cores; latency-bound variants (one dependent xorshift chain, a
   dependent walk through 16 MiB) moved by a few per cent while the
   engines moved by twenty.  It allocates nothing on the OCaml heap and
   calls no repository code.

   Phases run it between operations, while the program is idle, and
   divide each time they measure by the ratio of the duration of the
   slices near it to [reference_s] — the slice's median on the reference
   host (a shared 2-vCPU Xeon VM) — which expresses every time in
   reference-host units.  [cadence_s] bounds the overhead to a few per
   cent. *)

let reference_s = 2.3e-3
let cadence_s = 0.05
let steps = 400_000
let program_words = 4096
let register_words = 65536

let program =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout program_words in
     let x = ref 7 in
     for k = 0 to program_words - 1 do
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       Bigarray.Array1.unsafe_set b k (!x mod 8)
     done;
     b)

let registers =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout register_words in
     Bigarray.Array1.fill b 0;
     b)

let sink = ref 0

let slice () =
  let p = Lazy.force program and r = Lazy.force registers in
  let t0 = Span.now () in
  let acc = ref 1 and pc = ref 0 in
  let mask = register_words - 1 in
  for _ = 1 to steps do
    (match Bigarray.Array1.unsafe_get p !pc with
    | 0 -> acc := !acc + 3
    | 1 -> acc := !acc lxor (!acc lsl 5)
    | 2 -> Bigarray.Array1.unsafe_set r (!acc land mask) !pc
    | 3 -> acc := !acc + Bigarray.Array1.unsafe_get r ((!acc lsr 3) land mask)
    | 4 -> acc := !acc lxor (!acc lsr 7)
    | 5 -> if !acc land 4 = 0 then incr acc else decr acc
    | 6 -> Bigarray.Array1.unsafe_set r ((!pc * 17) land mask) !acc
    | _ -> acc := !acc * 3);
    pc := (!pc + 1 + (!acc land 1)) land (program_words - 1)
  done;
  sink := !acc;
  Span.now () -. t0

(* One collector per phase: the slices run while that phase was live,
   each with the time it ended. *)
type t = { mutable samples : (float * float) list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

let tick c =
  let d = slice () in
  let t = Span.now () in
  Span.sample "slice" t d;
  c.samples <- (t, d) :: c.samples;
  c.last <- t

(* At an idle point: a slice when [cadence_s] has passed since the
   previous one.  The collector is left to itself: the benchmark forces
   no collection, so the program's collection work stays inside the
   operations it times. *)
let maybe c = if Span.now () -. c.last >= cadence_s then tick c

(* Host slowness relative to the reference host over the whole phase:
   > 1 means slower.  Kept in the run record. *)
let factor c =
  if c.samples = [] then tick c;
  Stats.median (List.map snd c.samples) /. reference_s

(* The host factor of the stretch [t0, t1] of a phase: the median of its
   slices from [near_s] before it to [near_s] after it, or the phase's
   factor when there was none.  Contention changed within a phase (the
   factor moved 1.1-1.9 within one run) and samples followed the slices
   near them: a window's hit p50 correlated 0.77 with them.  Normalized
   metrics divide each sample by its own factor (rates multiply). *)
let near_s = 0.1

let factor_between c t0 t1 =
  match
    List.filter_map
      (fun (t, d) -> if t >= t0 -. near_s && t <= t1 +. near_s then Some d else None)
      c.samples
  with
  | [] -> factor c
  | ds -> Stats.median ds /. reference_s
