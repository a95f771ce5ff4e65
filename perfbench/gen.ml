(* Seeded generator of pipe-structured Val programs shaped as DAGs.

   Every program reads three input arrays over [0, top] and defines
   [blocks] arrays B1..Bn.  A block reads its "primary" producer from the
   last three arrays defined (so chains get deep) and, often, one or two
   more producers from anywhere earlier (fan-in; reuse of old arrays is
   the fan-out).  Forall blocks select their producers through skewed
   windows A[i+k], k in -2..2, inside arithmetic, min/max, data-dependent
   [if] arms and definition parts.  For-iter blocks are first-order
   affine recurrences whose coefficient and shift are accumulator-free,
   so the compiler maps every one of them with the companion scheme.

   Index-conditional arms ([if i < c then X else Y] over producers of
   different depth) are left out: the compiler deadlocks on some of them
   (README.md, "Known defect"; [test_gen.ml] pins a reduced case).

   Each block's index range is the largest range on which every window
   stays inside its producer, so [Classify.classify_program] accepts
   every program; when a deep chain has narrowed the range below
   [min_width] the block restarts from the full-width inputs.  All
   templates are contractions (coefficients summing to at most one plus
   small constants), so values stay within a few units and the compiled
   graph can be compared with the interpreter at the default 1e-9
   tolerance.

   The PRNG is splitmix64 rather than [Random], so a seed names the same
   bytes on every OCaml release. *)

let top = 191
let inputs = [ "A0"; "A1"; "A2" ]
let min_width = 48

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let rng ~seed ~index =
  { s = Int64.(add (mul (of_int seed) golden) (of_int index)) }

let next r =
  r.s <- Int64.add r.s golden;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r bound = Int64.(to_int (unsigned_rem (next r) (of_int bound)))
let chance r percent = int r 100 < percent
let pick r xs = List.nth xs (int r (List.length xs))

(* A value in [-1, 1) on a 1/1024 grid: exactly representable. *)
let unit_float r = float_of_int (int r 2048 - 1024) /. 1024.

type arr = { name : string; lo : int; hi : int }
type sel = { arr : arr; off : int }

let sel_text s =
  if s.off = 0 then Printf.sprintf "%s[i]" s.arr.name
  else if s.off > 0 then Printf.sprintf "%s[i+%d]" s.arr.name s.off
  else Printf.sprintf "%s[i-%d]" s.arr.name (-s.off)

(* The index points [lo, hi] at which every selection is in range. *)
let window sels =
  List.fold_left
    (fun (lo, hi) s -> (max lo (s.arr.lo - s.off), min hi (s.arr.hi - s.off)))
    (1, max_int) sels

let choose_sels r ~recent ~avail ~count =
  let dir = if chance r 50 then 1 else -1 in
  let primary = { arr = pick r recent; off = dir * int r 3 } in
  let other () = { arr = pick r avail; off = int r 5 - 2 } in
  primary :: List.init (count - 1) (fun _ -> other ())

(* Retry from the inputs when the chosen producers leave too narrow a
   range; the inputs alone always leave at least top - 3 points. *)
let sels_with_width r ~recent ~avail ~input_arrs ~count =
  let sels = choose_sels r ~recent ~avail ~count in
  let lo, hi = window sels in
  if hi - lo + 1 >= min_width then sels
  else choose_sels r ~recent:input_arrs ~avail:input_arrs ~count

let forall_block r buf name sels =
  let lo, hi = window sels in
  let t = List.map sel_text sels in
  let defs, body =
    match t with
    | [ x; y ] -> (
      match int r 6 with
      | 0 -> ("", Printf.sprintf "0.5 * (%s + %s)" x y)
      | 1 -> ("", Printf.sprintf "0.75 * %s - 0.25 * %s" x y)
      | 2 -> ("", Printf.sprintf "min(%s, %s) + 0.125" x y)
      | 3 -> ("", Printf.sprintf "max(%s, 0.5 * %s) - 0.0625" x y)
      | 4 ->
        ( "",
          Printf.sprintf
            "if %s < %s then 0.75 * %s - 0.25 * %s else 0.5 * %s endif" x y
            x y y )
      | _ ->
        ( Printf.sprintf "    d : real := 0.5 * (%s - %s);\n" x y,
          Printf.sprintf
            "if d > 0. then 0.5 * d + 0.25 * %s else 0.25 * %s - 0.5 * d endif"
            x y ))
    | [ x; y; z ] -> (
      match int r 4 with
      | 0 -> ("", Printf.sprintf "0.25 * (%s + %s) + 0.5 * %s" x y z)
      | 1 -> ("", Printf.sprintf "min(%s, max(%s, %s))" x y z)
      | 2 ->
        ( "",
          Printf.sprintf
            "if %s < %s then 0.5 * (%s + %s) else 0.75 * %s - 0.125 endif" x
            z y z x )
      | _ ->
        ( Printf.sprintf "    d : real := 0.5 * (%s + %s);\n" x y,
          Printf.sprintf "max(d, %s) - 0.0625" z ))
    | _ -> invalid_arg "Gen.forall_block"
  in
  Printf.bprintf buf
    "%s : array[real] :=\n  forall i in [%d, %d]\n%s  construct\n    %s\n  endall;\n"
    name lo hi defs body;
  { name; lo; hi }

(* Appends T[i] for i = s .. e-1 and reads its producers at i = s .. e
   (the definition part runs once more on the terminating cycle), so the
   window is [s, e] and the constructed array is [s-1, e-1]. *)
let foriter_block r buf name sels =
  let s, e = window sels in
  let t = List.map sel_text sels in
  let coef, shift =
    match t with
    | [ y ] ->
      ( pick r [ "0.5"; "-0.5"; "0.25" ],
        pick r [ "0.5 * " ^ y; "0.5 * " ^ y ^ " - 0.125" ] )
    | [ y; z ] -> (
      match int r 3 with
      | 0 ->
        (pick r [ "0.5"; "-0.5"; "0.25" ], Printf.sprintf "0.25 * (%s + %s)" y z)
      | 1 ->
        (pick r [ "0.5"; "-0.5"; "0.25" ], Printf.sprintf "0.5 * max(%s, %s)" y z)
      | _ ->
        ( pick r
            [ Printf.sprintf "0.5 * min(max(%s, -0.9), 0.9)" z;
              Printf.sprintf "0.75 * max(min(%s, 0.5), -0.5)" z ],
          "0.5 * " ^ y ))
    | _ -> invalid_arg "Gen.foriter_block"
  in
  Printf.bprintf buf
    "%s : array[real] :=\n\
    \  for\n\
    \    i : integer := %d;\n\
    \    T : array[real] := [%d: 0]\n\
    \  do\n\
    \    let p : real := (%s) * T[i-1] + %s\n\
    \    in\n\
    \      if i < %d then iter T := T[i: p]; i := i + 1 enditer else T endif\n\
    \    endlet\n\
    \  endfor;\n"
    name s (s - 1) coef shift e;
  { name; lo = s - 1; hi = e - 1 }

let program ~seed ~index ~blocks =
  let r = rng ~seed ~index in
  let buf = Buffer.create (blocks * 200) in
  Printf.bprintf buf "%% perfbench generator: seed %d, program %d, %d blocks\n"
    seed index blocks;
  Printf.bprintf buf "param n = %d;\n" top;
  List.iter
    (fun a -> Printf.bprintf buf "input %s : array[real] [0, n];\n" a)
    inputs;
  let input_arrs = List.map (fun name -> { name; lo = 0; hi = top }) inputs in
  let rec go b defined =
    if b <= blocks then begin
      let name = Printf.sprintf "B%d" b in
      let recent = List.filteri (fun k _ -> k < 3) defined in
      let avail = defined in
      let arr =
        if chance r 15 then
          let count = 1 + int r 2 in
          foriter_block r buf name
            (sels_with_width r ~recent ~avail ~input_arrs ~count)
        else
          let count = if chance r 20 then 3 else 2 in
          forall_block r buf name
            (sels_with_width r ~recent ~avail ~input_arrs ~count)
      in
      go (b + 1) (arr :: defined)
    end
  in
  go 1 (List.rev input_arrs);
  Buffer.contents buf

(* Block counts are stratified, not drawn: program [index] of [count]
   has 4 + 44 * index / (count - 1) blocks, so every seed compiles the
   same size mix and only the shapes differ.  That keeps per-seed
   compile-latency percentiles comparable. *)
let blocks_for ~lo ~hi ~index ~count =
  if count <= 1 then lo else lo + ((hi - lo) * index / (count - 1))

let suite ?(lo = 4) ?(hi = 48) ~seed ~count () =
  Array.init count (fun index ->
      program ~seed ~index ~blocks:(blocks_for ~lo ~hi ~index ~count))

(* One wave for each input array, drawn from the program's seed. *)
let input_waves ~seed ~index =
  let r = rng ~seed:(seed lxor 0x5bd1e995) ~index in
  List.map (fun a -> (a, List.init (top + 1) (fun _ -> unit_float r))) inputs
