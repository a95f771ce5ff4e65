(* Order statistics over samples.  Percentiles are nearest-rank: the
   p-th percentile of n samples is the ceil(p n / 100)-th smallest, so
   p95 of 200 samples leaves exactly 10 samples beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile p xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* The percentile of each run of [window] consecutive samples (in the
   order taken; a short tail joins the last window), then the median of
   those: a burst of host noise moves one window, not the figure. *)
let windowed p ~window xs =
  let n = List.length xs in
  let k = max 1 (n / window) in
  let a = Array.of_list xs in
  median
    (List.init k (fun w ->
         let lo = w * n / k and hi = (w + 1) * n / k in
         percentile p (Array.to_list (Array.sub a lo (hi - lo)))))
