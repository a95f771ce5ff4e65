open Dfg

type kernel = {
  name : string;
  description : string;
  blocks : int;
  source : int -> string;
  scalar_inputs : (string * Value.t) list;
  inputs : int -> Random.State.t -> (string * Value.t list) list;
  reference : int -> (string * Value.t list) list -> float list;
  output : string;
  predicted_interval : int -> float;
}

let seeded_inputs k size =
  k.inputs size (Random.State.make [| Hashtbl.hash k.name |])

let floats inputs name =
  List.map Value.to_real (List.assoc name inputs)

let wave st n = List.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let tame st n = List.init n (fun _ -> Random.State.float st 0.8)

let reals xs = List.map (fun f -> Value.Real f) xs

let ratio a b = 2.0 *. float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)

let hydro =
  {
    name = "hydro";
    description =
      "LFK1 hydrodynamics fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input q : real;
input r : real;
input t : real;
input Y : array[real] [0, n-1];
input Z : array[real] [0, n+10];
X : array[real] :=
  forall k in [0, n-1]
  construct
    q + Y[k] * (r * Z[k+10] + t * Z[k+11])
  endall;
|}
          n);
    scalar_inputs =
      [ ("q", Value.Real 0.5); ("r", Value.Real 0.3); ("t", Value.Real 0.1) ];
    inputs =
      (fun n st -> [ ("Y", reals (wave st n)); ("Z", reals (wave st (n + 11))) ]);
    reference =
      (fun n inputs ->
        let y = Array.of_list (floats inputs "Y") in
        let z = Array.of_list (floats inputs "Z") in
        List.init n (fun k ->
            0.5 +. (y.(k) *. ((0.3 *. z.(k + 10)) +. (0.1 *. z.(k + 11))))));
    output = "X";
    predicted_interval = (fun n -> ratio (n + 11) n);
  }

let first_difference =
  {
    name = "first_difference";
    description = "LFK12 first difference: d[i] = y[i+1] - y[i]";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input Y : array[real] [0, n];
D : array[real] :=
  forall i in [0, n-1]
  construct
    Y[i+1] - Y[i]
  endall;
|}
          n);
    scalar_inputs = [];
    inputs = (fun n st -> [ ("Y", reals (wave st (n + 1))) ]);
    reference =
      (fun n inputs ->
        let y = Array.of_list (floats inputs "Y") in
        List.init n (fun i -> y.(i + 1) -. y.(i)));
    output = "D";
    predicted_interval = (fun n -> ratio (n + 1) n);
  }

let state_eos =
  {
    name = "state_eos";
    description =
      "LFK7 equation-of-state fragment (forall with multi-offset windows)";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input r : real;
input t : real;
input U : array[real] [0, n+2];
input Y : array[real] [0, n-1];
input Z : array[real] [0, n-1];
X : array[real] :=
  forall k in [0, n-1]
  construct
    U[k] + r * (Z[k] + r * Y[k])
         + t * (U[k+3] + r * (U[k+2] + r * U[k+1]))
  endall;
|}
          n);
    scalar_inputs = [ ("r", Value.Real 0.25); ("t", Value.Real 0.4) ];
    inputs =
      (fun n st ->
        [ ("U", reals (wave st (n + 3))); ("Y", reals (wave st n));
          ("Z", reals (wave st n)) ]);
    reference =
      (fun n inputs ->
        let u = Array.of_list (floats inputs "U") in
        let y = Array.of_list (floats inputs "Y") in
        let z = Array.of_list (floats inputs "Z") in
        let r = 0.25 and t = 0.4 in
        List.init n (fun k ->
            u.(k)
            +. (r *. (z.(k) +. (r *. y.(k))))
            +. (t *. (u.(k + 3) +. (r *. (u.(k + 2) +. (r *. u.(k + 1))))))));
    output = "X";
    predicted_interval = (fun n -> ratio (n + 3) n);
  }

let tridiag =
  {
    name = "tridiag";
    description =
      "LFK5 tri-diagonal elimination: x[i] = z[i]*(y[i] - x[i-1]) — an \
       affine recurrence solved at the maximal rate by the companion scheme";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input Y : array[real] [0, n+1];
input Z : array[real] [0, n+1];
X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let e : real := Z[i] * (Y[i] - T[i-1])
    in
      if i < n+1 then iter T := T[i: e]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
          n);
    scalar_inputs = [];
    inputs =
      (fun n st ->
        [ ("Y", reals (wave st (n + 2))); ("Z", reals (tame st (n + 2))) ]);
    reference =
      (fun n inputs ->
        let y = Array.of_list (floats inputs "Y") in
        let z = Array.of_list (floats inputs "Z") in
        let x = Array.make (n + 1) 0. in
        for i = 1 to n do
          x.(i) <- z.(i) *. (y.(i) -. x.(i - 1))
        done;
        Array.to_list x);
    output = "X";
    predicted_interval = (fun n -> ratio (n + 2) (n + 1));
  }

let prefix_sum =
  {
    name = "prefix_sum";
    description = "LFK11 first sum: x[i] = x[i-1] + y[i]";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input Y : array[real] [1, n+1];
S : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0]
  do
    let s : real := T[i-1] + Y[i]
    in
      if i <= n then iter T := T[i: s]; i := i + 1 enditer else T endif
    endlet
  endfor;
|}
          n);
    scalar_inputs = [];
    inputs = (fun n st -> [ ("Y", reals (wave st (n + 1))) ]);
    reference =
      (fun n inputs ->
        let y = Array.of_list (floats inputs "Y") in
        let x = Array.make (n + 1) 0. in
        for i = 1 to n do
          x.(i) <- x.(i - 1) +. y.(i - 1)
        done;
        Array.to_list x);
    output = "S";
    predicted_interval = (fun n -> ratio (n + 1) (n + 1));
  }

let smooth_chain =
  {
    name = "smooth_chain";
    description =
      "three-block pipe: two cascaded smoothing passes and a pointwise \
       combine (Theorem 4 on a deeper flow dependency graph)";
    blocks = 3;
    source =
      (fun m ->
        Printf.sprintf
          {|
param m = %d;
input C : array[real] [0, m+1];

S1 : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endall;

S2 : array[real] :=
  forall i in [2, m-1]
  construct 0.25 * (S1[i-1] + 2.*S1[i] + S1[i+1]) endall;

W : array[real] :=
  forall i in [2, m-1]
  construct S2[i] - C[i] endall;
|}
          m);
    scalar_inputs = [];
    inputs = (fun m st -> [ ("C", reals (wave st (m + 2))) ]);
    reference =
      (fun m inputs ->
        let c = Array.of_list (floats inputs "C") in
        let smooth a lo hi =
          Array.init (hi - lo + 1) (fun k ->
              let i = lo + k in
              0.25 *. (a.(i - 1) +. (2. *. a.(i)) +. a.(i + 1)))
        in
        let s1full = Array.make (m + 2) 0. in
        Array.blit (smooth c 1 m) 0 s1full 1 (m);
        let s2 =
          Array.init (m - 2) (fun k ->
              let i = 2 + k in
              0.25
              *. (s1full.(i - 1) +. (2. *. s1full.(i)) +. s1full.(i + 1)))
        in
        List.init (m - 2) (fun k -> s2.(k) -. c.(2 + k)));
    output = "W";
    predicted_interval = (fun m -> ratio (m + 2) (m - 2));
  }

let planckian =
  {
    name = "planckian";
    description =
      "LFK22 Planckian distribution: w[k] = u[k] / (exp(v[k]) - 1), with \
       the argument clamped the way the original loop does";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input U : array[real] [0, n-1];
input V : array[real] [0, n-1];
W : array[real] :=
  forall k in [0, n-1]
    y : real := min(V[k], 20.);
  construct
    U[k] / (exp(y) - 1.)
  endall;
|}
          n);
    scalar_inputs = [];
    inputs =
      (fun n st ->
        [ ("U", reals (wave st n));
          ("V", reals (List.map (fun f -> 1.0 +. f) (tame st n))) ]);
    reference =
      (fun n inputs ->
        let u = Array.of_list (floats inputs "U") in
        let v = Array.of_list (floats inputs "V") in
        List.init n (fun k ->
            u.(k) /. (exp (Float.min v.(k) 20.) -. 1.)));
    output = "W";
    predicted_interval = (fun _ -> 2.0);
  }

let integrate_predictors =
  (* a 10-term weighted sum: a very wide, deep expression tree whose full
     pipelining rests entirely on the balancer *)
  {
    name = "integrate_predictors";
    description =
      "LFK9 integrate predictors: px[i] = sum of 10 weighted history terms";
    blocks = 1;
    source =
      (fun n ->
        Printf.sprintf
          {|
param n = %d;
input P0 : array[real] [0, n+9];
X : array[real] :=
  forall i in [0, n-1]
  construct
    1.90 * P0[i] + 0.50 * P0[i+1] + 0.25 * P0[i+2] + 0.125 * P0[i+3]
      + 0.0625 * P0[i+4] + 0.03125 * P0[i+5] + 0.015 * P0[i+6]
      + 0.007 * P0[i+7] + 0.003 * P0[i+8] + 0.001 * P0[i+9]
  endall;
|}
          n);
    scalar_inputs = [];
    inputs = (fun n st -> [ ("P0", reals (wave st (n + 10))) ]);
    reference =
      (fun n inputs ->
        let p = Array.of_list (floats inputs "P0") in
        let w =
          [| 1.90; 0.50; 0.25; 0.125; 0.0625; 0.03125; 0.015; 0.007; 0.003;
             0.001 |]
        in
        List.init n (fun i ->
            let acc = ref 0.0 in
            for k = 0 to 9 do
              acc := !acc +. (w.(k) *. p.(i + k))
            done;
            !acc));
    output = "X";
    predicted_interval = (fun n -> ratio (n + 10) n);
  }

let all =
  [
    hydro; first_difference; state_eos; tridiag; prefix_sum; smooth_chain;
    planckian; integrate_predictors;
  ]

let find name = List.find (fun k -> k.name = name) all
