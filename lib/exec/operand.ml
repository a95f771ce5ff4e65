(* Operands as a tag byte, an int and a float per slot, and Opcode's
   value rules rewritten on them.  A float that crosses a call boundary
   is boxed, so every helper that returns one is [@inline] and the
   rules store their results straight into the register's arrays. *)

open Dfg

type t = { tag : Bytes.t; int : int array; real : Float.Array.t }

let tag_int = '\000'
let tag_real = '\001'
let tag_bool = '\002'

let create n =
  { tag = Bytes.make n tag_int; int = Array.make n 0;
    real = Float.Array.make n 0. }

(* the two booleans, shared so that boxing one allocates nothing *)
let true_ = Value.Bool true
let false_ = Value.Bool false

let get s i =
  let t = Bytes.get s.tag i in
  if t = tag_int then Value.Int s.int.(i)
  else if t = tag_real then Value.Real (Float.Array.get s.real i)
  else if s.int.(i) <> 0 then true_
  else false_

let set s i (v : Value.t) =
  match v with
  | Int x ->
    Bytes.set s.tag i tag_int;
    s.int.(i) <- x
  | Real x ->
    Bytes.set s.tag i tag_real;
    Float.Array.set s.real i x
  | Bool b ->
    Bytes.set s.tag i tag_bool;
    s.int.(i) <- (if b then 1 else 0)

let blit src i dst j len =
  Bytes.blit src.tag i dst.tag j len;
  Array.blit src.int i dst.int j len;
  Float.Array.blit src.real i dst.real j len

(* The rules index slots the engines name: arena ports and register
   slot 0.  Unchecked, like the engines' own indexing. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let[@inline] tag s i = Bytes.unsafe_get s.tag i

let[@inline] set_int r x =
  Bytes.unsafe_set r.tag 0 tag_int;
  r.int.!(0) <- x

let[@inline] set_real r x =
  Bytes.unsafe_set r.tag 0 tag_real;
  Float.Array.unsafe_set r.real 0 x

let[@inline] set_bool r b =
  Bytes.unsafe_set r.tag 0 tag_bool;
  r.int.!(0) <- (if b then 1 else 0)

let not_a_number () : unit = Value.clash "boolean packet used as a number"

(* [Value.to_real].  Its raising branch ends in a float too: a float
   let-bound from an expression with a branch of another kind is
   boxed. *)
let[@inline] real s i =
  let t = tag s i in
  if t = tag_real then Float.Array.unsafe_get s.real i
  else if t = tag_int then float_of_int s.int.!(i)
  else begin
    not_a_number ();
    0.
  end

(* [Float.min], [Float.max] and [Float.compare], which this build
   calls with boxed arguments *)
let[@inline] fmin (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* NaN equals NaN and is below every other float *)
let[@inline] fcompare (x : float) y =
  (if x > y then 1 else 0)
  - (if x < y then 1 else 0)
  + (if x = x then 1 else 0)
  - if y = y then 1 else 0

(* [Value.to_bool] *)
let bool s i =
  if tag s i = tag_bool then s.int.!(i) <> 0
  else Value.clash "numeric packet used as a boolean"

let arith (op : Opcode.arith) s a b r =
  if tag s a = tag_int && tag s b = tag_int then begin
    let x = s.int.!(a) and y = s.int.!(b) in
    match op with
    | Add -> set_int r (x + y)
    | Sub -> set_int r (x - y)
    | Mul -> set_int r (x * y)
    | Div ->
      if y = 0 then Value.clash "integer division by zero"
      else set_int r (x / y)
    | Mod ->
      if y = 0 then Value.clash "integer modulo by zero"
      else set_int r (((x mod y) + y) mod y)
    | Min -> set_int r (if x <= y then x else y)
    | Max -> set_int r (if x >= y then x else y)
  end
  else
    match op with
    | Mod -> Value.clash "MOD requires integer operands"
    | Add -> set_real r (real s a +. real s b)
    | Sub -> set_real r (real s a -. real s b)
    | Mul -> set_real r (real s a *. real s b)
    | Div -> set_real r (real s a /. real s b)
    | Min -> set_real r (fmin (real s a) (real s b))
    | Max -> set_real r (fmax (real s a) (real s b))

let compare (op : Opcode.cmp) s a b r =
  let ta = tag s a and tb = tag s b in
  let c =
    if ta = tb && ta <> tag_real then Int.compare s.int.!(a) s.int.!(b)
    else fcompare (real s a) (real s b)
  in
  set_bool r
    (match op with
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | Eq -> c = 0
    | Ne -> c <> 0)

let logic (op : Opcode.logic) s a b r =
  let x = bool s a and y = bool s b in
  set_bool r (match op with And -> x && y | Or -> x || y)

let math (m : Opcode.math) s a r =
  match m with
  | Abs when tag s a = tag_int -> set_int r (abs s.int.!(a))
  | Abs -> set_real r (Float.abs (real s a))
  | Sqrt -> set_real r (sqrt (real s a))
  | Exp -> set_real r (exp (real s a))
  | Ln -> set_real r (log (real s a))
  | Sin -> set_real r (sin (real s a))
  | Cos -> set_real r (cos (real s a))

let neg s a r =
  let t = tag s a in
  if t = tag_int then begin
    set_int r (- s.int.!(a));
    true
  end
  else if t = tag_real then begin
    set_real r (-.Float.Array.unsafe_get s.real a);
    true
  end
  else false

let not_ s a r = set_bool r (not (bool s a))
