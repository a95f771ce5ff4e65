(** Instruction-cell operation codes of the simulated static dataflow
    machine (Dennis & Misunas architecture, as summarized in Section 2 of
    the paper).

    Port conventions:
    - gates ([Tgate]/[Fgate]) and [Switch]: port 0 = boolean control,
      port 1 = data;
    - [Merge]: port 0 = control M, port 1 = true input I1,
      port 2 = false input I2 (fires on M plus the selected input only,
      leaving the other operand untouched — Section 5);
    - [Switch] has two output slots: 0 = true destinations, 1 = false
      destinations (the paper's "destinations according to a tag");
    - everything else: data ports 0..arity-1, one output slot. *)

type arith = Add | Sub | Mul | Div | Min | Max | Mod

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type logic = And | Or

type math = Sqrt | Abs | Exp | Ln | Sin | Cos

type t =
  | Id                      (* identity: the paper's buffering/skew stage *)
  | Arith of arith
  | Compare of cmp
  | Logic of logic
  | Neg
  | Not
  | Math of math            (* elementary function (FU-provided) *)
  | Tgate                   (* forward data when control is true, else absorb *)
  | Fgate                   (* forward data when control is false, else absorb *)
  | Switch                  (* route data to the T or F destination set *)
  | Merge                   (* select one of two inputs under control *)
  | Merge_switch            (* merge whose result also goes to conditional
                               destinations: port 3 is a second control D;
                               slot 0 fires always, slot 1 only when D is
                               true (the paper's tagged destination fields,
                               Figure 7's output-plus-gated-feedback) *)
  | Fifo of int             (* elastic buffer of capacity k >= 1 *)
  | Bool_source of Ctlseq.t (* control-sequence generator (Todd) *)
  | Iota of { lo : int; hi : int; rep : int }
    (* index stream lo..hi cycling per wave; each value repeated [rep]
       times (rep = row width streams the outer index of a 2-D block) *)
  | Input of string         (* program input stream, fed by the simulator *)
  | Output of string        (* program output stream, collected *)
  | Sink                    (* consume and discard *)

let arity = function
  | Id | Neg | Not | Math _ | Fifo _ | Output _ | Sink -> 1
  | Arith _ | Compare _ | Logic _ | Tgate | Fgate | Switch -> 2
  | Merge -> 3
  | Merge_switch -> 4
  | Bool_source _ | Iota _ | Input _ -> 0

let out_slots = function
  | Switch | Merge_switch -> 2
  | Output _ | Sink -> 0
  | Id | Arith _ | Compare _ | Logic _ | Neg | Not | Math _ | Tgate | Fgate
  | Merge | Fifo _ | Bool_source _ | Iota _ | Input _ ->
    1

let arith_name = function
  | Add -> "ADD" | Sub -> "SUB" | Mul -> "MULT" | Div -> "DIV"
  | Min -> "MIN" | Max -> "MAX" | Mod -> "MOD"

let cmp_name = function
  | Lt -> "LT" | Le -> "LE" | Gt -> "GT" | Ge -> "GE" | Eq -> "EQ" | Ne -> "NE"

let logic_name = function And -> "AND" | Or -> "OR"

let math_name = function
  | Sqrt -> "SQRT" | Abs -> "ABS" | Exp -> "EXP"
  | Ln -> "LN" | Sin -> "SIN" | Cos -> "COS"

let name = function
  | Id -> "ID"
  | Arith a -> arith_name a
  | Compare c -> cmp_name c
  | Logic l -> logic_name l
  | Neg -> "NEG"
  | Not -> "NOT"
  | Math m -> math_name m
  | Tgate -> "TGATE"
  | Fgate -> "FGATE"
  | Switch -> "SWITCH"
  | Merge -> "MERG"
  | Merge_switch -> "MERGSW"
  | Fifo k -> "FIFO(" ^ string_of_int k ^ ")"
  | Bool_source s -> "CTL" ^ Ctlseq.describe s
  | Iota { lo; hi; rep } ->
    let range = "IOTA[" ^ string_of_int lo ^ "," ^ string_of_int hi ^ "]" in
    if rep = 1 then range else range ^ "x" ^ string_of_int rep
  | Input n -> "IN(" ^ n ^ ")"
  | Output n -> "OUT(" ^ n ^ ")"
  | Sink -> "SINK"

(** Apply a two-operand arithmetic operation with integer→real promotion
    (the machine's function units). *)
let apply_arith op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Div, Value.Int x, Value.Int y ->
    if y = 0 then Value.clash "integer division by zero"
    else Value.Int (x / y)
  | Mod, Value.Int x, Value.Int y ->
    if y = 0 then Value.clash "integer modulo by zero"
    else Value.Int (((x mod y) + y) mod y)
  | Min, Value.Int x, Value.Int y -> Value.Int (min x y)
  | Max, Value.Int x, Value.Int y -> Value.Int (max x y)
  | Mod, _, _ -> Value.clash "MOD requires integer operands"
  | _ ->
    let x = Value.to_real a and y = Value.to_real b in
    Value.Real
      (match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Min -> Float.min x y
      | Max -> Float.max x y
      | Mod -> assert false)

let apply_cmp op a b =
  let c =
    match (a, b) with
    | Value.Int x, Value.Int y -> compare x y
    | Value.Bool x, Value.Bool y -> compare x y
    | _ -> compare (Value.to_real a) (Value.to_real b)
  in
  Value.Bool
    (match op with
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | Eq -> c = 0
    | Ne -> c <> 0)

(** Apply an elementary function ([Abs] stays integral on integers). *)
let apply_math m v =
  match (m, v) with
  | Abs, Value.Int i -> Value.Int (abs i)
  | _ ->
    let x = Value.to_real v in
    Value.Real
      (match m with
      | Sqrt -> sqrt x
      | Abs -> Float.abs x
      | Exp -> exp x
      | Ln -> log x
      | Sin -> sin x
      | Cos -> cos x)

let apply_logic op a b =
  let x = Value.to_bool a and y = Value.to_bool b in
  Value.Bool (match op with And -> x && y | Or -> x || y)
