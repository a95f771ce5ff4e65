(** Runtime values carried by result packets.

    The static dataflow machine of the paper carries scalar operands only;
    arrays exist as {e sequences} of these packets (Section 3: "we regard an
    array as simply a sequence of values passed in succession"). *)

type t = Int of int | Real of float | Bool of bool

exception Type_clash of string

let clash fmt = Printf.ksprintf (fun s -> raise (Type_clash s)) fmt

let to_real = function
  | Int i -> float_of_int i
  | Real f -> f
  | Bool _ -> clash "boolean packet used as a number"

let to_bool = function
  | Bool b -> b
  | Int _ | Real _ -> clash "numeric packet used as a boolean"

let pp ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Real f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.fprintf ppf "%b" b

(* [pp]'s bytes without Format: "%g" is C's "%.6g", which Printf and
   Format both end in *)
external format_float : string -> float -> string = "caml_format_float"

let to_string = function
  | Int i -> string_of_int i
  | Real f -> format_float "%.6g" f
  | Bool b -> string_of_bool b

let equal ?(eps = 0.) a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | (Int _ | Real _), (Int _ | Real _) ->
    Float.abs (to_real a -. to_real b) <= eps
  | _ -> false
