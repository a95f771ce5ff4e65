module Prng = Fault.Prng

(* Seeded disk-fault injection for the journal: the storage twin of
   Netfault.  Every decision is a pure function of (seed, append
   ordinal), so a soak replays the same disk betrayals whatever the
   interleaving — the discipline that makes faultcheck's service-soak
   transcripts byte-identical at any worker count. *)

type spec = {
  df_seed : int;
  torn_prob : float;  (** append writes a prefix, then the "crash" *)
  enospc_prob : float;  (** partial write, then ENOSPC *)
  rot_prob : float;  (** one bit of the frame flips at rest *)
  slow_prob : float;  (** the sync hangs *)
  slow_s : float;  (** for how long *)
}

let none =
  { df_seed = 0;
    torn_prob = 0.0;
    enospc_prob = 0.0;
    rot_prob = 0.0;
    slow_prob = 0.0;
    slow_s = 0.0 }

let hostile ~seed =
  { df_seed = seed;
    torn_prob = 0.03;
    enospc_prob = 0.03;
    rot_prob = 0.03;
    slow_prob = 0.05;
    slow_s = 0.002 }

let validate s =
  let check name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Diskfault: %s=%g outside [0,1]" name p)
  in
  check "torn" s.torn_prob;
  check "enospc" s.enospc_prob;
  check "rot" s.rot_prob;
  check "slow" s.slow_prob;
  if s.slow_s < 0.0 then invalid_arg "Diskfault: negative sync delay"

type action =
  | Pass
  | Torn of float
  | Enospc of float
  | Rot of int
  | Slow_sync of float

let action spec ~op =
  let h slot = Prng.mix spec.df_seed [ op; slot ] in
  let roll slot = Prng.float_of_hash (h slot) in
  if roll 0 < spec.torn_prob then
    Torn (0.1 +. (0.8 *. Prng.float_of_hash (h 1)))
  else if roll 2 < spec.enospc_prob then
    Enospc (0.1 +. (0.8 *. Prng.float_of_hash (h 3)))
  else if roll 4 < spec.rot_prob then Rot (Prng.int_of_hash (h 5) 1_000_000)
  else if roll 6 < spec.slow_prob then Slow_sync spec.slow_s
  else Pass

(* ---------------- the CLI face ---------------- *)

(* %h round-trips doubles exactly, the same convention Fault_plan and
   the wire protocol use for reals *)
let to_string s =
  String.concat " "
    (Printf.sprintf "seed=%d" s.df_seed
    :: List.filter_map
         (fun (k, v) ->
           if v = 0.0 then None else Some (Printf.sprintf "%s=%h" k v))
         [ ("torn", s.torn_prob); ("enospc", s.enospc_prob);
           ("rot", s.rot_prob); ("slow", s.slow_prob);
           ("slow_s", s.slow_s) ])

let of_string text =
  let fields =
    List.filter
      (fun s -> s <> "")
      (String.split_on_char ' '
         (String.map (function ',' -> ' ' | c -> c) text))
  in
  let rec go acc = function
    | [] -> Ok acc
    | field :: rest -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "%S: expected key=value" field)
      | Some i -> (
        let key = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        let float_field set =
          match float_of_string_opt v with
          | Some f -> go (set acc f) rest
          | None -> Error (Printf.sprintf "%s: %S is not a number" key v)
        in
        match key with
        | "seed" -> (
          match int_of_string_opt v with
          | Some n -> go { acc with df_seed = n } rest
          | None -> Error (Printf.sprintf "seed: %S is not an integer" v))
        | "torn" -> float_field (fun s f -> { s with torn_prob = f })
        | "enospc" -> float_field (fun s f -> { s with enospc_prob = f })
        | "rot" -> float_field (fun s f -> { s with rot_prob = f })
        | "slow" -> float_field (fun s f -> { s with slow_prob = f })
        | "slow_s" -> float_field (fun s f -> { s with slow_s = f })
        | k -> Error (Printf.sprintf "unknown diskfault key %S" k)))
  in
  match go none fields with
  | Error _ as e -> e
  | Ok s -> ( match validate s with () -> Ok s | exception Invalid_argument m -> Error m)
