(* FNV-1a, 64-bit.  Dependency-free and deterministic across
   architectures; the multiply wraps mod 2^64 exactly as the reference
   algorithm specifies.  Checksums are exposed as non-negative OCaml
   ints (top bit shifted off, 62 significant bits) so they serialize
   through Obs.Json without boxing concerns. *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* The hash state lives in local [Int64.t ref]s that never escape, which
   ocamlopt keeps unboxed.  An [Int64.t] passed to or returned from a
   call is boxed, so the [@inline]s fold [checksum_value] into one such
   loop.  Neither checksum allocates. *)

let[@inline] byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let[@inline] int64_le h x =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let[@inline] finish h = Int64.to_int (Int64.shift_right_logical h 2)

(* Type tags keep [Int 1], [Real 1.0] and [Bool true] from colliding. *)
let[@inline] add_value h v =
  match (v : Dfg.Value.t) with
  | Int i -> int64_le (byte h 1) (Int64.of_int i)
  | Real r -> int64_le (byte h 2) (Int64.bits_of_float r)
  | Bool b -> byte (byte h 3) (if b then 1 else 0)

let add_string h s =
  let h = ref (int64_le h (Int64.of_int (String.length s))) in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let checksum_value v = finish (add_value fnv_offset v)
let verify_value v crc = checksum_value v = crc
let checksum_string s = finish (add_string fnv_offset s)

let digest_outputs outs =
  (* Arrival times are deliberately excluded: delay faults shift them,
     and the digest must certify *values*, the paper's
     latency-insensitivity invariant. *)
  let h =
    List.fold_left
      (fun h (name, packets) ->
        let h = add_string h name in
        List.fold_left (fun h (_time, v) -> add_value h v) h packets)
      fnv_offset outs
  in
  finish h
