(* lib/integrity + corruption-fault tests: checksum units, typed
   corruption decisions, the detect -> discard -> retransmit -> heal
   pipeline (the tentpole: a corrupted protected run must be
   bit-identical to the clean run), the unprotected-run diagnosis,
   checkpoint rot-detection, and the fault-plan shrinker. *)

open Dfg
module ME = Machine.Machine_engine
module FP = Fault.Fault_plan
module V = Fault.Violation
module FD = Fault_diff
module CP = Recover.Checkpoint
module Shrink = Fault.Shrink
module I = Integrity

let ints xs = List.map (fun i -> Value.Int i) xs

let figure2 () =
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let b = Graph.add g (Opcode.Input "b") [||] in
  let add =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:a ~dst:add ~port:0;
  Graph.connect g ~src:b ~dst:add ~port:1;
  let mul =
    Graph.add g (Opcode.Arith Opcode.Mul)
      [| Graph.In_arc; Graph.In_const (Value.Int 3) |]
  in
  Graph.connect g ~src:add ~dst:mul ~port:0;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:mul ~dst:out ~port:0;
  g

let fig2_inputs n =
  [ ("a", ints (List.init n Fun.id)); ("b", ints (List.init n (fun i -> 10 * i))) ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- checksums ---------------- *)

let test_checksum_values () =
  let vals =
    [ Value.Int 0; Value.Int 1; Value.Int (-1); Value.Bool true;
      Value.Bool false; Value.Real 0.0; Value.Real (-0.0); Value.Real 1.5;
      Value.Real nan ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "checksum is stable" true
        (I.checksum_value v = I.checksum_value v);
      Alcotest.(check bool) "checksum verifies its own value" true
        (I.verify_value v (I.checksum_value v));
      Alcotest.(check bool) "checksum is non-negative" true
        (I.checksum_value v >= 0))
    vals;
  (* type tagging: same bit pattern, different type, different sum *)
  Alcotest.(check bool) "Int 1 <> Bool true" true
    (I.checksum_value (Value.Int 1) <> I.checksum_value (Value.Bool true));
  Alcotest.(check bool) "Int 0 <> Real +0.0" true
    (I.checksum_value (Value.Int 0) <> I.checksum_value (Value.Real 0.0));
  (* -0.0 and +0.0 compare equal as values but are different bits: the
     checksum is over the wire representation, so they differ *)
  Alcotest.(check bool) "-0.0 <> +0.0 on the wire" true
    (I.checksum_value (Value.Real 0.0) <> I.checksum_value (Value.Real (-0.0)));
  Alcotest.(check bool) "a flipped bit is detected" false
    (I.verify_value (Value.Int 5) (I.checksum_value (Value.Int 4)))

(* Checksums are persisted (journal frames, checkpoint files and
   checkpointed packets), so their values are pinned, not just their
   properties.  The NaN is spelled by its bits: [Stdlib.nan]'s payload
   is not the same in every OCaml release. *)
let test_checksums_pinned () =
  let long = String.init 1000 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  List.iter
    (fun (name, s, want) ->
      Alcotest.(check int) ("checksum_string " ^ name) want
        (I.checksum_string s))
    [ ("empty", "", 3040490553260543601);
      ("short", "dataflow", 3527921357275268303);
      ("long", long, 1720799298069080783) ];
  List.iter
    (fun (name, v, want) ->
      Alcotest.(check int) ("checksum_value " ^ name) want (I.checksum_value v))
    [ ("Int 0", Value.Int 0, 1488029795835792619);
      ("Int -7", Value.Int (-7), 2915543751528514296);
      ("Int max_int", Value.Int max_int, 1880048398427678777);
      ("Real 0.0", Value.Real 0.0, 231455157621196153);
      ("Real -0.0", Value.Real (-0.0), 231490341993298905);
      ("Real nan", Value.Real (Int64.float_of_bits 0x7FF8_0000_0000_0001L),
       4329053509664797412);
      ("Real 1.5", Value.Real 1.5, 248673784593481416);
      ("Bool true", Value.Bool true, 147910435612103986);
      ("Bool false", Value.Bool false, 147910160734196933) ]

let test_digest_ignores_times () =
  let early = [ ("r", [ (1, Value.Int 7); (2, Value.Int 8) ]) ] in
  let late = [ ("r", [ (90, Value.Int 7); (940, Value.Int 8) ]) ] in
  Alcotest.(check int) "same values, different times: same digest"
    (I.digest_outputs early) (I.digest_outputs late);
  let other = [ ("r", [ (1, Value.Int 7); (2, Value.Int 9) ]) ] in
  Alcotest.(check bool) "different values: different digest" true
    (I.digest_outputs early <> I.digest_outputs other);
  let renamed = [ ("s", [ (1, Value.Int 7); (2, Value.Int 8) ]) ] in
  Alcotest.(check bool) "different stream name: different digest" true
    (I.digest_outputs early <> I.digest_outputs renamed)

(* ---------------- corruption decisions ---------------- *)

let test_corrupt_result_typed () =
  let always =
    FP.make { FP.none with FP.seed = 3; corrupt_prob = 1.0; corrupt_ctl_prob = 1.0 }
  in
  let never = FP.make { FP.none with FP.seed = 3 } in
  let data_only =
    FP.make { FP.none with FP.seed = 3; corrupt_prob = 1.0 }
  in
  let site = (fun p v -> FP.corrupt_result p ~time:10 ~src:1 ~dst:2 ~port:0 v) in
  List.iter
    (fun v ->
      (match site always v with
      | None -> Alcotest.failf "prob 1.0 must corrupt %s" (Value.to_string v)
      | Some v' ->
        Alcotest.(check bool) "corrupted value is value-visible" false
          (Value.equal v v'));
      Alcotest.(check bool) "prob 0 never corrupts" true (site never v = None))
    [ Value.Int 41; Value.Real 2.5; Value.Real (-0.0); Value.Bool true ];
  (* booleans ride the control probability, not the data one *)
  Alcotest.(check bool) "data-only plan leaves booleans alone" true
    (site data_only (Value.Bool false) = None);
  Alcotest.(check bool) "data-only plan corrupts ints" true
    (site data_only (Value.Int 7) <> None);
  (* decisions are pure functions of the site key *)
  Alcotest.(check bool) "same site, same corruption" true
    (site always (Value.Int 41) = site always (Value.Int 41));
  (* the real-valued flip spares the sign bit, so it can never hide in
     the -0.0 = +0.0 equivalence and never flips the sign *)
  List.iter
    (fun t ->
      match
        FP.corrupt_result always ~time:t ~src:1 ~dst:2 ~port:0 (Value.Real 3.5)
      with
      | Some (Value.Real r) ->
        Alcotest.(check bool) "sign preserved" true (r > 0.0 || Float.is_nan r)
      | _ -> Alcotest.fail "real corruption must yield a real")
    (List.init 50 Fun.id)

(* ---------------- detect -> heal on the machine ---------------- *)

let test_detect_and_heal_bit_identical () =
  (* acceptance demo: corruption + integrity + recovery ends with
     outputs bit-identical to the clean run, and the trace shows at
     least one injected/detected/healed triple *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let arch = Machine.Arch.default in
  let clean = ME.run_cfg ME.default_config ~arch g ~inputs in
  let plan =
    FP.make { FP.none with FP.seed = 11; corrupt_prob = 0.15 }
  in
  let tracer = Obs.Tracer.create () in
  let m =
    ME.create_cfg
      Run_config.(
        default |> with_max_time ME.default_max_time |> with_tracer tracer
        |> with_fault plan |> with_sanitize true
        |> with_recovery default_recovery |> with_integrity true)
      ~arch g ~inputs
  in
  ME.advance m ~until:max_int;
  let r = ME.result m in
  Alcotest.(check bool) "outputs bit-identical to clean" true
    (List.map (fun (n, vs) -> (n, List.map snd vs)) r.ME.outputs
    = List.map (fun (n, vs) -> (n, List.map snd vs)) clean.ME.outputs);
  Alcotest.(check (list string)) "sanitizer clean" []
    (List.map V.to_string r.ME.violations);
  let s = r.ME.stats in
  Alcotest.(check bool) "corruptions injected" true (s.ME.corruptions > 0);
  Alcotest.(check int) "every corruption detected" s.ME.corruptions
    s.ME.corrupt_detected;
  Alcotest.(check bool) "at least one heal" true (s.ME.corrupt_healed > 0);
  let count p = List.length (List.filter p (Obs.Tracer.events tracer)) in
  let injected =
    count (function Obs.Event.Corrupt_injected _ -> true | _ -> false)
  in
  let detected =
    count (function Obs.Event.Corrupt_detected _ -> true | _ -> false)
  in
  let healed =
    count (function Obs.Event.Corrupt_healed _ -> true | _ -> false)
  in
  Alcotest.(check int) "trace injected = stats" s.ME.corruptions injected;
  Alcotest.(check int) "trace detected = stats" s.ME.corrupt_detected detected;
  Alcotest.(check int) "trace healed = stats" s.ME.corrupt_healed healed;
  (* every heal names a channel some detection named first *)
  let detections =
    List.filter_map
      (function
        | Obs.Event.Corrupt_detected { dst; port; seq; _ } ->
          Some (dst, port, seq)
        | _ -> None)
      (Obs.Tracer.events tracer)
  in
  List.iter
    (function
      | Obs.Event.Corrupt_healed { dst; port; seq; _ } ->
        Alcotest.(check bool) "heal matches a detection" true
          (List.mem (dst, port, seq) detections)
      | _ -> ())
    (Obs.Tracer.events tracer)

let test_unprotected_corruption_diagnosed () =
  (* integrity off: the corrupted value flows to the output, the
     differential mismatches, and the outcome names corruption as the
     cause instead of presenting a bare diff *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let plan =
    FP.make { FP.none with FP.seed = 11; corrupt_prob = 0.15 }
  in
  let o = FD.machine ~watchdog:400 ~plan g ~inputs in
  Alcotest.(check bool) "outputs diverge" false o.FD.equal;
  Alcotest.(check bool) "digests diverge" true
    (o.FD.clean_digest <> o.FD.faulted_digest);
  Alcotest.(check (list string)) "no protocol violation to blame" []
    (List.map V.to_string o.FD.faulted_violations);
  match o.FD.diagnosis with
  | None -> Alcotest.fail "corruption mismatch must carry a diagnosis"
  | Some d ->
    Alcotest.(check bool) "names corruption" true (contains d "corruption");
    Alcotest.(check bool) "names the stream" true (contains d "r[");
    Alcotest.(check bool) "points at the fix" true (contains d "integrity")

let test_protected_has_no_diagnosis () =
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let plan =
    FP.make { FP.none with FP.seed = 11; corrupt_prob = 0.15 }
  in
  let o =
    FD.machine ~watchdog:1000 ~recovery:Run_config.default_recovery
      ~integrity:true ~plan g ~inputs
  in
  Alcotest.(check bool) "protected run equal" true o.FD.equal;
  Alcotest.(check int) "digests agree" o.FD.clean_digest o.FD.faulted_digest;
  Alcotest.(check bool) "no diagnosis on a healthy run" true
    (o.FD.diagnosis = None)

let test_kernels_corruption_differential () =
  (* every kernel, 10 seeded corruption+delay plans, fully protected:
     outputs must be bit-identical to clean with zero violations *)
  let module D = Compiler.Driver in
  let module PC = Compiler.Program_compile in
  let module K = Kernels in
  let n = 8 and waves = 2 in
  let recovery = Run_config.default_recovery in
  let watchdog =
    100
    + (4 * FP.none.FP.delay_max)
    + (17 * recovery.Run_config.retransmit_after)
  in
  let total_corruptions = ref 0 and total_healed = ref 0 in
  List.iter
    (fun (k : K.kernel) ->
      let st = Random.State.make [| Hashtbl.hash k.K.name |] in
      let _, compiled =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source n)
      in
      let kernel_inputs = k.K.inputs n st in
      let feeds =
        List.map
          (fun (name, _) ->
            ( name,
              List.concat
                (List.init waves (fun _ -> List.assoc name kernel_inputs)) ))
          compiled.PC.cp_inputs
      in
      List.iter
        (fun seed ->
          let plan =
            FP.make
              { FP.none with
                FP.seed;
                delay_prob = 0.1;
                corrupt_prob = 0.05;
                corrupt_ctl_prob = 0.05;
              }
          in
          let o =
            FD.machine ~watchdog ~recovery ~integrity:true ~plan
              compiled.PC.cp_graph ~inputs:feeds
          in
          if not o.FD.equal then
            Alcotest.failf "%s seed %d: %s" k.K.name seed
              (FD.mismatch_to_string (List.hd o.FD.mismatches));
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d digest" k.K.name seed)
            o.FD.clean_digest o.FD.faulted_digest;
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %d sanitizer clean" k.K.name seed)
            []
            (List.map V.to_string o.FD.faulted_violations);
          match o.FD.faulted_snapshot with
          | None -> Alcotest.fail "machine differential must expose stats"
          | Some sn ->
            total_corruptions :=
              !total_corruptions + sn.ME.sn_stats.ME.corruptions;
            total_healed := !total_healed + sn.ME.sn_stats.ME.corrupt_healed)
        (List.init 10 (fun i -> 900 + (77 * i))))
    K.all;
  (* not vacuous: the matrix must actually have injected and healed *)
  Alcotest.(check bool)
    (Printf.sprintf "corruptions injected across the matrix (%d)"
       !total_corruptions)
    true
    (!total_corruptions > 50);
  Alcotest.(check bool)
    (Printf.sprintf "corruptions healed across the matrix (%d)" !total_healed)
    true
    (!total_healed > 50)

(* ---------------- checkpoint rot-detection ---------------- *)

let snapshot_on_disk () =
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let m =
    ME.create_cfg
      Run_config.(
        default |> with_max_time ME.default_max_time
        |> with_recovery default_recovery)
      ~arch:Machine.Arch.default g ~inputs
  in
  ME.advance m ~until:40;
  let path = Filename.temp_file "dfsim-rot" ".json" in
  CP.save ~path ~graph:g (ME.snapshot m);
  (g, path)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let test_checkpoint_rejects_rot () =
  let g, path = snapshot_on_disk () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match CP.load ~path ~arena:(Arena.build g) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine file: %s" (CP.load_error_to_string e));
      let pristine = read_all path in
      (* truncation: drop the tail of the payload *)
      write_all path (String.sub pristine 0 (String.length pristine - 20));
      (match CP.load ~path ~arena:(Arena.build g) with
      | Error (CP.Truncated { expected; actual }) ->
        Alcotest.(check bool) "truncation sizes reported" true
          (actual < expected)
      | Error e ->
        Alcotest.failf "expected Truncated, got %s" (CP.load_error_to_string e)
      | Ok _ -> Alcotest.fail "truncated checkpoint must be rejected");
      (* bit rot: flip one payload byte, length unchanged *)
      let rotted = Bytes.of_string pristine in
      let mid = String.length pristine - 40 in
      Bytes.set rotted mid
        (Char.chr (Char.code (Bytes.get rotted mid) lxor 1));
      write_all path (Bytes.to_string rotted);
      (match CP.load ~path ~arena:(Arena.build g) with
      | Error (CP.Corrupted { expected_crc; actual_crc }) ->
        Alcotest.(check bool) "crc mismatch reported" true
          (expected_crc <> actual_crc)
      | Error e ->
        Alcotest.failf "expected Corrupted, got %s" (CP.load_error_to_string e)
      | Ok _ -> Alcotest.fail "bit-rotted checkpoint must be rejected");
      (* header lengths that cannot be the payload's: negative, not a
         number, past the end of the file *)
      let nl = String.index pristine '\n' + 1 in
      let payload = String.sub pristine nl (String.length pristine - nl) in
      let crc = I.checksum_string payload and len = String.length payload in
      List.iter
        (fun (label, len_s, ok) ->
          write_all path (Printf.sprintf "dfsnap2 %d %s\n%s" crc len_s payload);
          match CP.load ~path ~arena:(Arena.build g) with
          | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s header length: %s" label
                 (CP.load_error_to_string e))
              true (ok e)
          | Ok _ ->
            Alcotest.failf "a %s header length must be rejected" label)
        [ ("negative", "-1",
           function CP.Not_a_checkpoint _ -> true | _ -> false);
          ("non-numeric", "ten",
           function CP.Not_a_checkpoint _ -> true | _ -> false);
          ("past-the-file", string_of_int (len + 1),
           function
           | CP.Truncated { expected; actual } ->
             expected = len + 1 && actual = len
           | _ -> false) ];
      (* not a checkpoint at all *)
      write_all path "{\"just\": \"json\"}\n";
      (match CP.load ~path ~arena:(Arena.build g) with
      | Error (CP.Not_a_checkpoint _) -> ()
      | Error e ->
        Alcotest.failf "expected Not_a_checkpoint, got %s"
          (CP.load_error_to_string e)
      | Ok _ -> Alcotest.fail "foreign file must be rejected");
      (* valid header, valid checksum, garbage document *)
      let payload = "[1, 2, 3]\n" in
      write_all path
        (Printf.sprintf "dfsnap2 %d %d\n%s" (I.checksum_string payload)
           (String.length payload) payload);
      (match CP.load ~path ~arena:(Arena.build g) with
      | Error (CP.Malformed _) -> ()
      | Error e ->
        Alcotest.failf "expected Malformed, got %s" (CP.load_error_to_string e)
      | Ok _ -> Alcotest.fail "garbage document must be rejected");
      (* a document of the previous format, under the same header *)
      let old_payload =
        let nl = String.index pristine '\n' + 1 in
        match
          Obs.Json.of_string
            (String.sub pristine nl (String.length pristine - nl))
        with
        | Obs.Json.Obj fields ->
          Obs.Json.to_string
            (Obs.Json.Obj
               (List.map
                  (fun (k, v) ->
                    if k = "version" then (k, Obs.Json.Int 4) else (k, v))
                  fields))
          ^ "\n"
        | _ -> Alcotest.fail "checkpoint document is not an object"
      in
      write_all path
        (Printf.sprintf "dfsnap2 %d %d\n%s" (I.checksum_string old_payload)
           (String.length old_payload) old_payload);
      match CP.load ~path ~arena:(Arena.build g) with
      | Error (CP.Malformed e) ->
        Alcotest.(check bool)
          (Printf.sprintf "version-4 rejection names the version (%s)" e)
          true (contains e "version 4")
      | Error e ->
        Alcotest.failf "expected Malformed, got %s" (CP.load_error_to_string e)
      | Ok _ -> Alcotest.fail "a version-4 checkpoint must be rejected");
  match CP.load ~path:"/nonexistent/dfsim-rot.json" ~arena:(Arena.build g) with
  | Error (CP.Io _) -> ()
  | Error e -> Alcotest.failf "expected Io, got %s" (CP.load_error_to_string e)
  | Ok _ -> Alcotest.fail "missing file must be rejected"

(* ---------------- the shrinker ---------------- *)

let test_shrink_corruption_failure () =
  (* a corruption failure buried in noise: the shrinker must strip the
     noise, keep the corruption, and do so deterministically *)
  let g = figure2 () in
  let inputs = fig2_inputs 16 in
  let original =
    { FP.none with
      FP.seed = 11;
      delay_prob = 0.2;
      stall_prob = 0.1;
      fu_slow = 2;
      am_slow = 1;
      corrupt_prob = 0.25;
    }
  in
  let still_fails spec =
    let o = FD.machine ~watchdog:600 ~plan:(FP.make spec) g ~inputs in
    not o.FD.equal
  in
  Alcotest.(check bool) "original fails" true (still_fails original);
  let r1 = Shrink.minimize ~still_fails original in
  let r2 = Shrink.minimize ~still_fails original in
  Alcotest.(check bool) "deterministic: same minimal spec" true
    (r1.Shrink.minimal = r2.Shrink.minimal);
  Alcotest.(check int) "deterministic: same attempt count"
    r1.Shrink.attempts r2.Shrink.attempts;
  Alcotest.(check bool) "steps were taken" true (r1.Shrink.steps <> []);
  Alcotest.(check bool) "minimal no larger than original" true
    (Shrink.no_larger r1.Shrink.minimal original);
  Alcotest.(check bool) "minimal still fails (oracle preserved)" true
    (still_fails r1.Shrink.minimal);
  let m = r1.Shrink.minimal in
  Alcotest.(check bool) "corruption survives shrinking" true
    (m.FP.corrupt_prob > 0.0);
  Alcotest.(check (float 0.0)) "delay noise stripped" 0.0 m.FP.delay_prob;
  Alcotest.(check (float 0.0)) "stall noise stripped" 0.0 m.FP.stall_prob;
  Alcotest.(check int) "fu noise stripped" 0 m.FP.fu_slow;
  Alcotest.(check int) "am noise stripped" 0 m.FP.am_slow;
  (* the minimal spec round-trips through the CLI string form, so the
     printed repro is faithful *)
  Alcotest.(check bool) "minimal spec round-trips" true
    (FP.of_string (FP.to_string m) = Ok m)

let suite =
  [
    Alcotest.test_case "value checksums" `Quick test_checksum_values;
    Alcotest.test_case "checksums match recorded values" `Quick
      test_checksums_pinned;
    Alcotest.test_case "digest ignores arrival times" `Quick
      test_digest_ignores_times;
    Alcotest.test_case "corruption decisions are typed" `Quick
      test_corrupt_result_typed;
    Alcotest.test_case "detect and heal is bit-identical" `Quick
      test_detect_and_heal_bit_identical;
    Alcotest.test_case "unprotected corruption diagnosed" `Quick
      test_unprotected_corruption_diagnosed;
    Alcotest.test_case "protected run carries no diagnosis" `Quick
      test_protected_has_no_diagnosis;
    Alcotest.test_case "kernels corruption differential" `Quick
      test_kernels_corruption_differential;
    Alcotest.test_case "checkpoint rejects rot" `Quick
      test_checkpoint_rejects_rot;
    Alcotest.test_case "shrinker strips noise deterministically" `Quick
      test_shrink_corruption_failure;
  ]
