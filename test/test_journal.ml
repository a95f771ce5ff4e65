(* The write-ahead job journal: framing, torn-tail and bit-rot
   tolerance, replay folding, and the property the whole durability
   story rests on — a machine job resumed from any journaled
   checkpoint prefix finishes with the digest of the uninterrupted
   run. *)

module J = Obs.Json
module Journal = Serve.Journal
module ME = Machine.Machine_engine
module P = Serve.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* entries compare by their frame bytes: exact and total *)
let frames es = List.map Journal.frame es

let sample_entries =
  [ Journal.Admit
      { idem = "a"; request = J.Obj [ ("verb", J.String "simulate") ] };
    Journal.Progress
      { idem = "a"; checkpoint = J.Obj [ ("time", J.Int 500) ] };
    Journal.Done
      { idem = "a";
        response = J.Obj [ ("ok", J.Bool true) ];
        digest = Some 42 };
    Journal.Admit { idem = "b"; request = J.Obj [ ("waves", J.Int 2) ] };
    Journal.Done
      { idem = "b"; response = J.Obj [ ("ok", J.Bool false) ]; digest = None }
  ]

let test_frame_roundtrip () =
  let image = String.concat "" (frames sample_entries) in
  let back = Journal.entries_of_string image in
  Alcotest.(check (list string))
    "all records recovered from an intact image" (frames sample_entries)
    (frames back)

(* A header whose length is negative ends the replay like a torn frame:
   the records before it are kept, and nothing after it is trusted, not
   even an intact record. *)
let test_negative_length_frame () =
  let intact = String.concat "" (frames sample_entries) in
  let payload = "{}\n" in
  let bad =
    Printf.sprintf "dfjent %d -%d\n%s" (Integrity.checksum_string payload)
      (String.length payload) payload
  in
  let after = Journal.frame (List.hd sample_entries) in
  let path = Filename.temp_file "dfjournal-neg" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (intact ^ bad ^ after);
      close_out oc;
      let back, damage = Journal.replay_verified path in
      Alcotest.(check (list string))
        "the records before the negative length" (frames sample_entries)
        (frames back);
      check "the refused tail starts at the negative length" true
        (damage
        = Journal.Damaged
            { valid = String.length intact;
              size = String.length intact + String.length bad
                     + String.length after }))

(* --- random journals ------------------------------------------------- *)

let gen_entry =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "idem-%d") (int_range 0 9) in
  let doc =
    map2
      (fun n s -> J.Obj [ ("n", J.Int n); ("s", J.String s) ])
      (int_range 0 1000)
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))
  in
  frequency
    [ (2, map2 (fun idem request -> Journal.Admit { idem; request }) key doc);
      (1,
       map2
         (fun idem checkpoint -> Journal.Progress { idem; checkpoint })
         key doc);
      (1,
       map3
         (fun idem response digest -> Journal.Done { idem; response; digest })
         key doc
         (opt (int_range 0 1000))) ]

let gen_entries = QCheck.Gen.list_size (QCheck.Gen.int_range 1 12) gen_entry

(* a journal cut at any byte: exactly the records that fit whole *)
let torn_tail =
  QCheck.Test.make ~count:200 ~name:"replay of a torn tail = intact prefix"
    (QCheck.make
       QCheck.Gen.(pair gen_entries (float_range 0.0 1.0))
       ~print:(fun (es, f) ->
         Printf.sprintf "%d entries cut at %.3f" (List.length es) f))
    (fun (entries, frac) ->
      let image = String.concat "" (frames entries) in
      let cut = int_of_float (frac *. float_of_int (String.length image)) in
      let cut = min cut (String.length image) in
      let back = Journal.entries_of_string (String.sub image 0 cut) in
      (* expected: the longest run of whole frames within [cut] bytes *)
      let rec take acc used = function
        | e :: rest
          when used + String.length (Journal.frame e) <= cut ->
          take (e :: acc) (used + String.length (Journal.frame e)) rest
        | _ -> List.rev acc
      in
      frames back = frames (take [] 0 entries))

(* one flipped byte: every record before the damage survives, nothing
   after the damaged record is trusted *)
let bit_rot =
  QCheck.Test.make ~count:200 ~name:"replay stops at the first rotted frame"
    (QCheck.make
       QCheck.Gen.(pair gen_entries (float_range 0.0 1.0))
       ~print:(fun (es, f) ->
         Printf.sprintf "%d entries flip at %.3f" (List.length es) f))
    (fun (entries, frac) ->
      let image = String.concat "" (frames entries) in
      QCheck.assume (String.length image > 0);
      let pos =
        min
          (String.length image - 1)
          (int_of_float (frac *. float_of_int (String.length image)))
      in
      let rotted = Bytes.of_string image in
      Bytes.set rotted pos (Char.chr (Char.code (Bytes.get rotted pos) lxor 1));
      let back = Journal.entries_of_string (Bytes.to_string rotted) in
      (* which record owns the flipped byte? *)
      let rec intact acc used = function
        | e :: rest when used + String.length (Journal.frame e) <= pos ->
          intact (e :: acc) (used + String.length (Journal.frame e)) rest
        | _ -> List.rev acc
      in
      frames back = frames (intact [] 0 entries))

let test_fold () =
  let doc n = J.Obj [ ("n", J.Int n) ] in
  let r =
    Journal.fold
      [ Journal.Admit { idem = "a"; request = doc 1 };
        Journal.Admit { idem = "b"; request = doc 2 };
        (* a checkpoint replicated ahead of its admission is held for it *)
        Journal.Progress { idem = "d"; checkpoint = doc 30 };
        (* duplicate admission: first write wins *)
        Journal.Admit { idem = "a"; request = doc 99 };
        Journal.Progress { idem = "b"; checkpoint = doc 10 };
        Journal.Progress { idem = "b"; checkpoint = doc 20 };
        Journal.Done { idem = "a"; response = doc 3; digest = Some 7 };
        (* an orphan checkpoint is useless without its request; an
           orphan response is exactly what a compacted journal stores
           for completed work, so it must seed the cache *)
        Journal.Progress { idem = "ghost"; checkpoint = doc 0 };
        Journal.Done { idem = "phantom"; response = doc 0; digest = None };
        Journal.Admit { idem = "c"; request = doc 4 };
        Journal.Admit { idem = "d"; request = doc 5 } ]
  in
  (match r.Journal.completed with
  | [ ("a", ra); ("phantom", rp) ] ->
    check "a's response" true (ra = doc 3);
    check "phantom's orphan response kept" true (rp = doc 0)
  | cs ->
    Alcotest.failf "completed should hold [a; phantom], got %d entries"
      (List.length cs));
  (match r.Journal.pending with
  | [ b; c; d ] ->
    check "b pending first (admission order)" true (b.Journal.p_idem = "b");
    check "b resumes from its latest checkpoint" true
      (b.Journal.p_checkpoint = Some (doc 20));
    check "b's request is the first admission" true
      (b.Journal.p_request = doc 2);
    check "c pending without checkpoint" true
      (c.Journal.p_idem = "c" && c.Journal.p_checkpoint = None);
    check "d resumes from the checkpoint that preceded its admission" true
      (d.Journal.p_idem = "d" && d.Journal.p_checkpoint = Some (doc 30))
  | ps ->
    Alcotest.failf "expected pending [b; c; d], got %d entries"
      (List.length ps))

(* --- append/replay through a real file ------------------------------- *)

let test_append_replay_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "journal-test-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      check "missing file is an empty journal" true (Journal.replay path = []);
      let jr = Journal.open_append path in
      List.iter (Journal.append jr) sample_entries;
      check_int "appended counter" (List.length sample_entries)
        (Journal.appended jr);
      Journal.close jr;
      Alcotest.(check (list string))
        "file replays every record" (frames sample_entries)
        (frames (Journal.replay path));
      (* a second generation appends after the first *)
      let jr2 = Journal.open_append path in
      Journal.append jr2
        (Journal.Admit { idem = "late"; request = J.Obj [] });
      Journal.close jr2;
      check_int "history grows across generations"
        (List.length sample_entries + 1)
        (List.length (Journal.replay path));
      (* SIGKILL mid-append: tear the file at an arbitrary byte *)
      let image =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin path in
      output_string oc (String.sub image 0 (String.length image - 3));
      close_out oc;
      check_int "torn final record dropped, prefix intact"
        (List.length sample_entries)
        (List.length (Journal.replay path)))

(* --- compaction ------------------------------------------------------ *)

let fingerprint (r : Journal.recovered) =
  (r.Journal.completed,
   List.map
     (fun p -> (p.Journal.p_idem, p.Journal.p_request, p.Journal.p_checkpoint))
     r.Journal.pending)

let test_compact () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "journal-compact-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let doc n = J.Obj [ ("n", J.Int n) ] in
      let jr = Journal.open_append path in
      List.iter (Journal.append jr)
        [ Journal.Admit { idem = "a"; request = doc 1 };
          Journal.Done { idem = "a"; response = doc 11; digest = None };
          Journal.Admit { idem = "b"; request = doc 2 };
          Journal.Progress { idem = "b"; checkpoint = doc 20 };
          Journal.Done { idem = "b"; response = doc 12; digest = Some 5 };
          Journal.Admit { idem = "c"; request = doc 3 };
          Journal.Done { idem = "c"; response = doc 13; digest = None };
          Journal.Admit { idem = "d"; request = doc 4 };
          Journal.Progress { idem = "d"; checkpoint = doc 40 };
          Journal.Progress { idem = "d"; checkpoint = doc 41 } ];
      Journal.close jr;
      let before = (Unix.stat path).Unix.st_size in
      let r = Journal.compact ~path ~retain:2 in
      (* the oldest completed response (a) is dropped; b and c stay in
         admission order; the pending job keeps only its latest
         checkpoint *)
      (match r.Journal.completed with
      | [ ("b", rb); ("c", rc) ] ->
        check "b's response retained" true (rb = doc 12);
        check "c's response retained" true (rc = doc 13)
      | cs ->
        Alcotest.failf "retain 2 should keep [b; c], got %d" (List.length cs));
      (match r.Journal.pending with
      | [ d ] ->
        check "pending admission survives" true (d.Journal.p_idem = "d");
        check "latest checkpoint only" true
          (d.Journal.p_checkpoint = Some (doc 41))
      | ps -> Alcotest.failf "expected pending [d], got %d" (List.length ps));
      check "compaction shrank the file" true
        ((Unix.stat path).Unix.st_size < before);
      (* the invariant everything rests on: replaying the compacted
         file reproduces exactly the state compact returned, so the
         NEXT restart (with or without compaction) sees the same world *)
      check "fold (replay compacted) = retained state" true
        (fingerprint (Journal.fold (Journal.replay path)) = fingerprint r);
      (* retain 0: dedup history gone, pending admissions sacred *)
      let r0 = Journal.compact ~path ~retain:0 in
      check "retain 0 drops all completed" true (r0.Journal.completed = []);
      check "retain 0 keeps pending" true
        (List.map (fun p -> p.Journal.p_idem) r0.Journal.pending = [ "d" ]);
      (* a missing file compacts to an empty journal, no error *)
      Sys.remove path;
      let re = Journal.compact ~path ~retain:5 in
      check "missing file compacts empty" true
        (re.Journal.completed = [] && re.Journal.pending = []))

(* compaction must preserve the folded state for ANY journal, and the
   rewritten file must keep the torn-tail replay property *)
let compact_roundtrip =
  QCheck.Test.make ~count:150
    ~name:"compact: state preserved (newest-retain window), torn-tail kept"
    (QCheck.make
       QCheck.Gen.(triple gen_entries (int_range 0 4) (float_range 0.0 1.0))
       ~print:(fun (es, r, f) ->
         Printf.sprintf "%d entries retain %d cut %.3f" (List.length es) r f))
    (fun (entries, retain, frac) ->
      let path = Filename.temp_file "journal-qc-compact" ".wal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          output_string oc (String.concat "" (frames entries));
          close_out oc;
          let full = Journal.fold (Journal.replay path) in
          let r = Journal.compact ~path ~retain in
          let want_completed =
            let n = List.length full.Journal.completed in
            List.filteri (fun i _ -> i >= n - retain) full.Journal.completed
          in
          (* returned state: the newest [retain] completed + all pending *)
          fingerprint r
          = (want_completed,
             List.map
               (fun p ->
                 (p.Journal.p_idem, p.Journal.p_request, p.Journal.p_checkpoint))
               full.Journal.pending)
          (* the file round-trips to the same state *)
          && fingerprint (Journal.fold (Journal.replay path)) = fingerprint r
          (* and a SIGKILL tearing the compacted file at any byte still
             replays to a whole-record prefix *)
          && begin
               let image =
                 let ic = open_in_bin path in
                 Fun.protect
                   ~finally:(fun () -> close_in ic)
                   (fun () -> really_input_string ic (in_channel_length ic))
               in
               let cut =
                 min (String.length image)
                   (int_of_float (frac *. float_of_int (String.length image)))
               in
               let whole = Journal.entries_of_string image in
               let torn = Journal.entries_of_string (String.sub image 0 cut) in
               let rec prefix a b =
                 match (a, b) with
                 | [], _ -> true
                 | x :: xs, y :: ys -> x = y && prefix xs ys
                 | _ -> false
               in
               prefix (frames torn) (frames whole)
             end))

(* --- a lying disk ---------------------------------------------------- *)

module DF = Serve.Diskfault

(* The readable prefix under an armed writer, predicted purely from the
   spec: every append's fate is Diskfault.action (seed, ordinal), so
   the first rot / torn / ENOSPC decides where replay must stop. *)
let predict_readable spec entries =
  let rec go op acc = function
    | [] -> List.rev acc
    | e :: rest -> (
      match DF.action spec ~op with
      | DF.Pass | DF.Slow_sync _ -> go (op + 1) (e :: acc) rest
      | DF.Rot _ | DF.Torn _ | DF.Enospc _ -> List.rev acc)
  in
  go 0 [] entries

let write_faulted spec path entries =
  (try Sys.remove path with Sys_error _ -> ());
  let jr = Journal.open_append ~diskfault:spec path in
  (try List.iter (Journal.append jr) entries with
  | Journal.Disk_fault _ -> ()
  | Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Journal.close jr

(* torn writes, ENOSPC partial writes and bit rot on random journals:
   replay yields exactly the pre-fault prefix, and the damage verdict
   tells recovery it has something to heal — never a silent loss *)
let diskfault_replay =
  QCheck.Test.make ~count:150
    ~name:"diskfault: replay = fault-free prefix, damage never silent"
    (QCheck.make
       QCheck.Gen.(pair gen_entries (int_range 0 1_000_000))
       ~print:(fun (es, seed) ->
         Printf.sprintf "%d entries seed %d" (List.length es) seed))
    (fun (entries, seed) ->
      let spec =
        { DF.none with
          DF.df_seed = seed;
          torn_prob = 0.2;
          enospc_prob = 0.2;
          rot_prob = 0.2 }
      in
      let path = Filename.temp_file "journal-qc-df" ".wal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          write_faulted spec path entries;
          let want = predict_readable spec entries in
          (* a fault of any kind leaves betrayed bytes after the prefix
             (torn/ENOSPC write at least one byte, rot a whole frame) *)
          let faulted = List.length want < List.length entries in
          let got, damage = Journal.replay_verified path in
          frames got = frames want
          &&
          match damage with
          | Journal.Intact -> not faulted
          | Journal.Damaged { valid; size } ->
            faulted
            && valid = String.length (String.concat "" (frames want))
            && size > valid))

(* the replication contract: the peer stream saw every record the local
   disk betrayed, so folding (local survivors @ replica copies) must
   equal folding the clean history — recovery converges, bit for bit,
   and the rewritten journal is intact *)
let diskfault_recovery_merge =
  QCheck.Test.make ~count:150
    ~name:"diskfault + replica merge: recovered state = clean fold"
    (QCheck.make
       QCheck.Gen.(pair gen_entries (int_range 0 1_000_000))
       ~print:(fun (es, seed) ->
         Printf.sprintf "%d entries seed %d" (List.length es) seed))
    (fun (entries, seed) ->
      let spec =
        { DF.none with
          DF.df_seed = seed;
          torn_prob = 0.25;
          enospc_prob = 0.25;
          rot_prob = 0.25 }
      in
      let path = Filename.temp_file "journal-qc-dfr" ".wal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          write_faulted spec path entries;
          let local, _damage = Journal.replay_verified path in
          let merged = Journal.fold (local @ entries) in
          fingerprint merged = fingerprint (Journal.fold entries)
          && begin
               (* the disk-loss rewrite: minimal entries, atomic, intact *)
               Journal.write_atomic ~path
                 (Journal.entries_of_recovered merged);
               let back, damage = Journal.replay_verified path in
               damage = Journal.Intact
               && fingerprint (Journal.fold back) = fingerprint merged
             end))

(* fsync-armed appends go through the Unix.fsync path; behavior must be
   byte-identical to the unsynced writer *)
let test_fsync_append () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "journal-fsync-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let jr = Journal.open_append ~fsync:true path in
      List.iter (Journal.append jr) sample_entries;
      Journal.close jr;
      Alcotest.(check (list string))
        "synced file replays every record" (frames sample_entries)
        (frames (Journal.replay path));
      check "synced file is intact" true
        (snd (Journal.replay_verified path) = Journal.Intact))

(* --- the resume property -------------------------------------------- *)

(* What journal replay does with a Progress entry: restore the snapshot
   into a fresh machine and run to completion.  Every slice-boundary
   checkpoint of a run must finish with the uninterrupted run's digest
   and end time — otherwise a crash between two checkpoints could
   change a served answer. *)
let test_checkpoint_prefix_resume () =
  let run =
    { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
      P.waves = 3;
      engine = `Machine }
  in
  let cfg, arch, graph, inputs = Test_serve.machine_parts run in
  let oneshot = ME.run_cfg cfg ~arch graph ~inputs in
  let slice = 50 in
  let m = ME.create_cfg cfg ~arch graph ~inputs in
  let checkpoints = ref [] in
  let rec slices until =
    ME.advance m ~until;
    if not (ME.finished m) then begin
      checkpoints := ME.snapshot m :: !checkpoints;
      slices (until + slice)
    end
  in
  slices slice;
  let checkpoints = List.rev !checkpoints in
  check "run long enough to checkpoint" true (List.length checkpoints >= 3);
  List.iteri
    (fun i sn ->
      let m2 = ME.create_cfg cfg ~arch graph ~inputs in
      ME.restore m2 sn;
      ME.advance m2 ~until:max_int;
      let r = ME.result m2 in
      check_int
        (Printf.sprintf "checkpoint %d resumes to the one-shot end time" i)
        oneshot.ME.end_time r.ME.end_time;
      check_int
        (Printf.sprintf "checkpoint %d resumes to the one-shot digest" i)
        (Integrity.digest_outputs oneshot.ME.outputs)
        (Integrity.digest_outputs r.ME.outputs))
    checkpoints

let suite =
  [ Alcotest.test_case "frame: intact image round-trips" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame: replay stops at a negative length" `Quick
      test_negative_length_frame;
    QCheck_alcotest.to_alcotest torn_tail;
    QCheck_alcotest.to_alcotest bit_rot;
    Alcotest.test_case "fold: response cache + re-run worklist" `Quick
      test_fold;
    Alcotest.test_case "file: append, replay, generations, torn tail" `Quick
      test_append_replay_file;
    Alcotest.test_case "compact: retention window, pending kept, atomic"
      `Quick test_compact;
    QCheck_alcotest.to_alcotest compact_roundtrip;
    QCheck_alcotest.to_alcotest diskfault_replay;
    QCheck_alcotest.to_alcotest diskfault_recovery_merge;
    Alcotest.test_case "fsync: synced appends replay identically" `Quick
      test_fsync_append;
    Alcotest.test_case "resume: every checkpoint prefix reaches the one-shot \
                        digest" `Quick test_checkpoint_prefix_resume ]
