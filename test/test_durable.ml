(* Durability suite — backs the [@torture-smoke] / [@torture-deep] aliases.

   Three layers: unit tests for [Util.Durable] framing/salvage/repair and
   the [Util.Fs_faults] injector; qcheck torture properties (a corrupted
   durable file always salvages to a bit-identical prefix, never raises,
   never replays a wrong value); and an end-to-end crash-torture harness
   that corrupts a real tune journal between kill and resume, asserting the
   resumed search still lands on the uninterrupted run's exact result.

   TORTURE_DEEP=1 raises the qcheck case counts and torture round counts
   (the @torture-deep alias); the smoke configuration stays under ten
   seconds. *)

let deep = Sys.getenv_opt "TORTURE_DEEP" <> None
let qcount n = if deep then n * 10 else n
let kind = "torture-test"

(* Salvage warnings from the thousands of deliberately corrupted files are
   expected noise here; the verbosity hook keeps the output readable. *)
let () = Util.Log.set_quiet true

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let with_temp f =
  let path = Filename.temp_file "durable" ".rec" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- Util.Durable units --- *)

let test_crc32_known_vector () =
  (* The standard CRC-32 check value (IEEE 802.3, reflected). *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Util.Durable.crc32 "123456789");
  Alcotest.(check int32) "crc32 empty" 0l (Util.Durable.crc32 "")

let test_frame_and_header_validation () =
  (try
     ignore (Util.Durable.frame "a\nb");
     Alcotest.fail "newline payload accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Util.Durable.header ~kind:"bad\tkind");
     Alcotest.fail "tab kind accepted"
   with Invalid_argument _ -> ());
  (* Tabs in payloads are legal: the checksum field sits at a fixed offset. *)
  let p = "a\tb\tc" in
  with_temp (fun path ->
      Util.Durable.append ~kind path p;
      match Util.Durable.read ~kind path with
      | Intact [ got ] -> Alcotest.(check string) "tabbed payload" p got
      | _ -> Alcotest.fail "tabbed payload did not round-trip")

let test_read_basic_outcomes () =
  with_temp (fun path ->
      Alcotest.(check bool) "missing" true (Util.Durable.read ~kind path = Missing);
      write_file path "";
      Alcotest.(check bool) "empty" true (Util.Durable.read ~kind path = Intact []);
      List.iter (Util.Durable.append ~kind path) [ "one"; "two"; "three" ];
      Alcotest.(check bool) "intact in order" true
        (Util.Durable.read ~kind path = Intact [ "one"; "two"; "three" ]))

let test_salvage_and_repair () =
  with_temp (fun path ->
      List.iter (Util.Durable.append ~kind path) [ "one"; "two"; "three" ];
      let content = read_file path in
      (* Flip one bit in the middle record: it and everything after drop. *)
      let lines = String.split_on_char '\n' content in
      let off = String.length (List.nth lines 0) + String.length (List.nth lines 1) + 4 in
      let b = Bytes.of_string content in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
      write_file path (Bytes.to_string b);
      (match Util.Durable.read ~kind path with
      | Salvaged { records; dropped; reason } ->
        Alcotest.(check (list string)) "prefix" [ "one" ] records;
        Alcotest.(check int) "dropped" 2 dropped;
        Alcotest.(check bool) "reason mentions checksum" true
          (String.length reason > 0)
      | _ -> Alcotest.fail "expected Salvaged");
      (* Repair rewrites to the clean prefix; appends then extend it. *)
      ignore (Util.Durable.repair ~kind path);
      Alcotest.(check bool) "repaired reads intact" true
        (Util.Durable.read ~kind path = Intact [ "one" ]);
      Util.Durable.append ~kind path "four";
      Alcotest.(check bool) "append after repair" true
        (Util.Durable.read ~kind path = Intact [ "one"; "four" ]))

let test_foreign_kind_is_protected () =
  with_temp (fun path ->
      Util.Durable.append ~kind:"other-kind" path "theirs";
      let before = read_file path in
      (match Util.Durable.read ~kind path with
      | Salvaged { records = []; dropped; _ } ->
        Alcotest.(check int) "all lines reported" 2 dropped
      | _ -> Alcotest.fail "expected Salvaged with no records");
      (* [repair] must never rewrite someone else's valid file. *)
      ignore (Util.Durable.repair ~kind path);
      Alcotest.(check string) "file untouched" before (read_file path))

let test_snapshot_is_atomic_and_clean () =
  with_temp (fun path ->
      Util.Durable.write_snapshot ~kind path [ "a"; "b" ];
      Alcotest.(check bool) "snapshot reads back" true
        (Util.Durable.read ~kind path = Intact [ "a"; "b" ]);
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".durable-tmp"));
      Util.Durable.write_atomic path "raw bytes";
      Alcotest.(check string) "raw atomic write" "raw bytes" (read_file path);
      Alcotest.(check bool) "no temp file left (raw)" false
        (Sys.file_exists (path ^ ".durable-tmp")))

let test_torn_final_record_salvages () =
  with_temp (fun path ->
      List.iter (Util.Durable.append ~kind path) [ "one"; "two" ];
      let content = read_file path in
      (* A torn final write: half the last record, no trailing newline. *)
      write_file path (String.sub content 0 (String.length content - 5));
      match Util.Durable.read ~kind path with
      | Salvaged { records; dropped = 1; _ } ->
        Alcotest.(check (list string)) "prefix survives" [ "one" ] records
      | _ -> Alcotest.fail "expected Salvaged with dropped = 1")

(* --- Util.Fs_faults units --- *)

let test_faults_deterministic () =
  let ops seed =
    let rng = Util.Rng.create seed in
    List.init 32 (fun _ -> Util.Fs_faults.draw rng ~size:1000)
  in
  Alcotest.(check bool) "same seed, same ops" true (ops 7 = ops 7);
  Alcotest.(check bool) "different seed differs" true (ops 7 <> ops 8)

let test_faults_apply_exact () =
  with_temp (fun path ->
      write_file path "abcdef";
      Util.Fs_faults.apply path (Truncate_to 3);
      Alcotest.(check string) "truncate" "abc" (read_file path);
      Util.Fs_faults.apply path (Bit_flip { offset = 1; bit = 0 });
      Alcotest.(check string) "bit flip" "acc" (read_file path);
      Util.Fs_faults.apply path (Garbage_append "XY");
      Alcotest.(check string) "garbage" "accXY" (read_file path);
      Alcotest.(check int) "file_size" 5 (Util.Fs_faults.file_size path))

let test_faults_empty_file_never_flips () =
  with_temp (fun path ->
      write_file path "";
      let rng = Util.Rng.create 3 in
      for _ = 1 to 64 do
        match Util.Fs_faults.draw rng ~size:0 with
        | Bit_flip _ -> Alcotest.fail "bit flip drawn for empty file"
        | Semantic_flip _ -> Alcotest.fail "draw never yields a semantic flip"
        | Truncate_to _ | Garbage_append _ -> ()
      done)

(* The lie framing cannot see: a semantic flip mutates a record's payload
   and re-frames it with a fresh, valid CRC.  [Util.Durable.read] must
   report the file [Intact] — same record count, every checksum good —
   while at least one payload changed.  Catching THAT is the auditor's job
   (test_service's semantic poison campaign), not this layer's. *)
let test_semantic_flip_reads_intact () =
  with_temp (fun path ->
      let originals = [ "alpha\tone"; "beta\ttwo"; "gamma\tthree" ] in
      List.iter (Util.Durable.append ~kind path) originals;
      let rng = Util.Rng.create 11 in
      for round = 1 to 32 do
        match Util.Fs_faults.inject_semantic rng path with
        | None -> Alcotest.fail "record file offered no semantic target"
        | Some op -> (
          match Util.Durable.read ~kind path with
          | Util.Durable.Intact payloads ->
            Alcotest.(check int)
              (Printf.sprintf "round %d: record count preserved" round)
              (List.length originals) (List.length payloads)
          | _ ->
            Alcotest.failf "round %d: %s tripped the CRC" round
              (Util.Fs_faults.describe op))
      done;
      (* 32 single-bit flips never cancel back to the original bytes all at
         once in every round; assert the final content truly changed. *)
      (match Util.Durable.read ~kind path with
      | Util.Durable.Intact payloads ->
        Alcotest.(check bool) "content was mutated" true (payloads <> originals)
      | _ -> Alcotest.fail "final read not Intact");
      (* A file with no record lines offers nothing to flip. *)
      write_file path "not a durable file\n";
      Alcotest.(check bool) "no record, no target" true
        (Util.Fs_faults.draw_semantic rng path = None))

(* --- qcheck torture properties --- *)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> String.equal x y && is_prefix xs ys

let payload_gen =
  (* Printable bytes plus the occasional tab; newlines are rejected by
     [frame] and never written. *)
  QCheck.Gen.(
    string_size ~gen:(frequency [ (9, map Char.chr (int_range 32 126)); (1, return '\t') ])
      (int_range 0 24))

let corrupt rng path =
  let n = 1 + Util.Rng.int rng 3 in
  for _ = 1 to n do
    ignore (Util.Fs_faults.inject rng path)
  done

let prop_salvage_is_clean_prefix =
  QCheck.Test.make ~count:(qcount 120)
    ~name:"corrupted file salvages to an exact prefix, then repairs clean"
    QCheck.(pair (list_of_size Gen.(int_range 0 20) (make payload_gen)) small_int)
    (fun (payloads, seed) ->
      with_temp (fun path ->
          List.iter (Util.Durable.append ~kind path) payloads;
          corrupt (Util.Rng.create seed) path;
          (* Salvage never raises and never invents or reorders records. *)
          let salvaged = Util.Durable.records (Util.Durable.read ~kind path) in
          let prefix_ok = is_prefix salvaged payloads in
          (* After repair, appends extend exactly the salvaged prefix. *)
          let base = Util.Durable.records (Util.Durable.repair ~kind path) in
          Util.Durable.append ~kind path "sentinel";
          let clean =
            match Util.Durable.read ~kind path with
            | Intact rs -> rs = base @ [ "sentinel" ]
            | _ -> false
          in
          prefix_ok && base = salvaged && clean))

let entry_eq (a : Core.Tune_journal.entry) (b : Core.Tune_journal.entry) =
  String.equal a.key b.key
  &&
  match (a.outcome, b.outcome) with
  | Measured x, Measured y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Failed r, Failed s -> String.equal r s
  | Measured _, Failed _ | Failed _, Measured _ -> false

let rec is_entry_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> entry_eq x y && is_entry_prefix xs ys

let entry_gen =
  QCheck.Gen.(
    let key = string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 10) in
    let runtime =
      (* Positive, finite, and deliberately awkward mantissas: bit-identity
         must hold for every representable value, not just round ones. *)
      map
        (fun f ->
          let f = Float.abs f in
          if Float.is_nan f || (not (Float.is_finite f)) || f = 0.0 then 1.5 else f)
        float
    in
    let outcome =
      frequency
        [
          (4, map (fun r -> Core.Tune_journal.Measured r) runtime);
          (1, map (fun r -> Core.Tune_journal.Failed r) (oneofl [ "timeout"; "nan"; "launch" ]));
        ]
    in
    map2 (fun key outcome -> { Core.Tune_journal.key; outcome }) key outcome)

let prop_journal_replay_bit_identical =
  QCheck.Test.make ~count:(qcount 80)
    ~name:"corrupted journal replays a bit-identical entry prefix"
    QCheck.(pair (list_of_size Gen.(int_range 0 16) (make entry_gen)) small_int)
    (fun (entries, seed) ->
      with_temp (fun path ->
          List.iter (Core.Tune_journal.append path) entries;
          corrupt (Util.Rng.create seed) path;
          (* Decode through the journal codec but read quietly: the warning
             path is exercised by the deterministic recover test below. *)
          let survived =
            Util.Durable.records (Util.Durable.read ~kind:Core.Tune_journal.kind path)
            |> List.filter_map Core.Tune_journal.of_line
          in
          is_entry_prefix survived entries))

let test_journal_recover_rewrites () =
  with_temp (fun path ->
      let entries =
        [
          { Core.Tune_journal.key = "a"; outcome = Measured 12.5 };
          { Core.Tune_journal.key = "b"; outcome = Failed "timeout" };
          { Core.Tune_journal.key = "c"; outcome = Measured 0x1.91eb851eb851fp6 };
        ]
      in
      List.iter (Core.Tune_journal.append path) entries;
      (* Corrupt the second record's checksum field. *)
      let content = read_file path in
      let lines = String.split_on_char '\n' content in
      let off = String.length (List.nth lines 0) + String.length (List.nth lines 1) + 5 in
      let b = Bytes.of_string content in
      Bytes.set b off (if Bytes.get b off = '0' then '1' else '0');
      write_file path (Bytes.to_string b);
      let r = Core.Tune_journal.recover path in
      Alcotest.(check int) "salvaged prefix" 1 (List.length r.entries);
      Alcotest.(check int) "dropped" 2 r.dropped;
      Alcotest.(check bool) "reason reported" true (r.reason <> None);
      (* recover rewrote the file: the journal is clean again. *)
      let r2 = Core.Tune_journal.load path in
      Alcotest.(check int) "clean after recover" 0 r2.dropped;
      Core.Tune_journal.append path { key = "d"; outcome = Measured 3.25 };
      let r3 = Core.Tune_journal.load path in
      Alcotest.(check int) "extends the repaired prefix" 2 (List.length r3.entries);
      Alcotest.(check int) "still clean" 0 r3.dropped)

(* --- end-to-end crash torture: kill + corrupt + resume --- *)

let arch = Gpu_sim.Arch.v100
let spec = Conv.Conv_spec.make ~c_in:16 ~h_in:14 ~w_in:14 ~c_out:16 ~k_h:3 ~k_w:3 ~pad:1 ()
let harsh = { Gpu_sim.Faults.default with launch_shmem_frac = 0.25 }

let tune ?journal ~domains () =
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  Core.Tuner.tune ~seed:11 ~max_measurements:60 ~domains ~faults:harsh ?journal ~space ()

let same_result name (a : Core.Tuner.result) (b : Core.Tuner.result) =
  Alcotest.(check bool) (name ^ ": best config") true (a.best_config = b.best_config);
  Alcotest.(check (float 0.0)) (name ^ ": best runtime") a.best_runtime_us b.best_runtime_us;
  Alcotest.(check int) (name ^ ": measurements") a.measurements b.measurements;
  Alcotest.(check bool) (name ^ ": history") true (a.history = b.history);
  Alcotest.(check int) (name ^ ": converged_at") a.converged_at b.converged_at

let torture ~domains ~rounds () =
  let uninterrupted = tune ~domains () in
  let journal = Filename.temp_file "torture" ".journal" in
  Sys.remove journal;
  let cleanup () = try Sys.remove journal with Sys_error _ -> () in
  Fun.protect ~finally:cleanup @@ fun () ->
  let journalled = tune ~journal ~domains () in
  same_result "journalled run" uninterrupted journalled;
  (* A pristine copy of the journal, restored before each round. *)
  let jbytes = read_file journal in
  let saw_drop = ref false in
  for round = 1 to rounds do
    write_file journal jbytes;
    let rng = Util.Rng.create ((1000 * domains) + round) in
    (* 1-2 faults per round: a crash can tear the journal more than once. *)
    for _ = 1 to 1 + Util.Rng.int rng 2 do
      ignore (Util.Fs_faults.inject rng journal)
    done;
    let resumed = tune ~journal ~domains () in
    same_result (Printf.sprintf "domains=%d round=%d" domains round) uninterrupted resumed;
    if resumed.faults.journal_dropped > 0 then saw_drop := true
  done;
  Alcotest.(check bool) "some round detected corruption" true !saw_drop

let test_torture_sequential () = torture ~domains:1 ~rounds:(if deep then 10 else 3) ()
let test_torture_parallel () = torture ~domains:4 ~rounds:(if deep then 6 else 2) ()

let () =
  Util.Pool.ensure_workers (Util.Pool.default ()) 3;
  Alcotest.run "durable"
    [
      ( "durable",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "frame/header validation" `Quick
            test_frame_and_header_validation;
          Alcotest.test_case "read outcomes" `Quick test_read_basic_outcomes;
          Alcotest.test_case "salvage and repair" `Quick test_salvage_and_repair;
          Alcotest.test_case "foreign kind protected" `Quick
            test_foreign_kind_is_protected;
          Alcotest.test_case "atomic snapshots" `Quick test_snapshot_is_atomic_and_clean;
          Alcotest.test_case "torn final record" `Quick test_torn_final_record_salvages;
        ] );
      ( "fs-faults",
        [
          Alcotest.test_case "deterministic draws" `Quick test_faults_deterministic;
          Alcotest.test_case "exact application" `Quick test_faults_apply_exact;
          Alcotest.test_case "semantic flip reads Intact" `Quick
            test_semantic_flip_reads_intact;
          Alcotest.test_case "empty file never flips" `Quick
            test_faults_empty_file_never_flips;
        ] );
      ( "torture-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_salvage_is_clean_prefix; prop_journal_replay_bit_identical ] );
      ( "torture-recover",
        [ Alcotest.test_case "recover rewrites the journal" `Quick
            test_journal_recover_rewrites ] );
      ( "crash-torture",
        [
          Alcotest.test_case "kill + corrupt + resume, sequential" `Quick
            test_torture_sequential;
          Alcotest.test_case "kill + corrupt + resume, parallel" `Quick
            test_torture_parallel;
        ] );
    ]
