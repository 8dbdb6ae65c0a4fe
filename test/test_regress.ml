(* Tests for the gold-file regression harness: record round-trips, the typed
   mismatch diff, and the end-to-end self-test the ISSUE demands — perturb
   one golden record and prove `regress` reports exactly that typed mismatch
   and withholds the .pass marker. *)

module Gold = Regress.Gold
module Sweep = Regress.Sweep
module Harness = Regress.Harness

let () = Util.Log.set_quiet true

let arch = Gpu_sim.Arch.v100

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let sample_record =
  {
    Gold.layer = "conv1";
    spec = "batch=1,cin=3,hin=8,win=8,cout=4,kh=3,kw=3,stride=1,padh=0,padw=0,groups=1";
    algorithm = "direct-dataflow";
    config = "d|CHW|16,8,16|16,4,4|4|2|1";
    ours_us = 12.5;
    predicted_us = 11.25;
    library_us = 20.0;
    library_algorithm = "direct-specialised";
    q_ratio = 1.5;
    stop = "converged";
    trials = 42;
  }

let sample_meta =
  { Gold.model = "Mini-Net"; arch = "v100"; seed = 0; budget = 40; backend = "cudnn" }

(* Bit-level float equality, except that any NaN equals any NaN: "%h" prints
   every NaN as "nan", so the payload (sign/quiet bits) is not preserved —
   and the diff deliberately treats all NaNs alike. *)
let float_eq a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let record_eq (a : Gold.layer_record) (b : Gold.layer_record) =
  a.layer = b.layer && a.spec = b.spec && a.algorithm = b.algorithm
  && a.config = b.config && a.library_algorithm = b.library_algorithm
  && a.stop = b.stop && a.trials = b.trials
  && float_eq a.ours_us b.ours_us
  && float_eq a.predicted_us b.predicted_us
  && float_eq a.library_us b.library_us
  && float_eq a.q_ratio b.q_ratio

(* --- encoding --- *)

let test_layer_roundtrip () =
  List.iter
    (fun r ->
      match Gold.decode_layer (Gold.encode_layer r) with
      | Some r' -> Alcotest.(check bool) ("roundtrip " ^ r.Gold.layer) true (record_eq r r')
      | None -> Alcotest.failf "record %s did not decode" r.Gold.layer)
    [
      sample_record;
      { sample_record with layer = "fire2/squeeze1x1"; stop = "breaker:5"; trials = 0 };
      { sample_record with ours_us = Float.nan; predicted_us = Float.infinity };
      { sample_record with q_ratio = -0.0; ours_us = 1e-300; library_us = 1e300 };
    ]

let test_layer_rejects_malformed () =
  List.iter
    (fun payload ->
      Alcotest.(check bool) ("rejected: " ^ payload) true
        (Gold.decode_layer payload = None))
    [
      ""; "layer"; "not-a-layer\ta\tb";
      (* wrong arity *)
      "layer\tc1\tspec\talgo\tcfg\t1.0\t2.0";
      (* unparsable float *)
      "layer\tc1\tspec\talgo\tcfg\tXX\t0x1p0\t0x1p0\tlib\t0x1p0\tconverged\t3";
      (* unparsable trial count *)
      "layer\tc1\tspec\talgo\tcfg\t0x1p0\t0x1p0\t0x1p0\tlib\t0x1p0\tconverged\tmany";
    ]

let qcheck_float_roundtrip =
  QCheck.Test.make ~name:"hex floats round-trip bit-exactly" ~count:500
    QCheck.(triple float float float)
    (fun (a, b, c) ->
      let r = { sample_record with Gold.ours_us = a; predicted_us = b; q_ratio = c } in
      match Gold.decode_layer (Gold.encode_layer r) with
      | Some r' -> record_eq r r'
      | None -> false)

let test_file_roundtrip () =
  let dir = temp_dir "gold" in
  let path = Gold.path ~dir ~model:sample_meta.Gold.model ~arch:sample_meta.Gold.arch in
  Alcotest.(check string) "mapgraph naming" (Filename.concat dir "mini-net.v100.gold")
    path;
  let file =
    { Gold.meta = sample_meta; layers = [ sample_record; { sample_record with layer = "conv2" } ] }
  in
  Gold.write path file;
  (* [audit:false]: the sample record's costs are fabricated for the format
     tests, not derived from the cost model — the auditor would (rightly)
     reject them, and format round-tripping is a separate concern. *)
  (match Gold.read ~audit:false path with
  | Ok f ->
    Alcotest.(check bool) "meta" true (f.meta = sample_meta);
    Alcotest.(check int) "layers" 2 (List.length f.layers);
    Alcotest.(check bool) "records" true (List.for_all2 record_eq file.layers f.layers)
  | Error e -> Alcotest.fail e);
  (* The default audited read rejects the fabricated costs — a gold file
     whose claims do not re-derive is corruption, not a baseline. *)
  (match Gold.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "audited read accepted fabricated costs");
  (match Gold.read (Filename.concat dir "absent.v100.gold") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of a missing file succeeded")

(* --- typed diff --- *)

let gold_file =
  {
    Gold.meta = sample_meta;
    layers = [ sample_record; { sample_record with layer = "conv2"; ours_us = 30.0 } ];
  }

let diff got = Gold.compare_files ~tolerance:1e-6 ~gold:gold_file ~got

let test_diff_clean () =
  Alcotest.(check int) "identical files" 0 (List.length (diff gold_file))

let test_diff_meta () =
  match diff { gold_file with meta = { sample_meta with budget = 80 } } with
  | [ Gold.Meta_drift { field = "budget"; gold = "40"; got = "80" } ] -> ()
  | ms -> Alcotest.failf "expected one budget Meta_drift, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms))

let replace_layer name f (file : Gold.file) =
  {
    file with
    layers =
      List.map
        (fun (r : Gold.layer_record) -> if r.layer = name then f r else r)
        file.layers;
  }

let test_diff_config_drift () =
  let got = replace_layer "conv2" (fun r -> { r with config = "d|HWC|8,8,16|8,4,4|4|2|1" }) gold_file in
  match diff got with
  | [ Gold.Config_drift { layer = "conv2"; field = "config"; _ } ] -> ()
  | ms -> Alcotest.failf "expected one Config_drift, got %d: [%s]" (List.length ms)
            (String.concat "; " (List.map Gold.mismatch_to_string ms))

let test_diff_cost_drift () =
  let got = replace_layer "conv1" (fun r -> { r with ours_us = r.ours_us *. 1.01 }) gold_file in
  (match diff got with
  | [ Gold.Cost_drift { layer = "conv1"; field = "ours_us"; rel; _ } ] ->
    Alcotest.(check bool) "rel is about 1%" true (rel > 0.009 && rel < 0.011)
  | ms -> Alcotest.failf "expected one Cost_drift, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms)));
  (* Drift inside tolerance passes. *)
  let close = replace_layer "conv1" (fun r -> { r with ours_us = r.ours_us *. (1. +. 1e-9) }) gold_file in
  Alcotest.(check int) "sub-tolerance drift ignored" 0 (List.length (diff close));
  (* NaN never passes silently. *)
  let poisoned = replace_layer "conv1" (fun r -> { r with predicted_us = Float.nan }) gold_file in
  match diff poisoned with
  | [ Gold.Cost_drift { field = "predicted_us"; _ } ] -> ()
  | ms -> Alcotest.failf "NaN must be drift, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms))

let test_diff_stop_and_replay () =
  let got = replace_layer "conv1" (fun r -> { r with stop = "trial-budget"; trials = 40 }) gold_file in
  (match diff got with
  | [ Gold.Stop_drift { layer = "conv1"; gold = "converged"; got = "trial-budget" };
      Gold.Stop_drift { layer = "conv1"; _ } ] -> ()
  | ms -> Alcotest.failf "expected stop+trials Stop_drift, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms)));
  (* A warm replay skips stop/trials comparison entirely. *)
  let warm = replace_layer "conv1" (fun r -> { r with stop = "replayed"; trials = 0 }) gold_file in
  Alcotest.(check int) "replayed skips stop/trials" 0 (List.length (diff warm))

let test_diff_layer_sets () =
  let missing = { gold_file with layers = [ sample_record ] } in
  (match diff missing with
  | [ Gold.Missing_layer { layer = "conv2" } ] -> ()
  | ms -> Alcotest.failf "expected Missing_layer, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms)));
  let extra =
    { gold_file with layers = gold_file.layers @ [ { sample_record with layer = "conv9" } ] }
  in
  match diff extra with
  | [ Gold.Extra_layer { layer = "conv9" } ] -> ()
  | ms -> Alcotest.failf "expected Extra_layer, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms))

(* --- end-to-end perturbation self-test --- *)

let mini_model =
  {
    Cnn.Models.name = "Mini-Net";
    layers = [ Cnn.Layer.make "c1" (Conv.Conv_spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:3 ()) ];
  }

let settings = { Sweep.default_settings with budget = 40 }

let run_harness ~gold_dir ~out_dir ~cache_path mode =
  Harness.run ~models:[ mini_model ] ~arches:[ arch ] ~settings ~cache_path ~gold_dir
    ~out_dir mode

let marker dir ext = Filename.concat dir (Printf.sprintf "mini-net.v100.%s" ext)

let test_harness_self_test () =
  let gold_dir = temp_dir "gold" and out_dir = temp_dir "out" and cache_dir = temp_dir "cache" in
  let cache_path = Filename.concat cache_dir "fleet.cache" in
  let gold_path = marker gold_dir "gold" in

  (* Record. *)
  let g = run_harness ~gold_dir ~out_dir ~cache_path Harness.Gold in
  Alcotest.(check bool) "gold mode reports no failure" false (Harness.failed g);
  Alcotest.(check bool) "golden file written" true (Sys.file_exists gold_path);
  Alcotest.(check bool) "timing marker written" true
    (Sys.file_exists (marker out_dir "timing"));

  (* Determinism: re-recording produces byte-identical gold. *)
  let bytes_of path = In_channel.with_open_bin path In_channel.input_all in
  let first = bytes_of gold_path in
  let _ = run_harness ~gold_dir ~out_dir ~cache_path Harness.Gold in
  Alcotest.(check bool) "gold byte-deterministic" true (first = bytes_of gold_path);

  (* Enforce: warm regress passes and leaves a .pass marker. *)
  let r = run_harness ~gold_dir ~out_dir ~cache_path Harness.Regress in
  Alcotest.(check bool) "clean regress passes" false (Harness.failed r);
  Alcotest.(check bool) ".pass written" true (Sys.file_exists (marker out_dir "pass"));
  (match r.reports with
  | [ { pair; _ } ] ->
    Alcotest.(check int) "warm regress tunes nothing live" 0 pair.Sweep.live;
    List.iter
      (fun (rec_ : Gold.layer_record) ->
        Alcotest.(check string) ("served from cache: " ^ rec_.layer) "replayed" rec_.stop)
      pair.Sweep.gold.layers
  | _ -> Alcotest.fail "expected one pair report");

  (* Perturb the config (byte flip in the compact encoding): the tampered
     record re-frames with a valid CRC, but its claims no longer re-derive —
     the audit-on-read rejects the whole file as Gold_rejected (a trust
     failure, stronger than a field-level diff) and the marker is withheld. *)
  let gold = match Gold.read gold_path with Ok f -> f | Error e -> Alcotest.fail e in
  let perturb f = Gold.write gold_path (replace_layer "c1" f gold) in
  perturb (fun rec_ ->
      let b = Bytes.of_string rec_.config in
      Bytes.set b 0 (if Bytes.get b 0 = 'd' then 'w' else 'd');
      { rec_ with config = Bytes.to_string b });
  let r = run_harness ~gold_dir ~out_dir ~cache_path Harness.Regress in
  Alcotest.(check bool) "config flip fails regress" true (Harness.failed r);
  Alcotest.(check bool) ".pass withheld" false (Sys.file_exists (marker out_dir "pass"));
  (match (List.hd r.reports).mismatches with
  | [ Gold.Gold_rejected { path = p; _ } ] ->
    Alcotest.(check string) "rejected file named" gold_path p;
    (* The un-audited read still decodes it: the rejection is semantic. *)
    (match Gold.read ~audit:false gold_path with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "tampered gold should still decode: %s" e)
  | ms -> Alcotest.failf "expected Gold_rejected, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms)));

  (* Perturb a cost past tolerance: exactly one Cost_drift. *)
  perturb (fun rec_ -> { rec_ with ours_us = rec_.ours_us *. 1.001 });
  let r = run_harness ~gold_dir ~out_dir ~cache_path Harness.Regress in
  Alcotest.(check bool) "cost drift fails regress" true (Harness.failed r);
  (match (List.hd r.reports).mismatches with
  | [ Gold.Cost_drift { layer = "c1"; field = "ours_us"; _ } ] -> ()
  | ms -> Alcotest.failf "expected exactly one cost drift, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms)));

  (* Restore the truth: regress passes again and re-mints the marker. *)
  Gold.write gold_path gold;
  let r = run_harness ~gold_dir ~out_dir ~cache_path Harness.Regress in
  Alcotest.(check bool) "restored gold passes" false (Harness.failed r);
  Alcotest.(check bool) ".pass restored" true (Sys.file_exists (marker out_dir "pass"));

  (* Missing gold: typed Missing_pair. *)
  Sys.remove gold_path;
  let r = run_harness ~gold_dir ~out_dir ~cache_path Harness.Regress in
  match (List.hd r.reports).mismatches with
  | [ Gold.Missing_pair _ ] -> ()
  | ms -> Alcotest.failf "expected Missing_pair, got [%s]"
            (String.concat "; " (List.map Gold.mismatch_to_string ms))

(* Two models sharing one layer shape, the case a process-wide memo must get
   right.  In gold mode the second model's shared layer is a memo hit on the
   first model's live tune, so it keeps the live stop token and both files
   are byte-identical to a sweep without a cache.  A warm regress then
   serves every candidate from the cache: nothing live, every record
   "replayed". *)
let shared_spec = Conv.Conv_spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:3 ()

let twin_a = { Cnn.Models.name = "Twin-A"; layers = [ Cnn.Layer.make "c1" shared_spec ] }

let twin_b =
  {
    Cnn.Models.name = "Twin-B";
    layers =
      [
        Cnn.Layer.make "c1" shared_spec;
        Cnn.Layer.make "c2" (Conv.Conv_spec.square ~c_in:8 ~size:12 ~c_out:16 ~k:1 ());
      ];
  }

let test_harness_shared_shape () =
  let out_dir = temp_dir "out" and cache_dir = temp_dir "cache" in
  let cache_path = Filename.concat cache_dir "fleet.cache" in
  let run ?cache_path ~gold_dir mode =
    Harness.run ~models:[ twin_a; twin_b ] ~arches:[ arch ] ~settings ?cache_path
      ~gold_dir ~out_dir mode
  in
  let cached_dir = temp_dir "gold" and plain_dir = temp_dir "gold" in
  let g = run ~cache_path ~gold_dir:cached_dir Harness.Gold in
  ignore (run ~gold_dir:plain_dir Harness.Gold);
  let bytes_of dir name =
    In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " byte-identical to a sweep without a cache")
        (bytes_of plain_dir name) (bytes_of cached_dir name))
    [ "twin-a.v100.gold"; "twin-b.v100.gold" ];
  let stop_of (p : Sweep.pair) =
    (List.find (fun (r : Gold.layer_record) -> r.layer = "c1") p.gold.layers).stop
  in
  (match g.reports with
  | [ a; b ] ->
    Alcotest.(check int) "Twin-A tunes both candidates live" 2 a.pair.live;
    Alcotest.(check int) "Twin-B's shared candidates are warm" 2 b.pair.warm;
    Alcotest.(check int) "Twin-B tunes only its own layer" 1 b.pair.live;
    Alcotest.(check string) "shared layer keeps the live stop token" (stop_of a.pair)
      (stop_of b.pair);
    Alcotest.(check bool) "a live token, not a replay" true (stop_of b.pair <> "replayed")
  | _ -> Alcotest.fail "expected two pair reports");
  let r = run ~cache_path ~gold_dir:cached_dir Harness.Regress in
  Alcotest.(check bool) "warm regress passes" false (Harness.failed r);
  List.iter
    (fun (rep : Harness.pair_report) ->
      let name = rep.pair.model.Cnn.Models.name in
      Alcotest.(check int) (name ^ ": nothing tuned live") 0 rep.pair.live;
      List.iter
        (fun (rec_ : Gold.layer_record) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s served from cache" name rec_.layer)
            "replayed" rec_.stop)
        rep.pair.gold.layers)
    r.reports

let () =
  Alcotest.run "regress"
    [
      ( "gold-format",
        [
          Alcotest.test_case "layer record roundtrip" `Quick test_layer_roundtrip;
          Alcotest.test_case "malformed records rejected" `Quick
            test_layer_rejects_malformed;
          QCheck_alcotest.to_alcotest qcheck_float_roundtrip;
          Alcotest.test_case "file roundtrip + naming" `Quick test_file_roundtrip;
        ] );
      ( "diff",
        [
          Alcotest.test_case "clean" `Quick test_diff_clean;
          Alcotest.test_case "meta drift" `Quick test_diff_meta;
          Alcotest.test_case "config drift" `Quick test_diff_config_drift;
          Alcotest.test_case "cost drift + tolerance + NaN" `Quick test_diff_cost_drift;
          Alcotest.test_case "stop drift vs replay" `Quick test_diff_stop_and_replay;
          Alcotest.test_case "layer set drift" `Quick test_diff_layer_sets;
        ] );
      ( "harness",
        [
          Alcotest.test_case "perturbation self-test" `Slow test_harness_self_test;
          Alcotest.test_case "shared layer shape across models" `Slow
            test_harness_shared_shape;
        ] );
    ]
