(* Fault-tolerance smoke suite — backs the [@fault-smoke] dune alias.

   End-to-end checks that the tuner survives injected measurement faults,
   reports accurate failure/retry statistics, keeps the PR 1 bit-identical
   parallel == sequential contract under faults, and resumes a killed
   journal-backed run to the uninterrupted run's exact result.  Budgeted to
   stay well under ten seconds at the fixed seeds. *)

let arch = Gpu_sim.Arch.v100
let spec = Conv.Conv_spec.make ~c_in:16 ~h_in:14 ~w_in:14 ~c_out:16 ~k_h:3 ~k_w:3 ~pad:1 ()

(* Harsher than [Faults.default]: most of the shared-memory budget is
   declared over-capacity (the small test layer's working sets top out near
   36% of it), so some pruned-domain configurations fail persistently and
   the failure path (penalized dataset entries, explorer avoidance, partial
   batches) actually runs. *)
let harsh = { Gpu_sim.Faults.default with launch_shmem_frac = 0.25 }

let space () = Core.Search_space.make arch spec Core.Config.Direct_dataflow

let tune ?faults ?journal ~domains () =
  Core.Tuner.tune ~seed:11 ~max_measurements:60 ~domains ?faults ?journal ~space:(space ()) ()

let same_result name (a : Core.Tuner.result) (b : Core.Tuner.result) =
  Alcotest.(check bool) (name ^ ": best config") true (a.best_config = b.best_config);
  Alcotest.(check (float 0.0)) (name ^ ": best runtime") a.best_runtime_us b.best_runtime_us;
  Alcotest.(check int) (name ^ ": measurements") a.measurements b.measurements;
  Alcotest.(check bool) (name ^ ": history") true (a.history = b.history);
  Alcotest.(check int) (name ^ ": converged_at") a.converged_at b.converged_at

let test_tuner_completes_under_faults () =
  let r = tune ~faults:harsh ~domains:1 () in
  let f = r.faults in
  Alcotest.(check bool) "found a config" true (r.best_runtime_us > 0.0);
  Alcotest.(check bool) "some configurations failed" true (f.failed > 0);
  Alcotest.(check int) "failures are all launch failures here" f.failed f.launch_failures;
  Alcotest.(check int) "one backoff per transient" f.retries (f.timeouts + f.nan_readings);
  Alcotest.(check bool) "failures count against the trial budget" true
    (r.measurements + f.failed <= 60);
  Alcotest.(check bool) "attempts cover every trial" true
    (f.attempts >= r.measurements + f.failed);
  Alcotest.(check int) "nothing replayed without a journal" 0 f.replayed

let test_zero_profile_is_plain_run () =
  let plain = tune ~domains:1 () in
  let zero = tune ~faults:Gpu_sim.Faults.none ~domains:1 () in
  same_result "zero profile" plain zero;
  let f = zero.faults in
  Alcotest.(check int) "no failures" 0 f.failed;
  Alcotest.(check int) "no retries" 0 f.retries;
  Alcotest.(check int) "no timeouts" 0 f.timeouts;
  Alcotest.(check int) "no nan readings" 0 f.nan_readings;
  Alcotest.(check (float 0.0)) "no backoff" 0.0 f.backoff_us

let test_parallel_identical_under_faults () =
  let baseline = tune ~faults:harsh ~domains:1 () in
  List.iter
    (fun domains ->
      let r = tune ~faults:harsh ~domains () in
      same_result (Printf.sprintf "domains=%d" domains) baseline r;
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d: fault stats" domains)
        true
        (r.faults = baseline.faults))
    [ 2; 4 ]

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* A cost-model checkpoint as older builds wrote it beside the journal:
   "c2 <TAB> n-samples <TAB> split <TAB> booster" records of kind
   "gbt-checkpoint".  Each booster here is fitted on data unrelated to the
   tune, so a resume that installed one in place of its own retrain would
   leave the uninterrupted run's trajectory. *)
let write_stray_checkpoint path =
  let rng = Util.Rng.create 3 in
  let data = Gbt.Dataset.create ~n_features:Core.Config.n_features in
  for _ = 1 to 40 do
    let x = Array.init Core.Config.n_features (fun _ -> Util.Rng.float rng 8.0) in
    Gbt.Dataset.add data x (Util.Rng.float rng 10.0)
  done;
  let booster =
    Gbt.Booster.to_compact (Gbt.Booster.train ~domains:1 Gbt.Booster.default_params data)
  in
  Util.Durable.write_snapshot ~kind:"gbt-checkpoint" path
    (List.map (fun n -> Printf.sprintf "c2\t%d\texact\t%s" n booster) [ 16; 32; 48 ])

let kill_and_resume ~domains () =
  let uninterrupted = tune ~faults:harsh ~domains () in
  let journal = Filename.temp_file "tune" ".journal" in
  Sys.remove journal;
  (* Journalling itself must not perturb the search. *)
  let journalled = tune ~faults:harsh ~journal ~domains () in
  same_result "journal-backed run" uninterrupted journalled;
  (* Simulate a kill one third of the way in: truncate the journal to a
     record prefix and rerun with identical parameters.  Line 0 is the
     durable header; records follow, one per trial. *)
  let lines = read_lines journal in
  let total = List.length lines - 1 in
  Alcotest.(check bool) "journal recorded every trial" true
    (total = journalled.measurements + journalled.faults.failed);
  let keep = max 1 (total / 3) in
  write_lines journal (List.filteri (fun i _ -> i <= keep) lines);
  (* Every round retrains, so a stray checkpoint file cannot steer the
     resume. *)
  let stray = journal ^ ".ckpt" in
  write_stray_checkpoint stray;
  let resumed = tune ~faults:harsh ~journal ~domains () in
  same_result "resumed run" uninterrupted resumed;
  Alcotest.(check int) "replayed exactly the surviving journal" keep resumed.faults.replayed;
  Alcotest.(check int) "clean journal: nothing dropped" 0 resumed.faults.journal_dropped;
  (* A complete journal replays everything and measures nothing live. *)
  let replay_all = tune ~faults:harsh ~journal ~domains () in
  same_result "full replay" uninterrupted replay_all;
  Alcotest.(check int) "full replay count" total replay_all.faults.replayed;
  Sys.remove journal;
  Sys.remove stray

let test_kill_and_resume_sequential () = kill_and_resume ~domains:1 ()
let test_kill_and_resume_parallel () = kill_and_resume ~domains:4 ()

let () =
  Util.Pool.ensure_workers (Util.Pool.default ()) 3;
  Alcotest.run "faults"
    [
      ( "fault-smoke",
        [
          Alcotest.test_case "tuner completes under faults" `Quick
            test_tuner_completes_under_faults;
          Alcotest.test_case "zero profile is the plain run" `Quick
            test_zero_profile_is_plain_run;
          Alcotest.test_case "parallel identical under faults" `Quick
            test_parallel_identical_under_faults;
          Alcotest.test_case "kill and resume, sequential" `Quick
            test_kill_and_resume_sequential;
          Alcotest.test_case "kill and resume, parallel" `Quick
            test_kill_and_resume_parallel;
        ] );
    ]
