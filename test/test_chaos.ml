(* Combined chaos suite — backs the [@chaos-smoke] dune alias.

   Run-level supervision under everything at once: injected GPU measurement
   faults, filesystem corruption of the tuning journals and a finite global
   budget.  Asserts the supervisor's contracts: every campaign terminates,
   every reported outcome is truthful, degraded tasks still carry a valid
   (shared-memory-feasible) configuration, and with no injectors enabled
   supervision is bit-identical to the plain engine.

   CHAOS_DEEP=1 widens the seed sweep (32 campaign seeds instead of 4) and
   raises the qcheck case counts. *)

let deep = Sys.getenv_opt "CHAOS_DEEP" <> None
let campaign_seeds = List.init (if deep then 32 else 4) (fun i -> i)
let qcheck_count = if deep then 500 else 60

(* Salvage warnings from deliberately corrupted journals are expected noise
   here; the verbosity hook keeps the test output clean. *)
let () = Util.Log.set_quiet true

let arch = Gpu_sim.Arch.v100

let spec_3x3 =
  Conv.Conv_spec.make ~c_in:16 ~h_in:14 ~w_in:14 ~c_out:16 ~k_h:3 ~k_w:3 ~pad:1 ()

let spec_1x1 = Conv.Conv_spec.make ~c_in:32 ~h_in:14 ~w_in:14 ~c_out:16 ~k_h:1 ~k_w:1 ()

(* Two shapes, one Winograd-eligible: three tuning tasks per campaign. *)
let toy_model =
  {
    Cnn.Models.name = "toy";
    layers = [ Cnn.Layer.make ~count:2 "a" spec_3x3; Cnn.Layer.make "b" spec_1x1 ];
  }

let space () = Core.Search_space.make arch spec_3x3 Core.Config.Direct_dataflow

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let shmem_feasible spec (cfg : Core.Config.t) =
  Core.Config.shmem_bytes spec cfg <= Gpu_sim.Faults.block_budget_bytes arch

(* ------------------------------------------------------------------ *)
(* Analytic degradation. *)

let test_analytic_best_deterministic () =
  let s = space () in
  let c1, r1 = Core.Supervisor.analytic_best s in
  let c2, r2 = Core.Supervisor.analytic_best (space ()) in
  Alcotest.(check bool) "same config" true (c1 = c2);
  Alcotest.(check (float 0.0)) "same runtime" r1 r2;
  Alcotest.(check bool) "validates" true (Core.Search_space.validate s c1 = Ok ());
  Alcotest.(check bool) "positive finite runtime" true (Float.is_finite r1 && r1 > 0.0)

(* qcheck: for arbitrary layer shapes and candidate counts, the analytic
   fallback is always a member of the pruned domain — hence launchable and
   within the per-block shared-memory budget the fault injector measures
   against. *)
let analytic_degraded_always_valid =
  let gen =
    QCheck.Gen.(
      let* c_in = 1 -- 64 in
      let* c_out = 1 -- 64 in
      let* hw = 4 -- 32 in
      let* k = oneofl [ 1; 3; 5 ] in
      let* wino = bool in
      let* candidates = 1 -- 64 in
      return (c_in, c_out, hw, k, wino, candidates))
  in
  let print (c_in, c_out, hw, k, wino, candidates) =
    Printf.sprintf "c_in=%d c_out=%d hw=%d k=%d wino=%b candidates=%d" c_in c_out hw k
      wino candidates
  in
  QCheck.Test.make ~count:qcheck_count ~name:"analytic degraded config always valid"
    (QCheck.make ~print gen)
    (fun (c_in, c_out, hw, k, wino, candidates) ->
      let pad = k / 2 in
      let spec =
        Conv.Conv_spec.make ~c_in ~h_in:hw ~w_in:hw ~c_out ~k_h:k ~k_w:k ~pad ()
      in
      let algorithm =
        if wino && k = 3 then Core.Config.Winograd_dataflow 2
        else Core.Config.Direct_dataflow
      in
      match Core.Search_space.make arch spec algorithm with
      | exception Invalid_argument _ -> true (* empty domain: nothing to degrade to *)
      | space ->
        let cfg, runtime_us = Core.Supervisor.analytic_best ~candidates space in
        Core.Search_space.validate space cfg = Ok ()
        && shmem_feasible spec cfg
        && Float.is_finite runtime_us && runtime_us > 0.0)

(* ------------------------------------------------------------------ *)
(* Circuit breaker. *)

(* Every launch fails persistently: the breaker must trip and the task must
   degrade to the analytic configuration instead of failing. *)
let test_breaker_trips_to_analytic () =
  let poison = { Gpu_sim.Faults.default with launch_shmem_frac = 0.0 } in
  let session = Core.Supervisor.create ~tasks:1 () in
  let s = space () in
  let outcome =
    Core.Supervisor.tune_task session ~key:"poisoned" ~seed:3 ~max_measurements:40
      ~faults:poison ~space:s ()
  in
  (match outcome with
  | Core.Supervisor.Degraded { reason; config; runtime_us; faults } ->
    (match reason with
    | Core.Supervisor.Breaker_open { consecutive; last } ->
      Alcotest.(check bool) "tripped at or past the threshold" true
        (consecutive >= Core.Supervisor.default_policy.breaker_k);
      (match last with
      | Some (Core.Supervisor.Measurement (Gpu_sim.Measure.Launch_failure _)) -> ()
      | _ -> Alcotest.fail "expected a launch failure as the last cause")
    | r -> Alcotest.fail ("expected Breaker_open, got " ^ Core.Supervisor.degrade_reason_to_string r));
    Alcotest.(check bool) "analytic config validates" true
      (Core.Search_space.validate s config = Ok ());
    Alcotest.(check bool) "analytic config fits shared memory" true
      (shmem_feasible spec_3x3 config);
    Alcotest.(check bool) "finite runtime, not infinity" true
      (Float.is_finite runtime_us && runtime_us > 0.0);
    Alcotest.(check bool) "every trial failed" true (faults.failed >= 5)
  | o -> Alcotest.fail ("expected Degraded, got " ^ Core.Supervisor.outcome_label o));
  let report = Core.Supervisor.report session in
  Alcotest.(check int) "one task reported" 1 (List.length report.tasks);
  Alcotest.(check string) "reported as degraded" "degraded"
    (Core.Supervisor.outcome_label (List.hd report.tasks).outcome);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rendering mentions the breaker" true
    (contains (Core.Supervisor.report_to_string report) "breaker open")

let test_breaker_disabled_never_trips () =
  let poison = { Gpu_sim.Faults.default with launch_shmem_frac = 0.0 } in
  let policy = { Core.Supervisor.default_policy with breaker_k = 0 } in
  let session = Core.Supervisor.create ~policy ~tasks:1 () in
  let outcome =
    Core.Supervisor.tune_task session ~key:"poisoned" ~seed:3 ~max_measurements:40
      ~faults:poison ~space:(space ()) ()
  in
  match outcome with
  | Core.Supervisor.Degraded { reason = Core.Supervisor.Breaker_open { consecutive; _ }; faults; _ } ->
    (* No breaker: the whole trial budget burns down first, and the degrade
       reason reports the full failure streak. *)
    Alcotest.(check int) "whole budget failed" 40 faults.failed;
    Alcotest.(check int) "streak covers the budget" 40 consecutive
  | o -> Alcotest.fail ("expected Degraded breaker-open, got " ^ Core.Supervisor.outcome_label o)

(* ------------------------------------------------------------------ *)
(* Budget. *)

let test_budget_fair_share () =
  let b = Core.Supervisor.Budget.create ~total_us:100.0 ~tasks:2 in
  Alcotest.(check (float 1e-9)) "first share" 50.0 (Core.Supervisor.Budget.begin_task b);
  Core.Supervisor.Budget.charge b 30.0;
  (* The first task underspent: its surplus flows to the second. *)
  Alcotest.(check (float 1e-9)) "surplus redistributed" 70.0
    (Core.Supervisor.Budget.begin_task b);
  Core.Supervisor.Budget.charge b 80.0;
  Alcotest.(check (float 1e-9)) "overshoot clamps remaining at 0" 0.0
    (Core.Supervisor.Budget.remaining_us b);
  (* Stragglers beyond the announced count get whatever is left. *)
  Alcotest.(check (float 1e-9)) "straggler share" 0.0
    (Core.Supervisor.Budget.begin_task b);
  Core.Supervisor.Budget.charge b nan;
  Core.Supervisor.Budget.charge b (-5.0);
  Alcotest.(check (float 1e-9)) "garbage charges ignored" 110.0
    (Core.Supervisor.Budget.spent_us b)

(* Every task trips its breaker early, spending almost none of its fair
   share.  The surplus must flow forward — each later task's granted share
   can only grow — and must never resurrect a tripped task: each key is
   reported exactly once, stays degraded-by-breaker (not converted to a
   budget verdict by the windfall), and the leftover budget survives as
   remaining, unspent. *)
let test_surplus_never_resurrects_tripped_tasks () =
  let poison = { Gpu_sim.Faults.default with launch_shmem_frac = 0.0 } in
  let policy = { Core.Supervisor.default_policy with budget_us = 5.0e7 } in
  let session = Core.Supervisor.create ~policy ~tasks:3 () in
  let keys = [ "t0"; "t1"; "t2" ] in
  List.iteri
    (fun i key ->
      match
        Core.Supervisor.tune_task session ~key ~seed:i ~max_measurements:40
          ~faults:poison ~space:(space ()) ()
      with
      | Core.Supervisor.Degraded { reason = Core.Supervisor.Breaker_open _; _ } -> ()
      | o ->
        Alcotest.fail
          (Printf.sprintf "task %s: expected breaker-open, got %s" key
             (Core.Supervisor.outcome_label o)))
    keys;
  let report = Core.Supervisor.report session in
  Alcotest.(check (list string)) "each task reported exactly once" keys
    (List.map (fun (t : Core.Supervisor.task_report) -> t.key) report.tasks);
  List.iter
    (fun (t : Core.Supervisor.task_report) ->
      (match t.outcome with
      | Core.Supervisor.Degraded { reason = Core.Supervisor.Breaker_open _; _ } -> ()
      | o ->
        Alcotest.fail
          (Printf.sprintf "%s resurrected as %s" t.key
             (Core.Supervisor.outcome_label o)));
      Alcotest.(check bool) (t.key ^ " spent within its granted share") true
        (t.spent_us <= t.share_us +. 1e-6))
    report.tasks;
  (* Breaker trips are cheap, so each successive share strictly absorbs the
     predecessor's surplus. *)
  let shares = List.map (fun (t : Core.Supervisor.task_report) -> t.share_us) report.tasks in
  (match shares with
  | [ s0; s1; s2 ] ->
    Alcotest.(check (float 1e-6)) "first share is the plain third" (5.0e7 /. 3.0) s0;
    Alcotest.(check bool) "surplus flows forward, monotonically" true
      (s1 >= s0 -. 1e-6 && s2 >= s1 -. 1e-6)
  | _ -> Alcotest.fail "expected three shares");
  Alcotest.(check bool) "windfall left unspent, not burned on tripped tasks" true
    (report.budget_spent_us < 0.5 *. report.budget_total_us
    && Core.Supervisor.budget_remaining_us session > 0.5 *. report.budget_total_us)

let test_zero_budget_degrades_analytically () =
  let policy = { Core.Supervisor.default_policy with budget_us = 0.0 } in
  let session = Core.Supervisor.create ~policy ~tasks:1 () in
  let s = space () in
  (match
     Core.Supervisor.tune_task session ~key:"starved" ~seed:0 ~max_measurements:40
       ~space:s ()
   with
  | Core.Supervisor.Degraded { reason = Core.Supervisor.Budget_exhausted _; config; runtime_us; faults } ->
    Alcotest.(check bool) "config validates" true
      (Core.Search_space.validate s config = Ok ());
    Alcotest.(check bool) "finite runtime" true (Float.is_finite runtime_us && runtime_us > 0.0);
    Alcotest.(check (float 0.0)) "no virtual time spent" 0.0 faults.elapsed_us
  | o -> Alcotest.fail ("expected Degraded budget-exhausted, got " ^ Core.Supervisor.outcome_label o));
  let report = Core.Supervisor.report session in
  Alcotest.(check (float 0.0)) "nothing charged" 0.0 report.budget_spent_us

let test_finite_budget_stops_and_accounts () =
  (* Enough budget for some measuring but not the whole search: the run
     stops at the deadline, keeps its measured best, and the charge is
     bounded by one in-flight batch of overshoot. *)
  let policy = { Core.Supervisor.default_policy with budget_us = 2000.0 } in
  let session = Core.Supervisor.create ~policy ~tasks:1 () in
  let outcome =
    Core.Supervisor.tune_task session ~key:"bounded" ~seed:1 ~max_measurements:400
      ~space:(space ()) ()
  in
  (match outcome with
  | Core.Supervisor.Tuned r ->
    Alcotest.(check bool) "stopped by the deadline" true (r.stop = Core.Tuner.Deadline_reached);
    Alcotest.(check bool) "measured something" true (r.measurements > 0)
  | Core.Supervisor.Degraded _ -> () (* budget too tight for a single success: also legal *)
  | o -> Alcotest.fail ("unexpected outcome " ^ Core.Supervisor.outcome_label o));
  let report = Core.Supervisor.report session in
  Alcotest.(check bool) "budget accounted" true (report.budget_spent_us > 0.0);
  let task = List.hd report.tasks in
  Alcotest.(check (float 1e-9)) "task spend equals session spend" report.budget_spent_us
    task.spent_us

let test_cached_tasks_donate_budget () =
  let policy = { Core.Supervisor.default_policy with budget_us = 1000.0 } in
  let session = Core.Supervisor.create ~policy ~tasks:2 () in
  let r =
    match Core.Tuner.tune_outcome ~seed:0 ~max_measurements:30 ~space:(space ()) () with
    | Ok r -> r
    | Error _ -> Alcotest.fail "plain tune failed"
  in
  (match Core.Supervisor.record_cached session ~key:"memo-hit" r with
  | Core.Supervisor.Replayed _ -> ()
  | o -> Alcotest.fail ("expected Replayed, got " ^ Core.Supervisor.outcome_label o));
  Alcotest.(check (float 1e-9)) "cache hit charged nothing" 1000.0
    (Core.Supervisor.budget_remaining_us session);
  let report = Core.Supervisor.report session in
  Alcotest.(check (float 1e-9)) "share granted, not spent" 500.0
    (List.hd report.tasks).share_us

(* ------------------------------------------------------------------ *)
(* Outcome taxonomy odds and ends. *)

let test_failed_task_and_causes () =
  let session = Core.Supervisor.create ~tasks:1 () in
  let cause = Core.Supervisor.Empty_domain "no valid configuration" in
  (match Core.Supervisor.record_failed session ~key:"doomed" cause with
  | Core.Supervisor.Failed _ -> ()
  | o -> Alcotest.fail ("expected Failed, got " ^ Core.Supervisor.outcome_label o));
  let report = Core.Supervisor.report session in
  let task = List.hd report.tasks in
  Alcotest.(check bool) "no usable runtime" true
    (Core.Supervisor.outcome_runtime_us task.outcome = None);
  (* Every cause renders; spot-check the subsystem prefixes. *)
  let strings =
    List.map Core.Supervisor.cause_to_string
      [
        Core.Supervisor.Invalid_config
          (Core.Search_space.Tile_not_in_domain { tile = (1, 2, 3) });
        Core.Supervisor.Measurement (Gpu_sim.Measure.No_valid_sample { attempts = 7 });
        Core.Supervisor.Storage_corruption { dropped = 2 };
        cause;
      ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("non-empty: " ^ s) true (String.length s > 0))
    strings

let test_replayed_outcome_from_journal () =
  let journal = Filename.temp_file "chaos" ".journal" in
  Sys.remove journal;
  let run () =
    let session = Core.Supervisor.create ~tasks:1 () in
    Core.Supervisor.tune_task session ~key:"journalled" ~seed:7 ~max_measurements:30
      ~faults:Gpu_sim.Faults.default ~journal ~space:(space ()) ()
  in
  let first = run () in
  let second = run () in
  (match (first, second) with
  | Core.Supervisor.Tuned a, Core.Supervisor.Replayed b ->
    Alcotest.(check bool) "replay reproduces the result" true
      (a.Core.Tuner.best_config = b.Core.Tuner.best_config
      && a.best_runtime_us = b.best_runtime_us
      && a.history = b.history);
    Alcotest.(check (float 0.0)) "replay is free" 0.0 b.faults.elapsed_us
  | a, b ->
    Alcotest.fail
      (Printf.sprintf "expected Tuned then Replayed, got %s then %s"
         (Core.Supervisor.outcome_label a) (Core.Supervisor.outcome_label b)));
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Whole-model supervision. *)

let clean_layer_timings model ~seed ~max_measurements =
  Cnn.Runner.clear_cache ();
  let t = Cnn.Runner.time_model ~seed ~max_measurements arch model in
  (t, List.map (fun (l : Cnn.Runner.layer_timing) -> (l.ours_us, l.ours_algorithm)) t.layers)

let test_supervised_fault_free_bit_identical () =
  let clean, clean_layers = clean_layer_timings toy_model ~seed:5 ~max_measurements:40 in
  Cnn.Runner.clear_cache ();
  let sup =
    Cnn.Runner.time_model ~seed:5 ~max_measurements:40
      ~supervise:Core.Supervisor.default_policy arch toy_model
  in
  Alcotest.(check bool) "layer timings identical" true
    (clean_layers
    = List.map (fun (l : Cnn.Runner.layer_timing) -> (l.ours_us, l.ours_algorithm)) sup.layers);
  Alcotest.(check (float 0.0)) "totals identical" clean.ours_total_us sup.ours_total_us;
  match sup.health with
  | None -> Alcotest.fail "supervised run must report health"
  | Some h ->
    Alcotest.(check int) "three tasks" 3 (List.length h.tasks);
    List.iter
      (fun (t : Core.Supervisor.task_report) ->
        Alcotest.(check string) ("outcome of " ^ t.key) "tuned"
          (Core.Supervisor.outcome_label t.outcome))
      h.tasks;
    Alcotest.(check int) "no failures absent faults" 0 h.faults.failed

(* One campaign: supervised whole-model tuning with seed-varied GPU faults
   and journals, then journal corruption, then a resumed run that must
   reproduce the first run's timings exactly. *)
let campaign seed =
  let faults =
    {
      Gpu_sim.Faults.default with
      fault_seed = seed;
      timeout_rate = 0.04 +. (0.01 *. float_of_int (seed mod 5));
      nan_rate = 0.02 +. (0.01 *. float_of_int (seed mod 3));
      launch_shmem_frac = (if seed mod 3 = 0 then 0.5 else 0.92);
    }
  in
  let dir = temp_dir (Printf.sprintf "chaos%d" seed) in
  let run () =
    Cnn.Runner.clear_cache ();
    Cnn.Runner.time_model ~seed ~max_measurements:30 ~faults ~journal_dir:dir
      ~supervise:Core.Supervisor.default_policy arch toy_model
  in
  let first = run () in
  let check_health label (t : Cnn.Runner.model_timing) =
    Alcotest.(check bool) (label ^ ": positive total") true
      (Float.is_finite t.ours_total_us && t.ours_total_us > 0.0);
    match t.health with
    | None -> Alcotest.fail (label ^ ": missing health report")
    | Some h ->
      Alcotest.(check int) (label ^ ": three tasks") 3 (List.length h.tasks);
      let spent =
        List.fold_left (fun acc (t : Core.Supervisor.task_report) -> acc +. t.spent_us)
          0.0 h.tasks
      in
      Alcotest.(check bool) (label ^ ": spend accounted") true
        (Float.abs (spent -. h.budget_spent_us) < 1e-6);
      List.iter
        (fun (t : Core.Supervisor.task_report) ->
          match Core.Supervisor.outcome_runtime_us t.outcome with
          | Some us ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s usable runtime" label t.key)
              true
              (Float.is_finite us && us > 0.0)
          | None -> Alcotest.fail (label ^ ": no Failed outcomes expected here"))
        h.tasks;
      h
  in
  let h1 = check_health "first" first in
  ignore h1;
  (* Corrupt every journal the run left behind, deterministically. *)
  let rng = Util.Rng.create (0x5eed + seed) in
  let journals = Sys.readdir dir in
  Array.sort compare journals;
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      for _ = 1 to 2 do
        ignore (Util.Fs_faults.inject rng path)
      done)
    journals;
  Alcotest.(check bool) "journals were written" true (Array.length journals > 0);
  (* Resume: salvaged prefixes replay free, the damaged suffixes re-measure
     to the same values — the model timings must not move. *)
  let second = run () in
  let h2 = check_health "resumed" second in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "seed %d: resumed total identical" seed)
    first.ours_total_us second.ours_total_us;
  Alcotest.(check bool) "resume replayed or re-measured" true
    (h2.faults.replayed >= 0);
  (* Bounded-budget campaign on the same seed: must terminate with every
     outcome truthful; degraded tasks carry their reason. *)
  Cnn.Runner.clear_cache ();
  let policy = { Core.Supervisor.default_policy with budget_us = 15_000.0 } in
  let bounded =
    Cnn.Runner.time_model ~seed ~max_measurements:100 ~faults ~supervise:policy arch
      toy_model
  in
  (match bounded.health with
  | None -> Alcotest.fail "bounded: missing health report"
  | Some h ->
    Alcotest.(check bool) "bounded: something was charged" true (h.budget_spent_us > 0.0);
    List.iter
      (fun (t : Core.Supervisor.task_report) ->
        match t.outcome with
        | Core.Supervisor.Failed c ->
          Alcotest.fail ("bounded: unexpected failure: " ^ Core.Supervisor.cause_to_string c)
        | Core.Supervisor.Degraded { runtime_us; _ } ->
          Alcotest.(check bool) "bounded: degraded runtime finite" true
            (Float.is_finite runtime_us && runtime_us > 0.0)
        | Core.Supervisor.Tuned _ | Core.Supervisor.Replayed _ -> ())
      h.tasks);
  (* Leave no temp litter behind. *)
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  Unix.rmdir dir

let test_chaos_campaign () = List.iter campaign campaign_seeds

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [
      ( "analytic",
        [
          Alcotest.test_case "deterministic and valid" `Quick test_analytic_best_deterministic;
          QCheck_alcotest.to_alcotest analytic_degraded_always_valid;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips to analytic config" `Quick test_breaker_trips_to_analytic;
          Alcotest.test_case "disabled breaker burns the budget" `Quick
            test_breaker_disabled_never_trips;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fair share redistribution" `Quick test_budget_fair_share;
          Alcotest.test_case "surplus never resurrects tripped tasks" `Quick
            test_surplus_never_resurrects_tripped_tasks;
          Alcotest.test_case "zero budget degrades analytically" `Quick
            test_zero_budget_degrades_analytically;
          Alcotest.test_case "finite budget stops and accounts" `Quick
            test_finite_budget_stops_and_accounts;
          Alcotest.test_case "cached tasks donate their share" `Quick
            test_cached_tasks_donate_budget;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "failed tasks and cause rendering" `Quick
            test_failed_task_and_causes;
          Alcotest.test_case "journal replay reports Replayed" `Quick
            test_replayed_outcome_from_journal;
        ] );
      ( "whole-model",
        [
          Alcotest.test_case "fault-free supervision is bit-identical" `Quick
            test_supervised_fault_free_bit_identical;
          Alcotest.test_case "seeded chaos campaign" `Quick test_chaos_campaign;
        ] );
    ]
