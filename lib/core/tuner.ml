type progress = { measurement : int; best_runtime_us : float }

type fault_stats = {
  failed : int;
  launch_failures : int;
  deadlines_exceeded : int;
  attempts : int;
  retries : int;
  timeouts : int;
  nan_readings : int;
  outliers_rejected : int;
  backoff_us : float;
  replayed : int;
  journal_dropped : int;
  elapsed_us : float;
  last_failure : Gpu_sim.Measure.failure option;
}

let no_faults =
  {
    failed = 0;
    launch_failures = 0;
    deadlines_exceeded = 0;
    attempts = 0;
    retries = 0;
    timeouts = 0;
    nan_readings = 0;
    outliers_rejected = 0;
    backoff_us = 0.0;
    replayed = 0;
    journal_dropped = 0;
    elapsed_us = 0.0;
    last_failure = None;
  }

type stop_reason =
  | Converged
  | Trial_budget
  | Deadline_reached
  | Breaker_tripped of int

let stop_reason_to_string = function
  | Converged -> "converged"
  | Trial_budget -> "trial budget exhausted"
  | Deadline_reached -> "virtual deadline reached"
  | Breaker_tripped k -> Printf.sprintf "circuit breaker tripped after %d consecutive failures" k

type result = {
  best_config : Config.t;
  best_runtime_us : float;
  best_gflops : float;
  measurements : int;
  converged_at : int;
  history : progress list;
  space_size : float;
  faults : fault_stats;
  stop : stop_reason;
}

type tune_error = { stop : stop_reason; faults : fault_stats }

let nominal_gflops spec ~runtime_us = Conv.Conv_spec.flops spec /. runtime_us /. 1.0e3

(* First measurement whose best-so-far is within 1% of the final best: the
   point at which the search had effectively found its solution (raw
   last-improvement indices are dominated by sub-noise-level late wiggles). *)
let convergence_point ~final history =
  let rec scan : progress list -> int = function
    | [] -> 1
    | p :: rest ->
      if p.best_runtime_us <= final *. 1.01 then p.measurement else scan rest
  in
  scan history

let measure_config ?(seed = 0) arch spec cfg =
  let kernel = Config.to_kernel arch spec cfg in
  Gpu_sim.Measure.runtime_avg_us ~seed arch kernel

let measure_config_robust ?(seed = 0) ?policy ?(faults = Gpu_sim.Faults.none) arch spec
    cfg =
  match Config.to_kernel arch spec cfg with
  | kernel -> Gpu_sim.Faults.measure ?policy faults ~seed arch kernel
  | exception Invalid_argument msg ->
    (* Configs that cannot even lower to a launchable kernel degrade into a
       typed failure instead of escaping as an exception. *)
    (Error (Gpu_sim.Measure.Launch_failure msg), Gpu_sim.Measure.no_attempts)

let max_leaders = 4

(* Bounded insertion into the descending-quality leader list: O(max_leaders)
   per measurement instead of a full sort.  A new entry goes before existing
   entries of equal runtime, matching what a stable sort of (new :: old) did. *)
let insert_leader cfg runtime leaders =
  let rec insert room = function
    | [] -> if room > 0 then [ (cfg, runtime) ] else []
    | (_, r) :: _ as rest when runtime <= r ->
      (cfg, runtime) :: keep (room - 1) rest
    | entry :: rest -> entry :: insert (room - 1) rest
  and keep room = function
    | [] -> []
    | entry :: rest -> if room > 0 then entry :: keep (room - 1) rest else []
  in
  insert max_leaders leaders

let tune_outcome ?(seed = 0) ?(batch_size = 16) ?(patience = 8) ?(max_measurements = 600)
    ?(faults = Gpu_sim.Faults.none) ?measure_policy ?journal ?(deadline_us = infinity)
    ?max_consecutive_failures ~space () =
  if max_measurements < 1 then invalid_arg "Tuner.tune_outcome: max_measurements < 1";
  let arch = Search_space.arch space and spec = Search_space.spec space in
  let rng = Util.Rng.create (seed + 17) in
  let model = Cost_model.create spec in
  let measured = Hashtbl.create 128 in
  let failed_keys = Hashtbl.create 16 in
  let best = ref None in
  let history = ref [] in
  let count = ref 0 in
  (* Budget accounting: failures consume budget too, or a hostile fault
     profile could spin the loop forever. *)
  let trials = ref 0 in
  let stats = ref no_faults in
  (* Circuit-breaker state: consecutive failed measurements, in batch order.
     Replayed failures count too — a resumed run must trip at the same
     trial. *)
  let consec_failures = ref 0 in
  let tripped () =
    match max_consecutive_failures with Some k -> !consec_failures >= k | None -> false
  in
  let deadline_hit () = !stats.elapsed_us >= deadline_us in
  (* Replay table from a previous (killed) run of the same tune.  Because
     every stochastic draw is independent of measurement *values*, replaying
     the journaled outcomes reproduces the killed run's trajectory exactly;
     the oracle is only consulted for configs past the kill point.
     [recover] salvages the longest valid prefix of a torn or corrupted
     journal and repairs the file so our appends extend clean state; the
     loss is surfaced in [journal_dropped], never silently discarded. *)
  let journal_tbl =
    match journal with
    | None -> Hashtbl.create 0
    | Some path ->
      let jr = Tune_journal.recover path in
      stats := { !stats with journal_dropped = jr.dropped };
      Tune_journal.to_table jr.entries
  in
  let journal_append key outcome =
    match journal with
    | None -> ()
    | Some path -> Tune_journal.append path { Tune_journal.key; outcome }
  in
  (* Top measured configurations, best first — the explorer's walk seeds. *)
  let leaders : (Config.t * float) list ref = ref [] in
  (* Bookkeeping for one finished measurement: leader list, cost model
     dataset, best-so-far and history all update in batch order. *)
  let record cfg runtime =
    consec_failures := 0;
    leaders := insert_leader cfg runtime !leaders;
    incr count;
    Cost_model.add_measurement model cfg runtime;
    (match !best with
    | Some (_, best_runtime) when best_runtime <= runtime -> ()
    | _ -> best := Some (cfg, runtime));
    let best_runtime = match !best with Some (_, r) -> r | None -> runtime in
    history := { measurement = !count; best_runtime_us = best_runtime } :: !history
  in
  let record_failure cfg (failure : Gpu_sim.Measure.failure) =
    incr consec_failures;
    Hashtbl.replace failed_keys (Config.to_string cfg) ();
    Cost_model.add_failure model cfg;
    let s = !stats in
    stats :=
      {
        s with
        failed = s.failed + 1;
        launch_failures =
          (s.launch_failures
          + match failure with Gpu_sim.Measure.Launch_failure _ -> 1 | _ -> 0);
        deadlines_exceeded =
          (s.deadlines_exceeded
          + match failure with Gpu_sim.Measure.Deadline_exceeded _ -> 1 | _ -> 0);
        last_failure = Some failure;
      }
  in
  let absorb (l : Gpu_sim.Measure.attempt_log) =
    let s = !stats in
    stats :=
      {
        s with
        attempts = s.attempts + l.attempts;
        retries = s.retries + l.retries;
        timeouts = s.timeouts + l.timeouts;
        nan_readings = s.nan_readings + l.nan_readings;
        outliers_rejected = s.outliers_rejected + l.outliers_rejected;
        backoff_us = s.backoff_us +. l.backoff_us;
        elapsed_us = s.elapsed_us +. l.elapsed_us;
      }
  in
  (* Measure a batch in batch order, skipping configs already attempted
     (earlier in this batch or before).  A journal hit folds as a replay; a
     live config is measured, journalled and folded.  A failed config does
     not abort the batch: its siblings' results still fold in.  The deadline
     gate is read once per batch: replays charge no virtual time, so this is
     the clock the first live measurement would see, and a batch is either
     measured whole or skipped whole.  A skipped config is never sampled,
     never journalled, consumes no trial and stays unmarked, so a resumed
     run with a larger budget can still measure it. *)
  let measure_batch cfgs =
    let gate_open = !stats.elapsed_us < deadline_us in
    List.iter
      (fun cfg ->
        let key = Config.to_string cfg in
        if not (Hashtbl.mem measured key) then
          let compact = Config.to_compact cfg in
          match Hashtbl.find_opt journal_tbl compact with
          | Some outcome -> begin
            Hashtbl.add measured key ();
            incr trials;
            stats := { !stats with replayed = !stats.replayed + 1 };
            match outcome with
            | Tune_journal.Measured runtime -> record cfg runtime
            | Tune_journal.Failed reason ->
              record_failure cfg (Gpu_sim.Measure.Launch_failure reason)
          end
          | None when gate_open -> begin
            Hashtbl.add measured key ();
            let res, attempt_log =
              measure_config_robust ~seed ?policy:measure_policy ~faults arch spec cfg
            in
            incr trials;
            absorb attempt_log;
            match res with
            | Ok runtime ->
              journal_append compact (Tune_journal.Measured runtime);
              record cfg runtime
            | Error failure ->
              journal_append compact
                (Tune_journal.Failed (Gpu_sim.Measure.failure_to_string failure));
              record_failure cfg failure
          end
          | None -> ())
      cfgs
  in
  (* Round 0: the optimality-guided default plus random exploration. *)
  measure_batch
    (Search_space.default_config space
    :: List.init
         (max 0 (min batch_size max_measurements - 1))
         (fun _ -> Search_space.sample space rng));
  let stale = ref 0 in
  while
    !stale < patience && !trials < max_measurements
    && (not (tripped ()))
    && not (deadline_hit ())
  do
    let best_before = match !best with Some (_, r) -> r | None -> infinity in
    Cost_model.retrain ~rng model;
    let starts =
      List.map fst !leaders @ List.init 2 (fun _ -> Search_space.sample space rng)
    in
    let candidates =
      Explorer.explore
        ~avoid:(fun c -> Hashtbl.mem failed_keys (Config.to_string c))
        ~space ~model ~rng ~starts ()
    in
    let fresh =
      List.filter (fun c -> not (Hashtbl.mem measured (Config.to_string c))) candidates
    in
    let room = min batch_size (max_measurements - !trials) in
    (* Epsilon-greedy batch make-up: a couple of slots per batch go to
       uniform random samples so one misleading model fit cannot lock the
       search into a basin for the rest of the budget. *)
    let n_random = if room >= 4 then 2 else 0 in
    let exploit = List.filteri (fun i _ -> i < room - n_random) fresh in
    let explore_ = List.init n_random (fun _ -> Search_space.sample space rng) in
    let batch = exploit @ explore_ in
    (if batch = [] then begin
       if !trials < max_measurements then measure_batch [ Search_space.sample space rng ]
     end
     else measure_batch batch);
    let best_after = match !best with Some (_, r) -> r | None -> infinity in
    if best_after < best_before *. 0.999 then stale := 0 else incr stale
  done;
  (* Stop classification, most specific first: a tripped breaker or an
     expired deadline explains the exit even when the trial budget also ran
     out on the same round. *)
  let stop =
    if tripped () then Breaker_tripped !consec_failures
    else if deadline_hit () then Deadline_reached
    else if !trials >= max_measurements then Trial_budget
    else Converged
  in
  match !best with
  | None -> Error { stop; faults = !stats }
  | Some (cfg, runtime) ->
    let history = List.rev !history in
    Ok
      {
        best_config = cfg;
        best_runtime_us = runtime;
        best_gflops = nominal_gflops spec ~runtime_us:runtime;
        measurements = !count;
        converged_at = convergence_point ~final:runtime history;
        history;
        space_size = Search_space.size space;
        faults = !stats;
        stop;
      }

let tune ?seed ?batch_size ?patience ?max_measurements ?faults ?measure_policy ?journal
    ?deadline_us ?max_consecutive_failures ~space () =
  match
    tune_outcome ?seed ?batch_size ?patience ?max_measurements ?faults ?measure_policy
      ?journal ?deadline_us ?max_consecutive_failures ~space ()
  with
  | Ok result -> result
  | Error _ -> failwith "Tuner.tune: nothing measured"
