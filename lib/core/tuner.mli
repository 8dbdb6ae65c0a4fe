(** The auto-tuning engine (Section 6.3).

    Iterates Model Training -> Configuration Searching -> Dataset Updating:
    each round retrains the cost model on everything measured, asks the
    explorer for a batch of promising unmeasured configurations, "measures"
    them on the simulated GPU, and stops when the best runtime has not
    improved for [patience] rounds (or the measurement budget runs out).

    With [pruned = true] the search runs over the optimality-condition domain
    (the paper's ATE); with [pruned = false] over the full space, which is
    the TVM-style comparator used in Table 2 and Figure 11.

    Fault tolerance: measurements go through the robust harness
    ([Gpu_sim.Measure.robust]) under an optional fault profile
    ([Gpu_sim.Faults]).  Configurations whose measurement fails enter the
    cost model as penalized entries ([Cost_model.add_failure]), are excluded
    from future explorer proposals, and count against the measurement
    budget; the batch they belonged to proceeds with its surviving members.
    With [journal] set, every finished measurement is appended to an
    on-disk [Tune_journal] and replayed on restart, so an interrupted tune
    resumed with identical parameters reproduces the uninterrupted run's
    result exactly. *)

type progress = { measurement : int; best_runtime_us : float }

type fault_stats = {
  failed : int;  (** configurations whose measurement failed *)
  launch_failures : int;  (** failed with [Launch_failure] *)
  deadlines_exceeded : int;  (** failed with [Deadline_exceeded] *)
  attempts : int;  (** total sampler invocations across all measurements *)
  retries : int;  (** backoff retries taken (= timeouts + nan_readings) *)
  timeouts : int;
  nan_readings : int;
  outliers_rejected : int;
  backoff_us : float;  (** total virtual backoff time charged *)
  replayed : int;  (** measurements satisfied from the journal, not the oracle *)
  journal_dropped : int;
      (** records lost to corruption when recovering the journal (0 without
          a journal, or when it was clean) *)
  elapsed_us : float;
      (** total virtual time consumed by live measurements (sample runtimes,
          timeout costs and backoff delays) — what [deadline_us] budgets
          against; replayed trials are free *)
  pool_restarts : int;
      (** worker crashes recovered by the shared pool's watchdog during this
          run (0 unless hostile tasks crashed workers concurrently) *)
  last_failure : Gpu_sim.Measure.failure option;
      (** the most recent measurement failure, for supervisors classifying
          why a circuit breaker tripped *)
}
(** Counters are live-run accurate; replayed failures are folded in as
    launch failures (the journal stores only the reason string). *)

val no_faults : fault_stats
(** The all-zero statistics — what a fault-free, journal-free run reports
    (modulo [attempts], which counts successful samples too). *)

type stop_reason =
  | Converged  (** [patience] rounds without improvement *)
  | Trial_budget  (** [max_measurements] trials spent *)
  | Deadline_reached  (** virtual [deadline_us] budget exhausted *)
  | Breaker_tripped of int
      (** [max_consecutive_failures] hit; the payload is the consecutive
          failure count when the run stopped (checked at batch boundaries,
          so it can exceed the threshold by at most one batch) *)

val stop_reason_to_string : stop_reason -> string

type result = {
  best_config : Config.t;
  best_runtime_us : float;
  best_gflops : float;  (** nominal convolution flops over best runtime *)
  measurements : int;  (** configurations measured successfully *)
  converged_at : int;
      (** derived from the history via {!convergence_point}: the first
          measurement whose best-so-far is within 1% of the final best *)
  history : progress list;  (** best-so-far curve, oldest first *)
  space_size : float;
  faults : fault_stats;  (** failure/retry statistics for the whole run *)
  stop : stop_reason;  (** why the search loop exited *)
}

type tune_error = { stop : stop_reason; faults : fault_stats }
(** A tune that ended with no successful measurement at all: the deadline
    expired (or the breaker tripped, or the trial budget ran out) before
    any configuration measured successfully.  Carries the statistics so a
    supervisor can account for the spent budget and classify the cause. *)

val measure_config : ?seed:int -> Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Config.t -> float
(** One simulated measurement of a configuration (plain averaged oracle, no
    faults, no retries) — the legacy path used by library baselines. *)

val measure_config_robust :
  ?seed:int ->
  ?policy:Gpu_sim.Measure.policy ->
  ?faults:Gpu_sim.Faults.profile ->
  Gpu_sim.Arch.t ->
  Conv.Conv_spec.t ->
  Config.t ->
  (float, Gpu_sim.Measure.failure) Stdlib.result * Gpu_sim.Measure.attempt_log
(** One robust measurement: retry/backoff/deadline and outlier-rejecting
    aggregation per [policy] (default [Measure.default_policy]), faults
    injected per [faults] (default none).  A configuration that cannot
    lower to a launchable kernel returns [Launch_failure] instead of
    raising.  This is the path [tune] uses for every measurement. *)

val tune_outcome :
  ?seed:int ->
  ?batch_size:int ->
  ?patience:int ->
  ?max_measurements:int ->
  ?domains:int ->
  ?faults:Gpu_sim.Faults.profile ->
  ?measure_policy:Gpu_sim.Measure.policy ->
  ?journal:string ->
  ?deadline_us:float ->
  ?max_consecutive_failures:int ->
  space:Search_space.t ->
  unit ->
  (result, tune_error) Stdlib.result
(** Defaults: seed 0, batches of 16, patience 8 rounds, at most 600
    trials, [domains = Util.Parallel.recommended_domains ()], no injected
    faults, [Measure.default_policy], no journal, no deadline ([infinity]),
    no circuit breaker.  Every round refits the cost model
    ([Cost_model.retrain]) on everything measured so far.

    [max_measurements] bounds *trials* (successes plus failures), so a
    hostile fault profile cannot spin the loop beyond the budget.

    [deadline_us] bounds the *virtual time* spent on live measurements
    (the sum of sample runtimes, timeout costs and backoff delays — see
    [faults.elapsed_us]).  The budget is enforced cooperatively at batch
    and task boundaries: once spent, remaining tasks in the in-flight
    batch are skipped ([Util.Pool.run_all_deadline]) and the loop stops,
    so a run can overshoot by at most the cost of already-started tasks.
    Skipped configurations consume no trials and are not journalled.
    Journal replays charge no virtual time, so a resumed run never
    re-pays for work already banked on disk.  The gate clock only
    advances in the sequential fold between batches, so skipping is
    all-or-nothing per batch and the result stays bit-identical at any
    [domains] value.

    [max_consecutive_failures] is a circuit breaker: after that many
    measurement failures in a row (successes reset the count; checked at
    batch boundaries) the loop stops with [Breaker_tripped] instead of
    burning the rest of its budget on a backend that has stopped
    answering.

    Returns [Error] only when the run stopped with no successful
    measurement at all; otherwise [Ok result] with [result.stop] saying
    why the loop exited.

    [journal] names an append-only [Tune_journal] file.  Outcomes found
    there are replayed instead of re-measured; every live measurement is
    appended as soon as it folds in.  Re-running an interrupted tune with
    the same parameters and journal path resumes it and returns a result
    identical to the uninterrupted run (fault counters differ only in
    [replayed] and live-attempt statistics): replayed rounds retrain the
    cost model on the replayed measurements, and training is deterministic.
    The journal is a durable file ([Util.Durable]): on resume it is salvaged
    to its longest valid prefix and repaired in place, so a kill *during* a
    write — a torn line, a truncation, even a flipped bit — costs at most
    the damaged suffix (re-measured live, reproducing the same values) and
    is reported in [result.faults.journal_dropped], never silently dropped.

    Multicore: each round's explorer walks, the cost-model refit and the
    batch of simulated measurements fan out over [Util.Pool.default], while
    all stochastic draws and result folding stay sequential — for a fixed
    [seed] the result (best config, history, measurement count) is
    bit-identical at every [domains] value, under any fault profile
    (injection is a pure function of config, seed and attempt, never of
    scheduling). *)

val tune :
  ?seed:int ->
  ?batch_size:int ->
  ?patience:int ->
  ?max_measurements:int ->
  ?domains:int ->
  ?faults:Gpu_sim.Faults.profile ->
  ?measure_policy:Gpu_sim.Measure.policy ->
  ?journal:string ->
  ?deadline_us:float ->
  ?max_consecutive_failures:int ->
  space:Search_space.t ->
  unit ->
  result
(** [tune_outcome] for callers that expect at least one measurement to
    succeed: unwraps [Ok] and raises [Failure] on [Error].  The historical
    entry point — supervised runs should prefer [tune_outcome]. *)

val convergence_point : final:float -> progress list -> int
(** First measurement (oldest-first history) whose best-so-far runtime is
    within 1% of [final]; 1 when the history is empty.  [result.converged_at]
    is defined as [convergence_point ~final:best_runtime_us history]. *)

val nominal_gflops : Conv.Conv_spec.t -> runtime_us:float -> float
(** The GFlops metric of Table 2/Figure 11: the layer's direct-convolution
    flop count divided by runtime (so faster Winograd kernels report higher
    effective rates, as TVM does). *)
