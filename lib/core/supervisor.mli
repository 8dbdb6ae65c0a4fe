(** Run-level supervision for whole-model tuning.

    A model-timing run launches one tuning task per (layer shape, algorithm);
    each task can fail in many subsystem-specific ways — a configuration
    outside the domain, a rejected kernel launch, a measurement harness
    giving up, a corrupted journal, a crashed worker pool.  This module is
    the one place that understands all of them:

    - the {!cause} taxonomy unifies the subsystems' typed errors;
    - {!tune_task} wraps [Tuner.tune_outcome] with a per-task circuit
      breaker and a fair share of the session's global virtual-time budget;
    - a task whose breaker trips or whose budget expires degrades to the
      best *analytic* configuration ({!analytic_best}) instead of failing or
      reporting an infinite runtime, tagged [Degraded] so nothing is hidden;
    - {!report} renders the whole run's health: per-task outcomes,
      aggregated fault statistics, budget accounting, pool state.

    Supervision never changes what a healthy run computes: with no faults
    injected and an unbounded budget, a supervised run returns results
    bit-identical to the unsupervised engine (the chaos suite asserts it). *)

(** {1 Cause taxonomy} *)

type cause =
  | Invalid_config of Search_space.invalid
  | Launch_rejected of Gpu_sim.Kernel_cost.launch_error
  | Measurement of Gpu_sim.Measure.failure
  | Storage_corruption of { dropped : int }  (** durable-file salvage losses *)
  | Pool_degraded of { restarts : int }  (** watchdog budget exhausted *)
  | Empty_domain of string  (** [Search_space.make] found no valid config *)

val cause_to_string : cause -> string

(** {1 Outcomes} *)

type degrade_reason =
  | Breaker_open of { consecutive : int; last : cause option }
      (** [breaker_k] consecutive measurement failures (or a whole trial
          budget spent without one success); [last] names the final straw *)
  | Budget_exhausted of { share_us : float }
      (** the task's fair share of the global budget ran out first *)

val degrade_reason_to_string : degrade_reason -> string

type outcome =
  | Tuned of Tuner.result  (** measured search completed normally *)
  | Replayed of Tuner.result
      (** satisfied without live measurement: every trial came from a
          journal, or the memo cache already held the result *)
  | Degraded of {
      reason : degrade_reason;
      config : Config.t;  (** measured best if any, else analytic best *)
      runtime_us : float;
      faults : Tuner.fault_stats;
    }
  | Failed of cause
      (** nothing usable — the caller should fall back (e.g. to library
          timing); only domain construction failures end up here *)

val outcome_label : outcome -> string
(** ["tuned" | "replayed" | "degraded" | "failed"]. *)

val outcome_runtime_us : outcome -> float option
(** The runtime a caller should use; [None] only for [Failed]. *)

val outcome_faults : outcome -> Tuner.fault_stats

(** {1 Policy and budget} *)

type policy = {
  breaker_k : int;
      (** trip the circuit breaker after this many consecutive measurement
          failures; [<= 0] disables it *)
  budget_us : float;
      (** global virtual-time budget shared by the session's tasks
          ([infinity] = unbounded) *)
  analytic_candidates : int;
      (** how many Q-ranked tile triples {!analytic_best} prices *)
}

val default_policy : policy
(** Breaker after 5 consecutive failures, unbounded budget, 64 analytic
    candidates. *)

(** Fair-share accounting over virtual microseconds.  Each task's share is
    [remaining / tasks_left] at the moment it begins, so tasks that finish
    under budget — or cost nothing because they replay or hit a cache —
    donate their surplus to the tasks still queued. *)
module Budget : sig
  type t

  val create : total_us:float -> tasks:int -> t
  val begin_task : t -> float
  (** Fair share for the task about to start; decrements [tasks_left]. *)

  val charge : t -> float -> unit
  (** Record spending (non-finite and non-positive amounts are ignored). *)

  val total_us : t -> float
  val spent_us : t -> float
  val remaining_us : t -> float
end

(** {1 Analytic degradation} *)

val analytic_best : ?candidates:int -> Search_space.t -> Config.t * float
(** The best configuration nameable without a single measurement: tile
    triples ranked by the dataflow communication volume Q (Section 5), the
    top [candidates] lowered via [Search_space.config_for_tile] and ranked
    by the noise-free analytic kernel runtime.  The returned configuration
    always satisfies [Search_space.validate] — hence also the per-block
    shared-memory budget, which [Gpu_sim.Faults.block_budget_bytes] computes
    with the same formula — so it is launchable even on a backend whose
    measurements have stopped answering.  Deterministic: depends only on
    the space. *)

(** {1 Sessions} *)

type session

val create : ?policy:policy -> tasks:int -> unit -> session
(** A supervision session expecting [tasks] tuning tasks (the count seeds
    fair-share budgeting; running more tasks than announced is allowed and
    grants each straggler everything that remains). *)

val policy : session -> policy
val budget_remaining_us : session -> float

val tune_task :
  session ->
  key:string ->
  ?seed:int ->
  ?batch_size:int ->
  ?patience:int ->
  ?max_measurements:int ->
  ?domains:int ->
  ?faults:Gpu_sim.Faults.profile ->
  ?measure_policy:Gpu_sim.Measure.policy ->
  ?journal:string ->
  space:Search_space.t ->
  unit ->
  outcome
(** One supervised tuning run: [Tuner.tune_outcome] with
    [deadline_us = Budget.begin_task] (this task's fair share) and
    [max_consecutive_failures = policy.breaker_k].  The spent virtual time
    is charged to the session budget whatever the outcome.  A run that
    stops with a measured best is [Tuned] ([Degraded] when the breaker cut
    it short — the best is kept, the reason tagged); a run satisfied
    entirely from its journal is [Replayed]; a run with no success at all
    degrades to {!analytic_best}.  Tuning parameters have [Tuner.tune]'s
    defaults. *)

val record_cached : session -> key:string -> Tuner.result -> outcome
(** Account for a task satisfied from a memo cache: consumes (and donates
    back) a budget share, records a [Replayed] outcome, charges nothing. *)

val record_failed : session -> key:string -> cause -> outcome
(** Account for a task that could not even start (e.g. [Empty_domain]). *)

(** {1 Health reports} *)

type task_report = {
  key : string;
  outcome : outcome;
  share_us : float;  (** fair share granted when the task began *)
  spent_us : float;  (** virtual time actually charged *)
}

type report = {
  policy : policy;
  tasks : task_report list;  (** completion order *)
  budget_total_us : float;
  budget_spent_us : float;
  faults : Tuner.fault_stats;  (** aggregated over all tasks *)
  pool_restarts : int;  (** worker crashes recovered during the session *)
  pool_degraded : bool;  (** [Util.Pool.is_degraded] of the shared pool *)
}

val report : session -> report
(** Snapshot of the session so far (cheap; callable at any point). *)

val report_to_string : report -> string
(** Multi-line human-readable rendering for the CLI's [--chaos] mode. *)
