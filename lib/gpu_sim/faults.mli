(** Deterministic, seed-driven fault injection over the measurement oracle.

    Real tuning services see kernels that time out under the watchdog,
    launches rejected for over-subscribed resources, wildly outlying timer
    samples and outright garbage (NaN) readings.  This module reproduces all
    four against the analytic oracle, governed by a {!profile}, with every
    fault decision derived from (kernel hash, seed, profile seed, attempt) —
    never from global state, ordering or the wall clock.  The same config
    therefore faults identically whichever domain measures it, preserving
    the engine's bit-identical-at-any-domain-count contract under faults. *)

type profile = {
  timeout_rate : float;  (** per-attempt probability of a watchdog timeout *)
  timeout_cost_us : float;  (** virtual time an aborted attempt charges *)
  launch_shmem_frac : float;
      (** kernels whose shared memory exceeds this fraction of the per-block
          budget fail every launch (persistent fault); [infinity] disables *)
  outlier_rate : float;  (** per-attempt probability of a 10-100x outlier *)
  outlier_scale_min : float;
  outlier_scale_max : float;  (** outlier scale range, log-uniform *)
  nan_rate : float;  (** per-attempt probability of a NaN reading *)
  fault_seed : int;  (** decorrelates fault draws from measurement noise *)
}

val none : profile
(** All rates zero: {!sample} reduces to exactly [Measure.sample_us]. *)

val default : profile
(** A representative flaky backend: 6% timeouts (2ms each), launch failures
    above 92% of the shared-memory budget, 5% outliers scaled x10-100
    log-uniformly, 3% NaN readings. *)

val is_none : profile -> bool

val to_string : profile -> string
(** One-line summary for logs and bench output. *)

val key : profile option -> string
(** An exact rendering (hex floats, every field) for keys that name a
    tune: distinct for any two profiles that differ anywhere; ["none"] for
    no profile. *)

val block_budget_bytes : Arch.t -> int
(** The per-block shared-memory budget the injector (and [Search_space])
    measure against: [min (shared_mem_per_sm / 2) max_shared_mem_per_block]. *)

val sample :
  profile -> seed:int -> attempt:int -> Arch.t -> Kernel_cost.kernel ->
  (float, Measure.fault) result
(** One possibly-faulted sample.  Non-faulted attempts return the oracle's
    sample on noise stream [attempt]; NaN faults surface as [Ok nan] (the
    robust harness classifies them), outliers as a scaled [Ok]. *)

val sampler :
  profile -> seed:int -> Arch.t -> Kernel_cost.kernel ->
  attempt:int -> (float, Measure.fault) result
(** {!sample} curried into the shape [Measure.robust] expects. *)

val measure :
  ?policy:Measure.policy -> profile -> seed:int -> Arch.t ->
  Kernel_cost.kernel -> (float, Measure.failure) result * Measure.attempt_log
(** [Measure.robust] driven by the injecting sampler: the full robust
    measurement of one kernel under the profile. *)
