(** Measurement oracle: modelled runtime plus deterministic pseudo-noise,
    and the robust retry/aggregation harness wrapped around it.

    Real auto-tuners learn from noisy hardware timers.  To keep experiments
    reproducible the simulator derives its "noise" from a hash of the kernel
    descriptor and a seed, giving every configuration a stable but irregular
    perturbation (default +/-3%) plus run-to-run jitter when [repeat > 1]
    measurements are averaged, mimicking how TVM-style tuners measure.

    The {!robust} harness is the fault-tolerant entry point: it pulls raw
    samples from a caller-supplied sampler (see [Faults] for the injecting
    one), retries transient faults with exponential backoff, enforces a
    per-measurement deadline in virtual microseconds, and aggregates valid
    samples with outlier rejection.  It is deliberately parameterised by the
    sampler rather than a fault profile so the dependency points from
    [Faults] to [Measure], not the other way around. *)

val hash_kernel : Kernel_cost.kernel -> int
(** Order-sensitive structural hash of the descriptor. *)

val sample_us :
  ?noise_amplitude:float -> ?seed:int -> stream:int -> Arch.t ->
  Kernel_cost.kernel -> float
(** One noisy sample on an explicit noise [stream] (deterministic in [seed],
    [stream] and the kernel).  [runtime_us] is [sample_us ~stream:0]. *)

val runtime_us :
  ?noise_amplitude:float -> ?seed:int -> Arch.t -> Kernel_cost.kernel -> float
(** One noisy "measurement" (deterministic in [seed] and the kernel). *)

val runtime_avg_us :
  ?noise_amplitude:float -> ?seed:int -> ?repeat:int -> Arch.t -> Kernel_cost.kernel -> float
(** Plain average of [repeat] measurements with independent jitter (default
    3).  The legacy fault-free path: no retries, no outlier rejection. *)

(** {1 Robust measurement} *)

type fault =
  | Timeout of float
      (** Transient: the kernel ran past the watchdog; the payload is the
          virtual time the aborted attempt cost. *)
  | Launch_failed of string
      (** Persistent: the launch was rejected (over-capacity config); the
          harness fails immediately instead of retrying. *)

type failure =
  | Launch_failure of string
  | Deadline_exceeded of { attempts : int }
      (** Deadline passed before any valid sample arrived. *)
  | No_valid_sample of { attempts : int }
      (** Retry budget exhausted with every attempt faulting. *)

val failure_to_string : failure -> string

type aggregate =
  | Median
  | Trimmed_mean of float  (** fraction trimmed from each end, in \[0, 0.5) *)

type policy = {
  repeat : int;  (** valid samples wanted per measurement *)
  max_retries : int;  (** extra attempts allowed beyond [repeat] *)
  backoff_base_us : float;  (** first backoff delay *)
  backoff_factor : float;  (** delay multiplier per retry *)
  backoff_max_us : float;  (** backoff cap *)
  deadline_us : float;  (** virtual-time budget for the whole measurement *)
  outlier_k : float;  (** drop samples above [k * median] *)
  aggregate : aggregate;
}

val default_policy : policy
(** 3 samples, 4 retries, 50us backoff doubling to a 800us cap, 1s deadline,
    4x-median outlier rejection, median aggregation. *)

type attempt_log = {
  attempts : int;  (** sampler invocations *)
  retries : int;  (** backoff delays taken (= timeouts + nan_readings) *)
  timeouts : int;
  nan_readings : int;  (** non-finite or non-positive readings discarded *)
  outliers_rejected : int;
  backoff_us : float;  (** total virtual backoff charged *)
  elapsed_us : float;  (** total virtual time consumed *)
}

val no_attempts : attempt_log
(** The all-zero log, for measurements rejected before any attempt. *)

val robust :
  ?policy:policy ->
  sample:(attempt:int -> (float, fault) result) ->
  unit ->
  (float, failure) result * attempt_log
(** [robust ~sample ()] collects up to [policy.repeat] valid samples by
    calling [sample ~attempt] with increasing attempt indices.  Transient
    faults ([Timeout], NaN/non-finite readings) cost their virtual time plus
    an exponential backoff delay and are retried while attempts and deadline
    remain; [Launch_failed] aborts immediately.  If the deadline passes with
    some valid samples in hand, they are aggregated anyway (graceful
    degradation).  Valid samples above [outlier_k * median] are rejected
    before the final median / trimmed-mean.  Deterministic: no wall clock,
    no hidden randomness — everything derives from the sampler.

    Deadline edge cases are pinned down: [deadline_us <= 0] returns
    [Deadline_exceeded {attempts = 0}] without ever invoking the sampler
    (an expired budget admits no free attempt), and a deadline landing
    exactly on an attempt boundary — including the boundary where the
    attempt budget runs out at the same moment — classifies by the clock
    as [Deadline_exceeded], never as [No_valid_sample]. *)
