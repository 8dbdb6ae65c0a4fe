(** End-to-end CNN inference timing (Figure 12's experiment).

    For each distinct layer shape the runner times two implementations on the
    simulated GPU:

    - the vendor library's best kernel (best of cuDNN's direct family, plus
      its Winograd pipeline when the layer is eligible);
    - the paper's approach: the auto-tuning engine run over the pruned
      domain, for the direct dataflow and — when eligible — the Winograd
      dataflow, keeping the faster.

    Model time is the count-weighted sum over layers.

    Tuning results live in one process-wide memo, keyed by the tune's
    [Service.Resolver.identity]: the domain's content key plus seed, trial
    budget and fault profile.  Repeated shapes across and within models
    therefore tune once.  The memo's only durable backing is a
    [Service.Result_cache] passed as [cache]: a memo miss reads the cache
    before tuning, and a live tune is put back (audited, on an audited
    cache).

    Every tune goes through [Service.Resolver.tune], as the daemon's do,
    inside a [Core.Supervisor] session: the model's under {!time_model}'s
    [supervise], else a private one with no circuit breaker and an
    unbounded budget — the plain tuner's defaults, so a successful answer
    is [Core.Tuner.tune]'s bit for bit.  A tune with no successful trial
    degrades to an analytic configuration instead of raising; a degraded
    result is memoised, never cached. *)

type backend = Cudnn | Miopen

type layer_timing = {
  layer : Layer.t;
  ours_us : float;  (** per single execution of the layer *)
  ours_algorithm : string;
  ours_result : Core.Tuner.result option;
      (** the winning algorithm's memoised tuning result — best
          configuration, measured runtime, stop reason — for harnesses
          (the golden-file sweep) that need more than the headline time.
          [None] when the layer fell back to the library kernel. *)
  ours_replayed : bool;
      (** [ours_result] was served from the result cache (by this call or
          an earlier one) rather than tuned in this process: its [stop] is
          a placeholder, since the search history did not survive. *)
  live : int;
      (** candidate tuning runs this call performed; memo and cache hits
          cost none *)
  library_us : float;
  library_algorithm : string;
}

type model_timing = {
  model : string;
  layers : layer_timing list;
  ours_total_us : float;  (** count-weighted *)
  library_total_us : float;
  speedup : float;  (** library / ours *)
  health : Core.Supervisor.report option;
      (** run health when timed under supervision ([supervise] passed to
          {!time_model}): per-task outcomes, fault statistics, budget
          accounting.  [None] for unsupervised runs. *)
}

val clear_cache : unit -> unit
(** Drops the memo (tests use this for isolation; a result cache passed as
    [cache] is untouched). *)

val candidates : Layer.t -> Core.Config.algorithm list
(** The algorithm variants {!time_layer} tunes for a layer: the direct
    dataflow always, plus the Winograd dataflow at the layer's tile
    parameter when eligible. *)

val time_layer :
  ?cache:Service.Result_cache.t ->
  ?seed:int -> ?max_measurements:int -> ?backend:backend ->
  ?faults:Gpu_sim.Faults.profile -> ?journal_dir:string ->
  Gpu_sim.Arch.t -> Layer.t -> layer_timing
(** Defaults: no result cache, seed 0, 200 measurements per tuning run,
    cuDNN backend, no injected faults, no journal.

    With [cache], a memo miss is answered from the cache when it holds the
    key (free, and marked [ours_replayed]); otherwise the candidate is
    tuned and a tuned or replayed result is put in the cache, priced by
    [Verify.Audit.predicted_us].  The cache is looked up by content key
    alone, so its generation must name the seed, budget and fault profile
    the call uses.

    A layer with no usable candidate at all (every domain empty) reports
    the library kernel as its own ([ours_algorithm =
    "library-fallback:..."]) instead of raising. *)

val time_model :
  ?cache:Service.Result_cache.t ->
  ?seed:int -> ?max_measurements:int -> ?backend:backend ->
  ?faults:Gpu_sim.Faults.profile -> ?journal_dir:string ->
  ?supervise:Core.Supervisor.policy ->
  Gpu_sim.Arch.t -> Models.t -> model_timing
(** {!time_layer} over every layer.  [supervise] times the model under a
    fresh supervision session with that policy — one budgeted task per
    (layer shape, algorithm) candidate, memo and cache hits recorded as
    free replays — and fills [health].  Absent faults and with an unbounded
    budget the layer timings are identical to the unsupervised run's. *)

val tuned_runtime :
  ?seed:int -> ?max_measurements:int ->
  ?faults:Gpu_sim.Faults.profile -> ?journal_dir:string ->
  Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Core.Config.algorithm -> Core.Tuner.result
(** One candidate through the memo, without a result cache; exposed for
    the benches so figures reuse the same memo.  [faults] injects
    measurement faults; [journal_dir] makes each tuning run journal-backed
    (one file per memo key under the directory), so a killed model-timing
    run resumes its in-flight layer instead of re-measuring it from
    scratch.  Raises [Invalid_argument] when the domain is empty. *)
