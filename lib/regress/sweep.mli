(** The cross-architecture fleet sweep behind [conv-io gold] and
    [conv-io regress].

    One sweep unit is a (model, architecture) pair: every layer of the model
    is timed through [Cnn.Runner.time_model] — tuned direct and Winograd
    dataflows versus the simulated vendor library — and distilled into the
    {!Gold.layer_record}s a golden file holds: best configuration, measured
    and analytically-predicted runtime, library baseline, Q-bound ratio and
    stop reason.

    Warm layer: a [Service.Result_cache] passed to {!run_pair} goes straight
    to the runner, which answers memo misses from it and writes live tunes
    back, so [gold] leaves behind a cache that makes the next [regress]
    warm.  Records whose result the runner reports as read from the cache
    carry [stop = "replayed"]. *)

type settings = {
  seed : int;
  budget : int;  (** measurement budget per tuning run *)
  backend : Cnn.Runner.backend;
}

val default_settings : settings
(** seed 0, budget 120 measurements, cuDNN backend — the fleet contract;
    golden files embed these in their meta record. *)

val backend_token : Cnn.Runner.backend -> string
(** ["cudnn"] / ["miopen"]. *)

val generation : settings -> string
(** The [Service.Result_cache] generation string for these settings —
    changing any setting invalidates the warm layer instead of replaying
    results measured under a different contract. *)

val fleet_models : unit -> Cnn.Models.t list
(** The evaluation networks plus MobileNet-v1 — the models the fleet
    covers. *)

val fleet_arches : unit -> Gpu_sim.Arch.t list
(** [Gpu_sim.Arch.all]: 1080ti, v100, titanx, gfx906. *)

type pair = {
  model : Cnn.Models.t;
  arch : Gpu_sim.Arch.t;
  gold : Gold.file;  (** the records to write (gold) or diff (regress) *)
  timing : Cnn.Runner.model_timing;
  wall_s : float;  (** host wall-clock spent sweeping this pair *)
  live : int;  (** candidate keys tuned live during this pair *)
  warm : int;  (** candidate keys answered from memo or result cache *)
}

val run_pair :
  ?cache:Service.Result_cache.t -> settings:settings -> Gpu_sim.Arch.t ->
  Cnn.Models.t -> pair
(** Sweeps one pair, passing [cache] to the runner.  The cache's generation
    should be {!generation}[ settings].  Within one process, keys already
    memoised by earlier pairs (repeated shapes across models) count as
    [warm]. *)

val summary_table : pair list -> Util.Table.t
(** Model / arch / layers / live / warm / ours / library / speedup / wall —
    the fleet report printed by both harness modes and the model zoo. *)
