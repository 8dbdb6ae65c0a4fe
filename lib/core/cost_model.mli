(** Learning-based cost model (Section 6.1's "Cost Model" component).

    Wraps the gradient-boosted trees of [Gbt] around configuration feature
    vectors.  Targets are log-runtimes (multiplicative errors matter for
    ranking kernels).  Until the first [retrain] the model is uninformative
    and predicts a constant, so the tuner's first round is effectively random
    — matching how TVM's tuner bootstraps. *)

type t

val create : Conv.Conv_spec.t -> t
(** An empty model; every {!retrain} uses [Gbt.Booster.default_params]. *)

val add_measurement : t -> Config.t -> float -> unit
(** [add_measurement m config runtime_us] appends a training sample.  Raises
    [Invalid_argument] on non-finite or non-positive runtimes. *)

val add_failure : t -> Config.t -> unit
(** Appends the configuration as a penalized "invalid" sample at
    {!failure_penalty_us}: failed measurements steer the model away from
    their region instead of aborting the tuning round. *)

val failure_penalty_us : float
(** The penalty runtime (1e7 us) recorded for failed configurations — far
    above any measurable kernel so the model ranks them last. *)

val retrain : ?rng:Util.Rng.t -> ?domains:int -> t -> unit
(** Refits the booster on everything measured so far; no-op when empty.
    [domains] is forwarded to [Gbt.Booster.train]; the refit model is
    bit-identical at every domain count. *)

val predict_runtime_us : t -> Config.t -> float
(** Predicted runtime; a large constant before any training. *)

val trained : t -> bool

val snapshot : t -> string option
(** [Gbt.Booster.to_compact] of the current booster; [None] before the
    first {!retrain}.  Every float prints in hex, so the string pins the
    fitted model bit for bit. *)
