(** Gradient-boosted regression (squared error), the repository's stand-in
    for XGBoost in the auto-tuning cost model (Section 6.1).

    Training minimises squared error by fitting [rounds] trees to the
    residual gradients ([grad = prediction - target], [hess = 1]) with
    shrinkage [learning_rate], starting from the mean target.

    Multicore: [train] and [predict_many] fan work out over [Pool.default]
    when [domains > 1] — histogram accumulation and subtree builds inside
    [Tree.fit_hist], the per-round prediction-update loop, and batch
    prediction.  The exact path's [Tree.fit] builds sequentially.
    Boosting itself stays sequential (round [k+1] needs round [k]'s
    residuals), and every parallel stage writes disjoint slots and combines
    in a fixed order, so the trained model and all predictions are
    bit-identical for every domain count. *)

type split_method =
  | Exact
      (** [Tree.fit]: sorts once per [train] call, then splits each tree's
          nodes in place, scanning every sample of a node per feature *)
  | Hist  (** quantised histogram bins, [Tree.fit_hist] *)

val split_method_tag : split_method -> string
(** Stable lowercase tag ("exact" / "hist") used in checkpoint framing and
    benchmark output. *)

val split_method_of_tag : string -> split_method option
(** Inverse of {!split_method_tag}; [None] on anything else. *)

type params = {
  rounds : int;
  learning_rate : float;
  tree : Tree.params;
  subsample : float;  (** row subsampling fraction per round, in (0, 1] *)
  split_method : split_method;
  max_bins : int;  (** histogram bins per feature, only read under [Hist] *)
}

val default_params : params
(** 60 rounds, learning rate 0.15, default trees, no subsampling, [Exact]
    splits (bit-compatible with pre-histogram behaviour), 256 bins. *)

val hist_params : params
(** {!default_params} with [split_method = Hist]. *)

type t

val train : ?rng:Util.Rng.t -> ?domains:int -> params -> Dataset.t -> t
(** Raises [Invalid_argument] on an empty dataset.  [rng] is only consulted
    when [subsample < 1].  [domains] defaults to
    [Parallel.recommended_domains ()]. *)

val predict : t -> float array -> float

val predict_many : ?domains:int -> t -> float array array -> float array

val to_compact : t -> string
(** Single-line (tab-separated) snapshot of a trained booster, with every
    float in hex ("%h") notation.  {!of_compact} restores a model whose
    [predict] is bit-identical to the original's on every input — the
    contract that lets a resumed tuning run load a checkpointed cost model
    instead of retraining, without leaving the uninterrupted run's
    trajectory.  Contains no newlines. *)

val of_compact : string -> t option
(** [None] on malformed input, a tree-count mismatch, or any tree that
    fails [Tree.of_compact] — a damaged snapshot is rejected whole, never
    half-restored. *)

val train_rmse : t -> Dataset.t -> float
(** Root mean squared error on a dataset (typically the training set). *)

val num_trees : t -> int
(** O(1): the trees are stored in an array. *)
