(** Gradient-boosted regression (squared error), the repository's stand-in
    for XGBoost in the auto-tuning cost model (Section 6.1).

    Training minimises squared error by fitting [rounds] trees to the
    residual gradients ([grad = prediction - target], [hess = 1]) with
    shrinkage [learning_rate], starting from the mean target.  Every tree
    uses exact split finding ([Tree.fit]) over one presort per [train]
    call.

    Multicore: [train] fans the per-round prediction-update loop out over
    [Pool.default] when [domains > 1]; each tree builds sequentially.
    Boosting itself stays sequential (round [k+1] needs round [k]'s
    residuals), and the update writes disjoint slots, so the trained model
    is bit-identical for every domain count. *)

type params = {
  rounds : int;
  learning_rate : float;
  tree : Tree.params;
  subsample : float;  (** row subsampling fraction per round, in (0, 1] *)
}

val default_params : params
(** 60 rounds, learning rate 0.15, default trees, no subsampling. *)

type t

val train : ?rng:Util.Rng.t -> ?domains:int -> params -> Dataset.t -> t
(** Raises [Invalid_argument] on an empty dataset.  [rng] is only consulted
    when [subsample < 1].  [domains] defaults to
    [Parallel.recommended_domains ()]. *)

val predict : t -> float array -> float

val to_compact : t -> string
(** Single-line (tab-separated) dump of a trained booster, with every float
    in hex ("%h") notation, so the string (or its digest) pins the model bit
    for bit.  Contains no newlines. *)

val train_rmse : t -> Dataset.t -> float
(** Root mean squared error on a dataset (typically the training set). *)

val num_trees : t -> int
(** O(1): the trees are stored in an array. *)
