(** Regression trees fitted to gradient/hessian statistics — the weak learner
    of the XGBoost-style booster.

    Split gain and leaf weights follow the XGBoost paper's second-order
    formulation with L2 regularisation [lambda] and a complexity penalty
    [gamma] per leaf:

    {v w* = -G / (H + lambda)
   gain = 1/2 (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)) - gamma v} *)

type params = {
  max_depth : int;
  min_samples : int;  (** do not split nodes smaller than this *)
  lambda : float;  (** L2 regularisation on leaf weights *)
  gamma : float;  (** minimum gain needed to make a split *)
}

val default_params : params
(** depth 6, min 2 samples, lambda 1.0, gamma 0.0. *)

type t

val fit : params -> Dataset.presorted -> grad:float array -> hess:float array -> t
(** Exact split finding: fits one tree to the per-sample gradient
    statistics.  Arrays must have the dataset's length.

    Starts from the {!Dataset.presorted} orders (sorted once per booster,
    not per tree) and never sorts again: each node owns one segment of a
    per-tree copy of every feature's order, and a split stable-partitions
    those segments in place, so the children inherit sorted orders without
    allocating.  Candidate thresholds are midpoints between distinct
    consecutive values.  Split candidates are folded in feature order and
    every floating-point sum runs in one fixed sequential order.  The build
    runs on the calling domain. *)

val predict : t -> float array -> float

val to_compact : t -> string
(** Single-line preorder serialization with hex-float ("%h") values: every
    threshold and leaf weight prints exactly, so the string (or its digest)
    pins the tree bit for bit.  The encoding contains no spaces beyond token
    separators and no tabs or newlines. *)

val num_leaves : t -> int
val depth : t -> int
