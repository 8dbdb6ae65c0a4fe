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

val fit_hist :
  ?domains:int ->
  ?leaf_out:float array ->
  params ->
  Dataset.binned ->
  grad:float array ->
  hess:float array ->
  t
(** Histogram split finding over a quantised {!Dataset.binned} view: per-node
    per-(feature, bin) gradient/hessian sums are accumulated in O(samples x
    features), bins are scanned for the best cut, and each level's larger
    child derives its histogram by subtracting the (freshly accumulated)
    smaller sibling's from the parent's.  Gain/leaf formulas, the
    [gain > 0] requirement and all tie-breaking match {!fit}; candidate
    thresholds are the fixed bin cuts, so on features with more distinct
    values than bins the split is an approximation of the exact one.  With
    [domains > 1] (default 1) histogram accumulation and the subtrees of
    nodes of at least 128 samples fan out over [Pool.default]; the result is
    bit-identical at every [domains] count.

    When [leaf_out] (length = sample count) is given, slot [i] is set to the
    weight of the leaf sample [i] lands in — bit-identical to
    [predict (fit_hist ...) x_i], since bin routing and threshold routing
    agree — letting callers skip a per-sample tree walk. *)

val predict : t -> float array -> float

val to_compact : t -> string
(** Single-line preorder serialization with hex-float ("%h") values: the
    round-trip through {!of_compact} reproduces the tree exactly, so a
    restored tree's predictions are bit-identical to the fitted one's.  The
    encoding contains no spaces beyond token separators and no tabs or
    newlines. *)

val of_compact : string -> t option
(** [None] on malformed input, non-finite values, negative feature indices,
    or trailing tokens (reject whole trees, never half-parse). *)

val num_leaves : t -> int
val depth : t -> int
