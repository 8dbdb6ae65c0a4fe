(** Feature-vector datasets for the gradient-boosted cost model.

    A dataset is a growable collection of (features, target) pairs with a
    fixed feature arity.  The auto-tuner appends a sample every time it
    measures a configuration, then retrains the booster on the whole set. *)

type t

val create : n_features:int -> t

val add : t -> float array -> float -> unit
(** Raises [Invalid_argument] on an arity mismatch. *)

val length : t -> int
val n_features : t -> int

val features : t -> int -> float array
(** Row accessor (not a copy; do not mutate). *)

val target : t -> int -> float

val targets : t -> float array
(** All targets, fresh copy. *)

val fold : t -> init:'a -> ('a -> float array -> float -> 'a) -> 'a

(** {2 Presorted view}

    Exact split finding ([Tree.fit]) scans each node's samples in every
    feature's value order.  The booster sorts once per [train] call; every
    round's tree then starts from the same orders. *)

type presorted

val presort : t -> presorted
(** Snapshot of the dataset as feature-major value columns plus, per
    feature, every sample index sorted by (value, index) — ties broken by
    index, so each order is unique. *)

val presorted_length : presorted -> int
val presorted_n_features : presorted -> int

val column : presorted -> int -> float array
(** [column p f]: feature [f]'s value of every sample, by sample index.
    Shared, treat as read-only. *)

val sorted_order : presorted -> int -> int array
(** [sorted_order p f]: the sample indices sorted by (feature [f]'s value,
    index).  Shared, treat as read-only. *)

(** {2 Binned view}

    Histogram split finding ([Tree.fit_hist]) quantises every feature into at
    most [max_bins] bins, once per booster, and then works on small per-bin
    statistics instead of sorted sample orders.  The bin matrix is
    feature-major (one contiguous Bigarray row per feature) so the per-node
    accumulation loop streams it linearly. *)

type binned

val max_supported_bins : int
(** 256 — bin indices are stored as unsigned bytes. *)

val bin : ?max_bins:int -> t -> binned
(** Quantise a snapshot of the dataset (default [max_bins = 256]).  A feature
    with at most [max_bins] distinct values gets one bin per distinct value
    and cut points bit-identical to the exact presort path's candidate
    thresholds (midpoints of adjacent distinct values); otherwise cut points
    are chosen so bins hold roughly equal sample counts, never splitting one
    value across bins.  Raises [Invalid_argument] when [max_bins] is outside
    [2, max_supported_bins]. *)

val binned_length : binned -> int
val binned_n_features : binned -> int

val n_bins : binned -> int -> int
(** Bins actually used by a feature (1 for a constant feature). *)

val cut : binned -> int -> int -> float
(** [cut b f i]: the split threshold between bin [i] and bin [i + 1] of
    feature [f]; defined for [0 <= i < n_bins b f - 1]. *)

val bin_index : binned -> int -> int -> int
(** [bin_index b f i]: the bin of sample [i] on feature [f]. *)

val bin_matrix :
  binned -> (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t
(** The raw feature-major bin matrix, for the histogram accumulation hot
    loop; treat as read-only. *)
