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
