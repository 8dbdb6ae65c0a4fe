(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val geomean : float array -> float
(** Geometric mean; requires strictly positive samples. *)

val stddev : float array -> float
(** Population standard deviation. *)

val median : float array -> float
(** Median (does not mutate the input). *)

val trimmed_mean : float array -> float -> float
(** [trimmed_mean xs frac] drops [floor (frac * n)] samples from each end of
    the sorted array and averages the rest.  [frac] in \[0, 0.5); requires a
    non-empty array.  Falls back to the median when trimming would drop
    everything. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in \[0, 100\], linear interpolation. *)

val min_max : float array -> float * float
(** Smallest and largest sample.  Requires a non-empty array. *)

val argmin : float array -> int
(** Index of the smallest sample.  Requires a non-empty array. *)

val rmse : float array -> float array -> float
(** Root mean squared error between two equal-length sample arrays. *)
