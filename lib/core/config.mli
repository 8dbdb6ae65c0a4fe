(** Kernel configurations — the points of the auto-tuner's search space
    (Section 6.1, Table 1).

    A configuration fixes the dataflow algorithm, the data layout, the output
    tile [x*y*z], the thread-block decomposition (one thread dimension per
    tile dimension, each dividing its tile extent), and low-level knobs
    (unroll factor, vector width, double buffering).  [to_kernel] lowers a
    configuration to the GPU cost model's kernel descriptor: the tile
    determines I/O volume through the exact dataflow tallies, the thread and
    memory shape determine occupancy, coalescing and efficiency derates. *)

type algorithm =
  | Direct_dataflow
  | Winograd_dataflow of int  (** the output-tile parameter [e] *)

type t = {
  algorithm : algorithm;
  layout : Tensor.Layout.t;
  tile_x : int;
  tile_y : int;
  tile_z : int;
  threads_x : int;  (** must divide [tile_x] *)
  threads_y : int;
  threads_z : int;
  unroll : int;  (** innermost unroll factor: 1, 2, 4 or 8 *)
  vector_width : int;  (** load vectorisation: 1, 2 or 4 *)
  double_buffer : bool;
}

val threads : t -> int
(** Total threads per block. *)

val algorithm_to_string : algorithm -> string
val to_string : t -> string

val shmem_bytes : Conv.Conv_spec.t -> t -> int
(** Shared memory the configuration allocates: the dataflow working set (4
    bytes per element), with the stage buffers doubled under double
    buffering. *)

val working_set_elems : Conv.Conv_spec.t -> t -> int

val blocks : Conv.Conv_spec.t -> t -> int
(** Grid size: output blocks times batch. *)

val n_features : int

val features : Conv.Conv_spec.t -> t -> float array
(** Numeric encoding for the gradient-boosted cost model: tile and thread
    geometry, the optimality-condition log-ratio, derived sizes and the
    categorical knobs. *)

val coalescing : Conv.Conv_spec.t -> t -> float
(** Effective bandwidth fraction: rewards width-contiguous layouts, wide
    input-tile rows and vectorised loads. *)

val compute_efficiency : Conv.Conv_spec.t -> t -> float
(** Arithmetic derate: warp-divisibility, unroll sweet spot, double-buffer
    bonus, ragged-tile waste and a shared-memory bank-conflict penalty when
    the input-tile row is a multiple of the bank count. *)

val to_kernel : Gpu_sim.Arch.t -> Conv.Conv_spec.t -> t -> Gpu_sim.Kernel_cost.kernel
(** Raises [Invalid_argument] on configurations that are not launchable
    (search spaces never generate those). *)

val flops : Conv.Conv_spec.t -> t -> float
(** Arithmetic the configuration actually executes: the nominal convolution
    flops for the direct dataflow; transformed-domain products plus
    transform overhead for Winograd. *)

val to_compact : t -> string
(** Stable single-token encoding for result caches, journals and gold files
    (no spaces or tabs). *)

val of_compact : string -> t option
(** Inverse of [to_compact]; [None] on malformed input. *)
