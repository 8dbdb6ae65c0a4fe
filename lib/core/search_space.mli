(** The configuration searching domain (Section 6.2, Table 1).

    A space enumerates the tunable axes for one (architecture, layer,
    algorithm) triple:

    - a direct tile extent divides the output extent or is a power of two
      no larger than it; a Winograd one is a multiple of [e] no larger than
      the output extent (or [e] itself when one tile covers the output);
      channel tiles follow the direct rule over [c_out];
    - thread extents are divisors of the tile extents, bounded by the block
      thread limit;
    - unroll in {1,2,4,8}, vector width in {1,2,4}, three layouts, double
      buffering on/off;
    - the working set must fit a shared-memory budget of at most half an SM
      (so two blocks stay resident — Table 1's [S_b <= S_sm / 2]).

    With [pruned = true] (the paper's ATE) the optimality condition cuts the
    domain down: [x y / (R z)] within a factor-2 slack, [z <= sqrt(S_b / R)]
    and [x y <= sqrt(S_b R)].  With [pruned = false] the space is the full
    TVM-style domain.  [size] is the exact cardinality, reported in
    Table 2. *)

type t

val make : ?pruned:bool -> Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Config.algorithm -> t
(** Default [pruned = true].  Raises [Invalid_argument] for a Winograd
    algorithm the layer does not support (or [e < 1]), and when no valid
    configuration exists (never happens for the experiment layers).  The
    tile array lists, in ascending (x, y, z) order, exactly the triples the
    membership predicate behind {!validate} admits. *)

val spec : t -> Conv.Conv_spec.t
val arch : t -> Gpu_sim.Arch.t
val algorithm : t -> Config.algorithm
val pruned : t -> bool

val canonical_key :
  Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Config.algorithm -> pruned:bool -> string
(** Stable canonical identity of a domain before it is built: the
    architecture name, [Conv.Conv_spec.canonical] (every field explicit, in
    fixed order), the algorithm and the pruning flag.  Semantically equal
    (arch, spec, algorithm, pruned) quadruples canonicalize to byte-equal
    strings regardless of how the spec was constructed, so hashes of this
    string are content-addressed cache keys.  Cheap: does not enumerate the
    domain (usable even when [make] would find it empty). *)

val canonical : t -> string
(** [canonical_key (arch t) (spec t) (algorithm t) ~pruned:(pruned t)]. *)

val size : t -> float
(** Exact number of configurations in the domain. *)

val tile_candidates : t -> (int * int * int) array
(** The valid (x, y, z) tile triples. *)

type invalid =
  | Wrong_algorithm of { expected : Config.algorithm; got : Config.algorithm }
  | Tile_not_in_domain of { tile : int * int * int }
  | Threads_not_dividing of { tile : int * int * int; threads : int * int * int }
  | Threads_exceeded of { threads : int; max_threads_per_block : int }
  | Knob_out_of_domain of { knob : string; value : string }
  | Shmem_exceeded of { shmem_bytes : int; budget_bytes : int }
      (** Why a configuration is outside the domain, carrying the offending
          sizes (e.g. the working-set bytes versus the shared-memory budget)
          so callers can report them. *)

val validate : t -> Config.t -> (unit, invalid) result
(** Typed membership test: [Ok ()] iff the configuration is in the domain,
    otherwise the first violated constraint in checking order (algorithm,
    tile, thread divisibility, thread limit, knobs, shared memory).  The
    tile test is the arithmetic predicate [make] enumerates with (axis
    rules, shared-memory fit, pruning cut), not a scan of the tile array. *)

val admits :
  ?pruned:bool -> Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Config.algorithm -> Config.t ->
  (unit, invalid) result
(** [admits ?pruned arch spec algorithm cfg] is
    [validate (make ?pruned arch spec algorithm) cfg] without enumerating
    the domain: a handful of arithmetic tests.  It raises [Invalid_argument]
    where [make] raises before enumerating (a Winograd algorithm the layer
    does not support, or [e < 1]).  It cannot tell an empty domain apart, so where [make]
    finds the domain empty it returns an [Error]: [Ok ()] always means
    [make] succeeds and [validate] accepts. *)

val invalid_to_string : invalid -> string
(** Human-readable rendering including the offending sizes. *)

val mem : t -> Config.t -> bool
(** [mem s c = (validate s c = Ok ())] (used to validate neighbours). *)

val sample : t -> Util.Rng.t -> Config.t
(** Uniform over tile triples, then uniform over the remaining axes
    (conditioned on validity). *)

val neighbor : t -> Util.Rng.t -> Config.t -> Config.t
(** Random single-axis mutation that stays inside the domain — the step
    relation of the configuration explorer's random walks. *)

val iter_configs : t -> (Config.t -> unit) -> unit
(** Exhaustive enumeration of the domain (every valid configuration exactly
    once, except that double-buffered variants that do not fit shared memory
    are skipped).  Only tractable for small layers; used by tests to compare
    the tuner against the true optimum and by [size] sanity checks. *)

val config_for_tile : t -> int * int * int -> Config.t
(** The deterministic representative configuration for one tile triple of
    the domain: 256-ish threads capped at 16 per axis (falling back to a
    single thread when the product exceeds the block limit), unroll 4,
    vector width 2, CHW layout, no double buffering.  Valid whenever the
    triple comes from {!tile_candidates}.  This is what [Supervisor] ranks
    when degrading to an analytic configuration without measurements. *)

val default_config : t -> Config.t
(** A reasonable deterministic member: the optimality-guided tile of
    [Optimality.optimal_tile_*] (or the nearest valid triple), CHW layout,
    256-ish threads — the starting point shown to make pure heuristics
    insufficient. *)
