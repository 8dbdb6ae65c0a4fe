(** Answer-integrity auditor — the pure invariant suite behind every trust
    boundary of the tuning service.

    A tuning answer is a claim: "configuration [c] is a member of the pruned
    search space of [(arch, spec, algorithm)], it launches, and it costs
    [runtime_us]".  Because the repo's cost model is analytic (Li et al.'s
    observation that configurations can be priced and validated without
    measuring), every part of that claim can be re-derived in microseconds
    and checked:

    - the canonical string round-trips through the canonical renderer
      byte-exactly, and the claimed content key is its FNV-1a hash;
    - the configuration is a member of the claimed [Core.Search_space]
      ([Core.Search_space.admits]-clean, so an honest claim never builds
      the domain) and launch-feasible per [Gpu_sim.Kernel_cost.check];
    - the claimed analytic cost re-prices bit-identically through the
      noise-free [Gpu_sim.Kernel_cost], the claimed gflops agree with the
      one nominal-gflops formula, and the measured runtime sits within a
      small plausibility band of the analytic price (the measurement model
      only ever adds bounded noise to it);
    - the dataflow traffic of the tile is at least the paper's I/O lower
      bound — a "better than optimal" answer is a corrupt answer.

    The checks are pure: no files, no sockets, no randomness.  [Durable]'s
    CRC framing catches bytes that rot; this module catches records that
    re-frame cleanly but lie. *)

(** Why a claim was rejected, carrying the offending values so quarantine
    ledgers and retry traces can name them. *)
type reason =
  | Canonical_unparseable of string
      (** the canonical string does not parse and re-render byte-equal *)
  | Key_mismatch of { claimed : string; derived : string }
      (** content key is not the FNV-1a hash of the canonical string *)
  | Empty_domain of string
      (** [Core.Search_space.make] rejects the (arch, spec, algorithm) *)
  | Not_in_domain of Core.Search_space.invalid
      (** configuration fails [Core.Search_space.validate] *)
  | Unlaunchable of Gpu_sim.Kernel_cost.launch_error
      (** block geometry fails [Gpu_sim.Kernel_cost.check] *)
  | Cost_not_finite of { field : string; value : float }
      (** a cost that must be finite and positive is not *)
  | Gflops_inconsistent of { claimed : float; derived : float }
      (** claimed gflops disagree with [Core.Tuner.nominal_gflops] *)
  | Reprice_drift of { field : string; claimed : float; derived : float }
      (** a claimed analytic quantity does not re-derive to the same value *)
  | Runtime_implausible of { runtime_us : float; predicted_us : float; rel : float }
      (** measured runtime outside the noise band around the analytic price *)
  | Q_bound_violated of { q_ratio : float }
      (** dataflow traffic below the paper's I/O lower bound *)

type verdict = Ok | Suspect of reason list
    (** [Suspect] carries every violated invariant, in checking order. *)

(** How exactly floats must agree.  Artifacts that store hex floats
    ([Result_cache], gold files) are held to bit-identity; the wire rounds
    runtime to [%.6f] and gflops to [%.2f], so a client-side audit gets the
    rounding slack and nothing more. *)
type policy = {
  label : string;
  rel : float;  (** relative slack for float agreement; 0 = bit-identical *)
  runtime_abs : float;  (** absolute slack on repriced runtimes *)
  gflops_abs : float;  (** absolute slack on the gflops consistency check *)
  band : float;  (** measured-vs-analytic plausibility half-width *)
  q_slack : float;  (** how far below 1.0 the Q ratio may round *)
}

val strict : policy
(** Bit-identical floats, 5% runtime band — for on-disk artifacts. *)

val wire : policy
(** Rounding-tolerant — for [%.6f]/[%.2f]-rendered protocol lines. *)

val content_key : string -> string
(** 16-hex-digit FNV-1a 64-bit hash of a canonical request string — the
    service's content address ([Service.Result_cache.key_of_canonical]
    delegates here). *)

val predicted_us : Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Core.Config.t -> float
(** Noise-free analytic price of a configuration ([Gpu_sim.Kernel_cost]
    runtime); NaN when the configuration cannot launch. *)

val q_ratio : Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Core.Config.t -> float
(** Dataflow traffic of the configuration's tile over the paper's I/O lower
    bound, both at S = half an SM's shared memory — the per-layer optimality
    gap.  At least 1 for any honest configuration. *)

val parse_spec_canonical : string -> Conv.Conv_spec.t option
(** Inverse of [Conv.Conv_spec.canonical]; [None] unless the input parses
    and re-renders byte-equal. *)

val parse_canonical :
  string -> (Gpu_sim.Arch.t * Conv.Conv_spec.t * Core.Config.algorithm * bool) option
(** Inverse of [Core.Search_space.canonical_key]; [None] unless the input
    parses (known architecture name included) and re-renders byte-equal. *)

val check :
  ?policy:policy ->
  ?key:string ->
  ?gflops:float ->
  ?predicted_us:float ->
  ?q_ratio:float ->
  canonical:string ->
  config:Core.Config.t ->
  runtime_us:float ->
  unit ->
  verdict
(** Audits one claim.  [canonical], [config] and [runtime_us] are the
    claim's core; [key], [gflops], [predicted_us] and [q_ratio] are audited
    when the artifact carries them and skipped when it does not.  Default
    policy {!strict}.  Pure and total: never raises on hostile input. *)

val reason_token : reason -> string
(** Short stable kebab-case tag ("key-mismatch", "q-bound-violated", ...) —
    what quarantine ledgers record. *)

val reason_to_string : reason -> string
(** Human-readable rendering including the offending values. *)

val verdict_to_string : verdict -> string
(** ["ok"], or ["suspect: tok1,tok2"] using {!reason_token}s. *)
