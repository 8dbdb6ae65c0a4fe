(** The one answer path for a layer shape, shared by the daemon's
    {!Engine} and the fleet's runner ([Cnn.Runner]): name the tune, run it
    under supervision, and price its result as a cache record. *)

val identity :
  canonical:string -> seed:int -> budget:int -> faults:Gpu_sim.Faults.profile option ->
  string
(** Every input that decides what a search returns: the domain's canonical
    key ([Core.Search_space.canonical_key]), seed, trial budget and fault
    profile at full precision ([Gpu_sim.Faults.key]).  A journal records
    only config -> outcome, so naming it by this identity keeps a tune at
    another seed, budget or fault profile from replaying a foreign search.
    The runner's memo keys by it too. *)

val journal_path : dir:string -> string -> string
(** [journal_path ~dir identity]: the tune's journal file in [dir], named by
    the identity's content hash. *)

val tune :
  Core.Supervisor.session -> canonical:string -> seed:int -> budget:int ->
  ?faults:Gpu_sim.Faults.profile -> ?journal_dir:string -> pruned:bool ->
  Gpu_sim.Arch.t -> Conv.Conv_spec.t -> Core.Config.algorithm -> Core.Supervisor.outcome
(** [Core.Supervisor.tune_task] over [Core.Search_space.make]'s domain,
    keyed by [canonical], journalled under [journal_dir] at
    {!journal_path} of the tune's {!identity}.  An empty domain is recorded
    in the session and returned as [Failed (Empty_domain msg)], the only
    [Failed] it returns.  Touches only the session and the journal, so it
    may run on any domain. *)

val entry :
  canonical:string -> source:Protocol.source -> Gpu_sim.Arch.t -> Conv.Conv_spec.t ->
  Core.Tuner.result -> Result_cache.entry
(** The cache record of a tuned or replayed result, priced by
    [Verify.Audit.predicted_us], the price the auditor re-derives. *)
