(** The identity of one tune: every input that decides what a search
    returns.

    A tune journal records only config -> outcome, so a tune replays
    whatever journal sits at its path.  Naming the journal by this identity
    (not by the domain's content key alone) keeps a tune at another seed,
    budget or fault profile from replaying a foreign search.  The daemon's
    {!Engine} and the fleet's runner memo both key by it. *)

val make :
  canonical:string -> seed:int -> budget:int -> faults:Gpu_sim.Faults.profile option ->
  string
(** [canonical] is the domain's canonical key
    ([Core.Search_space.canonical_key]); [budget] the trial budget;
    [faults] rendered at full precision ([Gpu_sim.Faults.key]). *)

val journal_path : dir:string -> string -> string
(** [journal_path ~dir identity]: the tune's journal file in [dir], named by
    the identity's content hash. *)
