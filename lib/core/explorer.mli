(** Configuration explorer: random walks guided by the cost model
    (Section 6.2's "Searching Process").

    [explore] launches [n_walks] walks of [walk_len] steps.  Each walk starts
    from a provided promising configuration (or a fresh sample when starts
    run out), proposes a random in-domain neighbour per step, moves greedily
    when the predicted cost improves, and with a small escape probability
    otherwise.  The distinct endpoints plus best-visited configurations are
    returned as the next measurement batch, most promising first.

    The walks run in walk order on the calling domain.  A single draw from
    [rng] seeds one private stream per walk, per-walk results are merged in
    walk order, and cost ties are broken on the config key, so for a fixed
    [rng] state the returned ranking is fully determined. *)

val explore :
  ?n_walks:int ->
  ?walk_len:int ->
  ?escape_probability:float ->
  ?avoid:(Config.t -> bool) ->
  space:Search_space.t ->
  model:Cost_model.t ->
  rng:Util.Rng.t ->
  starts:Config.t list ->
  unit ->
  Config.t list
(** Defaults: 12 walks of 40 steps, escape probability 0.05.  Raises
    [Invalid_argument] when [n_walks < 1] or [walk_len < 0].  The result
    list is deduplicated and sorted by predicted cost (ties on the
    configuration key).  [avoid] filters configurations out of the returned ranking — the tuner
    passes its known-failed set so a config that cannot launch is never
    proposed again.  The filter applies after the walks, so the walk
    trajectories (and hence determinism) are unaffected by it. *)
