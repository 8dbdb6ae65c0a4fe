(** Exact red-blue pebble-game oracle: the true minimum I/O [Q_opt(S)].

    A* over game positions (red mask, blue mask) driven entirely by the pure
    transition API ([Pebble.Pebble_game.apply]), so the search explores
    exactly the legal games: recomputation is allowed, stores are optional,
    eviction order is free.  The returned witness replays through
    [Pebble_game.trace] to exactly [q_opt] I/Os.

    Exhaustive pebbling is only tractable for small DAGs (tens of vertices);
    the [budget] caps expanded positions so a too-large instance fails fast
    with [Budget_exhausted] instead of hanging the suite. *)

type outcome = {
  q_opt : int;  (** minimum loads + stores over all legal plays *)
  moves : Pebble.Pebble_game.move list;  (** an optimal play, replayable *)
  expanded : int;  (** positions expanded by the search *)
}

type verdict =
  | Optimal of outcome
  | Budget_exhausted of { expanded : int }

type mode =
  | Normalized
      (** explore WLOG-normalised plays: spills only as store+free eviction
          compounds, outputs stored-and-freed the moment they are computed
          and never reloaded.  Exact (each normalisation is an exchange
          argument on move order) and orders of magnitude smaller. *)
  | Reference
      (** raw single moves, restricted only by "delete only when memory is
          full"; the ground truth Normalized is tested against. *)

val default_budget : int

val solve :
  ?budget:int -> ?mode:mode -> ?want_witness:bool -> Dag.Graph.t -> s:int -> verdict
(** [solve g ~s] computes [Q_opt(s)] (default mode [Normalized]) with the
    frontier engine: packed-int position keys, cost-layered append-only
    Bigarray frontiers expanded a whole f-layer at a time, and per-red-mask
    Pareto dominance of (blue mask, cost) applied at generation.  Flat
    buffers instead of per-state tables keep instances of 25 vertices
    tractable at small [s].

    [want_witness] (default true) controls parent bookkeeping — the only
    remaining per-state table.  With [~want_witness:false] the result's
    [moves] is [[]] and peak memory on large instances drops accordingly.

    Raises [Invalid_argument] when the graph has more than
    [(Sys.int_size - 1) / 2] vertices (31 on 64-bit hosts: a position packs
    both masks into one int) or when [s < max in-degree + 1] (no play can
    complete). *)

val q_opt_exn : ?budget:int -> ?mode:mode -> Dag.Graph.t -> s:int -> int
(** [solve ~want_witness:false] unwrapped; raises [Failure] on budget
    exhaustion. *)
