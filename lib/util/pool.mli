(** A persistent pool of worker domains.

    [Domain.spawn] costs tens of microseconds plus a thread creation; paying
    it inside inner loops (every parallel-for of a tiled kernel) dwarfs the
    work being distributed.  A pool spawns its workers once and reuses them:
    submitters enqueue thunks, workers drain the shared queue, and the
    submitting thread both executes its own share and helps drain the queue
    while it waits, so nested submissions (a pooled task that itself calls
    [run_all]) can never deadlock.

    The pool is deliberately oblivious to task semantics: all determinism
    guarantees in this repository come from callers submitting pure tasks
    that write to disjoint slots and combining results in a fixed order. *)

type t

val create : ?workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] worker domains (clamped below at
    0).  Default: [Parallel.recommended_domains () - 1], i.e. one worker per
    recommended domain beyond the submitting thread — 0 on a single-core
    host, where every submission degrades to inline execution. *)

val workers : t -> int
(** Number of live worker domains (0 after [shutdown]). *)

val default : unit -> t
(** The process-wide shared pool, created on first use.  [Parallel] routes
    all its chunked operations through this pool. *)

val ensure_workers : t -> int -> unit
(** [ensure_workers t n] grows the pool to at least [n] workers (never
    shrinks).  Tests use it to force real cross-domain execution regardless
    of the host's core count. *)

val run_all : t -> (unit -> unit) list -> unit
(** Runs every thunk to completion, distributing them over the pool's
    workers plus the calling thread.  Returns when all have finished.  If
    one or more thunks raise, the first exception observed is re-raised
    after every thunk has still been given the chance to run (tasks are
    independent; a failure must not silently skip its siblings' slots).
    Every thunk is wrapped, so no exception ever escapes into a worker.
    With zero workers (or after [shutdown]) the thunks run inline on the
    caller, in order.  Safe to call concurrently from several threads and
    from inside a pooled task. *)

val run_all_deadline :
  t -> now:(unit -> float) -> deadline:float -> (unit -> unit) list -> int
(** [run_all_deadline t ~now ~deadline fns] is [run_all] with a task-start
    gate: each thunk runs only if [now () < deadline] at the moment a thread
    picks it up.  Thunks already running when the deadline passes are never
    interrupted — the bound is cooperative, suited to batches whose
    individual tasks are short.  Returns the number of thunks that ran to
    completion (skipped and faulting thunks are not counted).  The clock is
    injected so callers choose the time base — wall clock for real
    deadlines, a fake counter in tests — and [util] stays free of a [unix]
    dependency.  Exceptions propagate exactly as in [run_all]. *)

val shutdown : t -> unit
(** Signals workers to exit and joins them.  Idempotent.  Subsequent
    [run_all] calls execute inline; [ensure_workers] can revive the pool. *)
