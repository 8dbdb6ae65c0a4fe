(** The tuning service's core state machine — everything the daemon does
    except sockets.

    The engine owns the three robustness pillars:

    - the durable, content-addressed {!Result_cache} (repeat queries answer
      without tuning; every completed tune is appended before the response
      is emitted, so a [kill -9] after the answer never loses it);
    - request coalescing and admission control: identical in-flight
      requests share one tuning task (all waiters get the one result —
      including a typed failure, truthfully), distinct queued tunes are
      bounded by [max_pending] with an explicit [BUSY retry-after] beyond
      it, and every tune runs under [Core.Supervisor] fair-share budgeting
      (an exhausted budget degrades to analytic answers, typed as such);
    - graceful drain: {!drain} stops admitting work, finishes the queued
      tunes (their journals checkpoint progress if the process dies
      anyway), answers every waiter, and compacts the cache atomically.

    Determinism: the engine is single-stepped ({!step} processes all
    pending request lines and launches at most one tuning task) and draws
    no randomness beyond the seeded tuner.  Under the default inline
    executor a launched tune completes inside the same step, so a scripted
    run — {!Sim} — is exactly reproducible.  The daemon drives the same
    engine from a real socket accept loop, with an executor that runs
    tunes on another domain so cache hits, PING and STATS keep answering
    while a tune runs.

    Each tune has a worker half — {!Resolver.tune}: the search space, the
    supervised tune and its journal, the same path the fleet's runner
    takes — which is all the executor runs, and which touches no engine
    state but the supervision session.  Its loop half — counters, outcome
    classification, the cache write ({!Result_cache.put}, which audits a
    fresh result on an audited cache) and the answers — runs inside
    {!step}.  The engine is otherwise not thread-safe: call everything but
    the executor's work from one domain. *)

type settings = {
  budget_trials : int;  (** per-tune measurement budget *)
  seed : int;  (** tuner seed *)
  policy : Core.Supervisor.policy;
      (** breaker threshold + global virtual-time budget + analytic
          candidate count for degraded answers *)
  faults : Gpu_sim.Faults.profile option;  (** injected GPU faults (tests) *)
  journal_dir : string option;
      (** per-key tune journals: a daemon killed mid-tune resumes the tune
          from its journal instead of restarting the search *)
  max_pending : int;  (** distinct queued tunes beyond which requests BUSY *)
  retry_after_s : int;  (** the hint sent with BUSY *)
  audit : bool;
      (** load the cache audited, so every trust boundary goes through
          [Verify.Audit]: cache records at load and before each hit
          (rejects quarantined, the key tunes afresh), and every fresh
          result at {!Result_cache.put} (a reject is served to its waiters
          but never cached) *)
  scrub_per_step : int;
      (** cache entries re-audited per {!step} tick (0 = no background
          scrubbing) *)
}

val default_settings : settings
(** 300 trials, seed 0, [Core.Supervisor.default_policy], no faults, no
    journals, 8 pending tunes, retry-after 1s, auditing on, no background
    scrubbing. *)

val generation_of_settings : settings -> string
(** The cache generation string: the {e search}-relevant settings (trial
    budget, seed, breaker, pruning lives in the request key).  Changing any
    of them invalidates cached results — {!create} skips records of other
    generations and the next flush removes them. *)

type t
type client

val client_id : client -> int

type executor = (unit -> unit) -> unit
(** Runs the worker half of one tune.  The engine hands over a thunk that
    tunes and then records its result; the executor may run it before
    returning or later, on any domain.  At most one is outstanding at a
    time. *)

val create :
  ?settings:settings -> ?now_ms:(unit -> float) -> ?executor:executor -> cache:string ->
  unit -> t
(** Loads (salvaging + repairing if damaged) the durable cache and starts
    an accepting engine.

    [now_ms] is the engine's only clock, used solely to shed queued tunes
    whose every waiter's [deadline-ms] has already expired (typed
    [ERR deadline]).  It defaults to the {e constant zero} — not wall
    time — so the engine stays a deterministic step machine and shedding
    is inert unless a real (monotonic) clock is injected, which the
    daemon does.

    [executor] is injected the same way.  It defaults to running the tune
    inline, before it returns, which keeps {!step} a deterministic step
    machine.  The daemon passes one that hands the tune to another domain;
    a test may pass one that holds the tune until it releases it. *)

val settings : t -> settings
val cache : t -> Result_cache.t

val connect : t -> client
(** Registers a client session.  Connecting to a draining engine still
    succeeds; its requests get [ERR draining]. *)

val disconnect : t -> client -> unit
(** Client went away.  Requests it already submitted still run (and their
    results are cached — the work is shared, not wasted); only the
    response delivery is cancelled, counted in [abandoned]. *)

val submit : t -> client -> string -> unit
(** Enqueue one raw request line (without newline).  Never raises on wire
    input; malformed lines produce typed [ERR parse] responses at the next
    {!step}. *)

val step : t -> (client * string) list
(** One scheduling round, which never waits: applies the running tune's
    result if its worker half has finished (audit, cache, answers to all
    its waiters), processes every pending line (immediate answers: cache
    hits, coalesced joins, BUSY, errors, PING, STATS), then — when no tune
    is running — launches the next queued one through the executor,
    shedding first any queued tune whose every waiter's deadline has
    passed.  A request identical to the running tune joins it.  With the inline
    executor the launched tune finishes at once and its waiters are
    answered in this same round, so each step runs at most one queued
    tuning task to completion.  Returns the response lines emitted this
    round, in order. *)

val run_until_idle : t -> (client * string) list
(** {!step} until no pending lines, no queued tunes and no running tune
    remain, blocking (without polling) while the running tune's worker
    half finishes.  With an executor that holds tunes, release the held
    tune from another domain first, or this never returns. *)

val drain : t -> (client * string) list
(** Graceful shutdown (the SIGTERM path): {!run_until_idle} first —
    requests already received were accepted, so the running tune and every
    queued one finish and every waiter is answered — then stop admitting
    new requests (subsequent submissions get [ERR draining]) and compact
    the cache with an atomic flush.  Idempotent. *)

val is_draining : t -> bool

(** {1 Observability} *)

type counters = {
  cache_hits : int;
  cache_misses : int;  (** requests that needed (or joined) a tuning task *)
  coalesced : int;  (** requests that joined an already-queued task *)
  busy_rejected : int;
  tunes_run : int;  (** tuning tasks actually executed *)
  parse_errors : int;
  domain_errors : int;
  tune_failures : int;  (** tasks whose waiters got [ERR failed] *)
  abandoned : int;  (** responses dropped because the waiter disconnected *)
  deadline_shed : int;
      (** queued tunes skipped because every waiter's deadline had passed *)
}

val counters : t -> counters

val record_load_shed : t -> unit
(** Counts one accept-level [BUSY] the daemon answered before the engine
    saw a line (connection-ceiling load shedding), folding it into
    [busy_rejected] so [STATS] reports one honest total. *)

val stats : t -> (string * string) list
(** The [STATS] reply payload: counters plus cache entries / salvage
    losses / stale records, the cache's audit ledger ([audited] checks
    performed, [quarantined] records sidelined, [scrubbed] entries swept,
    [audit_rejected] fresh results refused at put), the gauges [queued]
    (distinct tunes waiting) and [running] (0 or 1), and the draining
    flag. *)

val health : t -> Core.Supervisor.report
(** The supervision session's report (budget accounting, per-task
    outcomes, each task named by its canonical request string) — what the
    daemon prints on shutdown.  The worker half writes the session, so
    read it only while no tune is running. *)
