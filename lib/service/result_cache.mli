(** Content-addressed, crash-safe shared result cache.

    The cache maps the hash of a canonical request
    ([Core.Search_space.canonical_key]) to the best configuration found for
    it, and is the reason a tuning service amortizes: millions of clients
    mostly ask for the same few hundred layer shapes, and each shape is
    tuned once per generation.

    Durability comes from [Util.Durable]: the on-disk form is an
    append-only CRC-framed record file ([kind = "service-cache"]), so a
    [kill -9] mid-append costs at most the torn record, and corruption
    injected by [Util.Fs_faults] salvages to the longest valid prefix —
    reported, never silently dropped.  {!flush} compacts the file through
    an atomic snapshot.

    Integrity goes one trust level further: framing CRCs cannot see a
    record whose bytes were mutated and re-framed ([Util.Fs_faults] can
    manufacture exactly that), so an {e audited} cache re-derives every
    record's analytic claims through [Verify.Audit] at load time, again
    before every hit, and for every fresh result at {!put}.  Rejected
    records are appended to a durable {!Quarantine} sidecar with their
    typed reasons — never silently dropped — and their keys simply miss,
    so a poisoned entry costs one fresh tune, not one wrong answer.

    Staleness: every record carries the {e generation} — an opaque string
    naming the search settings (budget, seed, policy) that produced it.
    Records from other generations (and records of the superseded v1
    schema) are ignored at {!load} and removed by the next {!flush}, so
    changing the search settings invalidates the cache without deleting the
    file by hand. *)

val key_of_canonical : string -> string
(** 16-hex-digit FNV-1a 64-bit hash of the canonical request string — the
    content address.  Stable across processes and platforms (delegates to
    [Verify.Audit.content_key], the one definition). *)

type entry = {
  key : string;  (** [key_of_canonical canonical] *)
  canonical : string;  (** kept verbatim so hash collisions are detectable *)
  source : Protocol.source;  (** how the result was obtained originally *)
  runtime_us : float;
  gflops : float;
  predicted_us : float;
      (** noise-free analytic price of [config] — the auditor demands a
          bit-identical reprice *)
  trials : int;
  config : Core.Config.t;
}

type t

val load : ?audit:bool -> generation:string -> string -> t
(** Opens (or creates the in-memory image of) the cache at a path.  Damaged
    files are salvaged {e and repaired in place} ([Util.Durable.repair]), a
    warning is emitted once per path, and the losses are reported through
    {!dropped}.  Records of other generations are counted in {!stale} and
    skipped.  Of duplicate keys the newest record wins (appends after a
    crash-replay can legitimately duplicate).

    With [audit = true] (default false) every live record is checked
    through [Verify.Audit] (strict policy) before admission, again on
    every {!find} hit, and every entry before {!put} stores it; load and
    hit rejects go to the {!Quarantine} sidecar and the file is
    immediately compacted so the next load is clean.  Raises
    [Invalid_argument] if [generation] contains tabs or newlines. *)

val generation : t -> string
val path : t -> string

val quarantine_path : t -> string
(** The {!Quarantine} sidecar for this cache ([path ^ ".quarantine"]). *)

val find : t -> canonical:string -> entry option
(** Lookup by canonical string (hashes internally; verifies the stored
    canonical matches, so a hash collision misses instead of answering with
    the wrong layer's configuration).  On an audited cache the entry is
    re-audited before it is returned; a suspect entry is quarantined,
    evicted, and reported as a miss — the caller falls through to a fresh
    tune. *)

val put : t -> entry -> unit
(** Inserts/overwrites in memory and appends one durable record.  Entries
    whose [canonical] or [config] fail to round-trip are rejected with
    [Invalid_argument] (the daemon only constructs well-formed entries).
    On an audited cache the entry is audited first: a suspect one is
    counted in {!rejected}, warned about once, and neither stored nor
    appended (the caller may still serve it — it is the truth it has —
    but no later hit will). *)

val flush : t -> unit
(** Atomic compaction: rewrites the file as one snapshot holding exactly
    the live, current-generation entries (drops stale generations, torn
    garbage and superseded duplicates).  Crash-safe: temp-then-rename. *)

val scrub_step : t -> n:int -> int
(** Audits up to [n] entries and returns how many it examined.  Incremental:
    a sorted-key cursor walks the table round-robin across calls, starting
    a fresh pass when the previous one drains — the engine runs one small
    slice per {!Service.Engine.step} tick so scrubbing never stalls
    serving.  Suspect entries are quarantined and evicted.  Audits
    unconditionally (the load-time [audit] flag gates only load/hit
    checks). *)

type scrub_report = { examined : int; quarantined : int; remaining : int }

val scrub : t -> scrub_report
(** One full pass over every entry, then {!flush}: after [scrub] the file
    on disk is a compacted snapshot of exactly the entries that passed the
    audit — a subsequent [Util.Durable.read] is [Intact]. *)

val entries : t -> int
(** Live entries of the current generation. *)

val dropped : t -> int
(** Records lost to corruption when this image was loaded. *)

val stale : t -> int
(** Records of other generations (or the old v1 schema) ignored at load. *)

val audited : t -> int
(** Audit checks performed (load + hits + puts + scrubbing). *)

val rejected : t -> int
(** Fresh entries the audit refused at {!put}. *)

val quarantined : t -> int
(** Records rejected by the audit and appended to the sidecar. *)

val scrubbed : t -> int
(** Entries examined by {!scrub_step}/{!scrub}. *)
