(** Crash-safe, checksummed record files — the durability layer under every
    on-disk artifact (tune journals, model checkpoints, result caches, gold
    files).

    A durable file is line-oriented:

    {v dur1 <TAB> kind <TAB> crc32(header-prefix)     (versioned file header)
       r <TAB> crc32(payload) <TAB> payload           (one line per record)
       ... v}

    CRC-32 (IEEE 802.3) guards each record and the header, so torn writes,
    truncations and bit flips are *detected* instead of silently replaying
    wrong values.  Reads are truncation-tolerant: they salvage the longest
    valid record prefix and report what was lost as a typed
    {!read_outcome.Salvaged} diagnostic — never an exception, never a silent
    drop.  Snapshots go through write-temp-then-rename, so a crash mid-write
    leaves the previous snapshot intact rather than a half-written file.

    Payloads are opaque byte strings without newlines (tabs are fine: the
    checksum field sits at a fixed offset).  The [kind] tag names the
    logical format ("tune-journal", "service-cache", ...) so a file of one kind
    can never be mistakenly parsed as another. *)

val crc32 : string -> int32
(** CRC-32 (polynomial 0xEDB88320, IEEE) of a byte string.  Exposed for
    tests and for tooling that crafts or verifies files by hand. *)

val header : kind:string -> string
(** The header line (without trailing newline) for a file of [kind].
    Raises [Invalid_argument] if [kind] is empty or contains tabs or
    newlines. *)

val frame : string -> string
(** [frame payload] is the framed record line (without trailing newline).
    Raises [Invalid_argument] if the payload contains a newline or carriage
    return. *)

type read_outcome =
  | Missing  (** the file does not exist *)
  | Intact of string list  (** every record validated; payloads in order *)
  | Salvaged of {
      records : string list;  (** longest valid record prefix, payloads *)
      dropped : int;  (** lines (incl. any torn final fragment) lost *)
      reason : string;  (** first corruption encountered, for diagnostics *)
    }

val records : read_outcome -> string list
(** The salvaged payloads of any outcome ([[]] for [Missing]). *)

val dropped : read_outcome -> int
(** The dropped-line count of any outcome (0 for [Missing]/[Intact]). *)

val read : kind:string -> string -> read_outcome
(** Validates the whole file.  An empty file reads as [Intact []] (a crash
    between [open] and the header write loses nothing).  A file whose header
    names a different kind, or no valid header at all, salvages to zero
    records.  Never raises on corrupt content; I/O errors ([Sys_error])
    still propagate. *)

val repair : kind:string -> string -> read_outcome
(** {!read}, then — if records were dropped — atomically rewrites the file
    to exactly the salvaged prefix, so subsequent {!append}s extend a clean
    file instead of concatenating onto torn garbage.  A file with a *valid*
    header of a different kind is left untouched (it is someone else's
    data, not a torn write of ours). *)

val append : kind:string -> string -> string -> unit
(** [append ~kind path payload] appends one framed record, writing the
    header first when the file is missing or empty and healing a missing
    final newline (a crash can shear the terminator off an otherwise valid
    record, which {!read} accepts).  The record and its newline go out in a
    single write.  Raises like {!frame} on bad payloads. *)

val write_snapshot : kind:string -> string -> string list -> unit
(** Atomically replaces [path] with a fresh durable file holding exactly
    the given payloads: the content is written to a temporary file in the
    same directory, then renamed over [path]. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] atomically replaces [path] with raw
    (unframed) [content] via the same temp-then-rename dance — for
    artifacts with their own format, like benchmark JSON. *)

val warn_dropped : path:string -> read_outcome -> unit
(** Prints one [warning:] line to stderr (through [Log.warn_oncef] keyed by
    [path], so test suites can silence it with [Log.set_quiet]) when the
    outcome dropped records; silent otherwise.  Deduplicated per path: a
    long-lived process that re-reads the same damaged artifact — a daemon
    serving many cache files, say — reports each salvage exactly once
    (until [Log.reset_once]).  Callers use it to honour the "never silently
    discard" contract without each inventing a message format. *)
