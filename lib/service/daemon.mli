(** The Unix-domain-socket front end of the tuning service.

    A thin, fault-tolerant accept loop around {!Engine}: line-framed reads
    with per-connection deadlines, typed rejection of malformed or
    oversized requests (the process never crashes on wire input), response
    delivery that tolerates clients vanishing mid-tune (the shared tune
    still completes and is cached), and graceful drain on SIGTERM/SIGINT —
    stop accepting, finish the queued tunes, answer every waiter, flush
    the cache atomically, remove the socket file.

    Byzantine clients are bounded on every axis: request-line length
    (typed [ERR parse], then close), time to finish composing a request
    (a slow-loris byte-dribbler meets the per-request deadline — receiving
    more bytes does {e not} reset it), outgoing bytes owed to a peer that
    stopped reading (bounded write buffers drained by partial-write
    continuation in the select loop), and total concurrent connections
    (past the ceiling, accept answers [BUSY retry-after] immediately and
    closes, before the backlog grows).

    Tunes run off the serving loop, so cache hits, PING and STATS answer
    while a tune is running: {!serve} runs the select loop on a domain it
    spawns and runs each tune on the domain that called it, one at a time;
    a self-pipe in the select set wakes the loop when a tune finishes.

    The protocol work all lives in {!Engine}/{!Protocol}; this module only
    owns file descriptors and domains, which is what keeps the chaos
    campaigns honest: they exercise the same engine in-process through
    {!Sim}. *)

(** The bounded outgoing buffer (exposed for the partial-write unit
    tests).  Responses are enqueued whole; {!Outbuf.flush} writes as much
    as the kernel accepts and the select loop continues stalled buffers
    when the peer's receive window reopens.  Because lines are enqueued
    atomically into a single per-connection buffer, two responses can
    never interleave on one connection, whatever the write splits. *)
module Outbuf : sig
  type t

  val create : max_bytes:int -> t

  val enqueue : t -> string -> [ `Ok | `Overflow ]
  (** Appends the bytes, refusing (without buffering anything) when the
      unwritten backlog would exceed [max_bytes]. *)

  val flush : t -> Unix.file_descr -> [ `Done | `Pending | `Closed ]
  (** One continuation step: writes until empty ([`Done]), the fd would
      block ([`Pending] — retry on writability), or the peer vanished
      ([`Closed]).  Never raises on EPIPE/ECONNRESET/EAGAIN/EINTR. *)

  val pending : t -> int
  (** Bytes accepted but not yet written. *)
end

val serve :
  socket:string ->
  cache:string ->
  ?settings:Engine.settings ->
  ?stop:bool Atomic.t ->
  ?hard_stop:bool Atomic.t ->
  ?read_deadline_s:float ->
  ?request_deadline_s:float ->
  ?max_conns:int ->
  ?max_write_buffer:int ->
  ?clock:Util.Clock.source ->
  ?install_signal_handlers:bool ->
  unit ->
  Engine.t
(** Binds [socket] (replacing a stale socket file), serves until [stop]
    flips to [true] — which the installed SIGTERM/SIGINT handlers do — then
    drains (the running and queued tunes finish and answer) and returns the
    final engine for health reporting.  The calling domain runs the tunes
    until the loop's domain exits; that domain is joined before [serve]
    returns.

    [hard_stop]: flipping it exits the loop {e immediately} — no drain, no
    flush, no goodbye lines, connections cut.  A running tune ends, but its
    result is never applied.  The chaos campaigns use it as an in-process
    [kill -9]: everything except the append-only cache records already
    written is torn state the restart must salvage.

    [read_deadline_s] (default 30): a connection idle that long — no
    complete request received and nothing owed to it: no answer still
    being worked on (a queued or running tune it waits for) and no response
    bytes unwritten — gets a typed [ERR timeout] line and is closed, so
    dead or glacial clients cannot pin file descriptors forever.

    [request_deadline_s] (default 10): the slow-loris bound.  A partial
    request line that has been dribbling in this long (the clock starts at
    its first byte and is reset only by a {e completed} line), or a
    response flush stalled this long on a peer that stopped reading, earns
    [ERR timeout] and a close.  A single line growing past
    [Protocol.max_line_bytes] earns [ERR parse] and a close regardless of
    pace.

    [max_conns] (default 64): the connection ceiling.  Accepts past it are
    answered [BUSY retry-after] on the spot and closed (counted in the
    engine's [busy_rejected]).

    [max_write_buffer] (default 256 KiB): per-connection cap on response
    bytes owed; a peer that floods requests without reading past it is
    disconnected.

    [clock] (default a fresh [Util.Clock.monotonic ()]): the time source
    behind every deadline, injectable so tests step time instead of
    sleeping, and monotonic so NTP stepping the wall clock backward cannot
    silently disable deadline enforcement.  The engine's [deadline-ms]
    shedding runs off the same source.

    [install_signal_handlers] (default [true]): tests hosting the daemon in
    a spawned domain pass [false] and flip [stop] themselves (signal
    handlers are process-global). *)
