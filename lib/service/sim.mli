(** Deterministic in-process service harness — chaos campaigns without
    sockets.

    A script is a list of {!event}s over logical client numbers; {!run}
    interprets it against a fresh {!Engine} on a given cache path and
    returns every response each client received, in order.  Because the
    engine is a step machine and the tuner is seeded, the same script on
    the same cache file produces byte-identical transcripts — which is what
    makes campaigns combining client disconnects, GPU faults, cache-file
    corruption ([Util.Fs_faults] between runs) and mid-run termination
    reproducible from a seed.

    A script that ends without {!event.Drain} models [kill -9]: nothing is
    flushed, the cache holds exactly the records appended so far, and a
    following {!run} on the same path models the restarted daemon. *)

type event =
  | Connect of int  (** open a session for logical client [n] *)
  | Send of int * string  (** client [n] submits one request line *)
  | Disconnect of int  (** client [n] goes away (waiting answers dropped) *)
  | Step
      (** one engine step: pending lines, then at most one tune, which
          Sim's engine (inline executor) finishes and answers within the
          step *)
  | Run_until_idle  (** step until no pending work remains *)
  | Drain  (** graceful SIGTERM: finish queued tunes, flush the cache *)

type outcome = {
  responses : (int * string) list;
      (** (logical client, response line) in emission order *)
  engine : Engine.t;  (** final state, for counter/cache assertions *)
}

val run : ?settings:Engine.settings -> cache:string -> event list -> outcome
(** Interprets the script.  Unknown client numbers in [Send]/[Disconnect]
    raise [Invalid_argument] (a script bug, not a service fault).  Events
    after a [Drain] still execute — draining engines answer with typed
    [ERR draining] lines. *)

val transcript_of : int -> outcome -> string list
(** The response lines logical client [n] received, in order. *)
