(** Library-wide warning verbosity hook.

    The durability layer warns on stderr when it salvages a corrupted file —
    exactly once per damaged artifact, which is right for production but
    noise under test suites that corrupt files *on purpose*.  This module is
    the single switch: library code routes its warnings through
    {!warn_oncef}, and tests call [set_quiet true] to silence them without
    changing any behaviour.  The default level is [Warn], so operators see every salvage
    unless they opt out. *)

type level =
  | Quiet  (** drop warnings *)
  | Warn  (** print warnings to stderr (default) *)

val set_level : level -> unit
val level : unit -> level

val set_quiet : bool -> unit
(** [set_quiet true] is [set_level Quiet]; [set_quiet false] restores
    [Warn].  Test suites flip this in their entry point. *)

val once : string -> bool
(** [once key] is [true] the first time [key] is seen since the last
    {!reset_once}, [false] afterwards.  Thread-safe.  The guard behind
    per-artifact warn-once emission: callers key by file path so a process
    holding many durable files reports each salvage exactly once, rather
    than once per read or once per process. *)

val reset_once : unit -> unit
(** Forget every key {!once} has seen (test suites call this between
    cases). *)

val warn_oncef : key:string -> ('a, out_channel, unit) format -> 'a
(** [warn_oncef ~key fmt ...] prints to stderr at most once per key at
    level [Warn].  At [Quiet] the message is swallowed (its arguments are
    still evaluated) {e without} consuming the key, so a salvage silenced
    under a quiet test harness is still reported if the same path salvages
    again once warnings are back on. *)
