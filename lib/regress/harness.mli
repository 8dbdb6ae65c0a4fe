(** The gold/regress driver: sweep the fleet, then either record it or
    enforce it.

    [Gold] sweeps every requested (model, architecture) pair {e cold} — the
    runner memo is cleared and any result-cache file is removed first — and
    snapshots one golden file per pair into [gold_dir].  The sweep is a pure
    function of the settings, so two gold runs from a clean checkout produce
    byte-identical files; the live-tuned results are flushed to the result
    cache so the next regress run is warm.

    [Regress] re-sweeps {e warm} (runner memo misses are answered from the
    result cache), diffs every pair against its golden file with
    {!Gold.compare_files}, and writes MapGraph-style markers into
    [out_dir]: a [.pass] file per clean pair (stale markers are removed on
    failure) and a [.timing] file per pair always.  Both modes can
    aggregate the sweep into a [BENCH_fleet.json] trajectory file. *)

type mode = Gold | Regress

type pair_report = {
  pair : Sweep.pair;
  gold_path : string;
  mismatches : Gold.mismatch list;  (** empty in [Gold] mode *)
  pass : bool;
}

type summary = {
  mode : mode;
  settings : Sweep.settings;
  tolerance : float;
  reports : pair_report list;
  passed : int;
  failed : int;
  wall_s : float;
}

val default_tolerance : float
(** 1e-6 relative — see {!Gold.compare_files} for the rationale. *)

val run :
  ?models:Cnn.Models.t list ->
  ?arches:Gpu_sim.Arch.t list ->
  ?settings:Sweep.settings ->
  ?tolerance:float ->
  ?cache_path:string ->
  ?bench_path:string ->
  gold_dir:string ->
  out_dir:string ->
  mode ->
  summary
(** Defaults: the full fleet ({!Sweep.fleet_models} x {!Sweep.fleet_arches}),
    {!Sweep.default_settings}, {!default_tolerance}, no result cache, no
    bench file.  Directories are created as needed.  Architectures iterate
    outermost so models sharing layer shapes (ResNet-18/34) reuse the memo
    within each architecture. *)

val failed : summary -> bool
(** [true] iff any pair failed — the harness's process exit condition. *)

val print_summary : ?out:out_channel -> summary -> unit
(** The fleet table, one status line per failing pair with its typed
    mismatches, and a one-line verdict. *)

val write_bench : string -> summary -> unit
(** Writes the sweep trajectory as JSON (atomic replace): per-pair rows
    (layers, live/warm tuning counts, totals, speedup, wall time, pass) and
    per-architecture aggregates (geometric-mean speedup, total wall time). *)
