type settings = {
  seed : int;
  budget : int;
  backend : Cnn.Runner.backend;
}

let default_settings = { seed = 0; budget = 120; backend = Cnn.Runner.Cudnn }

let backend_token = function Cnn.Runner.Cudnn -> "cudnn" | Cnn.Runner.Miopen -> "miopen"

let generation s =
  Printf.sprintf "fleet;seed=%d;budget=%d;backend=%s" s.seed s.budget
    (backend_token s.backend)

let fleet_models () = Cnn.Models.evaluation_models @ [ Cnn.Models.mobilenet ]
let fleet_arches () = Gpu_sim.Arch.all

type pair = {
  model : Cnn.Models.t;
  arch : Gpu_sim.Arch.t;
  gold : Gold.file;
  timing : Cnn.Runner.model_timing;
  wall_s : float;
  live : int;
  warm : int;
}

(* The per-layer optimality gap and the analytic price both come from the
   auditor — gold files must reprice bit-identically through the same code
   path [Verify.Audit.check] uses, or audit-on-read would reject them. *)
let record_of_timing arch (lt : Cnn.Runner.layer_timing) =
  let spec = lt.layer.spec in
  let base =
    {
      Gold.layer = lt.layer.name;
      spec = Conv.Conv_spec.canonical spec;
      algorithm = lt.ours_algorithm;
      config = "library";
      ours_us = lt.ours_us;
      predicted_us = lt.library_us;
      library_us = lt.library_us;
      library_algorithm = lt.library_algorithm;
      q_ratio = 0.0;
      stop = "library";
      trials = 0;
    }
  in
  match lt.ours_result with
  | None -> base
  | Some (r : Core.Tuner.result) ->
    {
      base with
      config = Core.Config.to_compact r.best_config;
      predicted_us = Verify.Audit.predicted_us arch spec r.best_config;
      q_ratio = Verify.Audit.q_ratio arch spec r.best_config;
      (* A result read from the cache has no stop reason of its own. *)
      stop = (if lt.ours_replayed then "replayed" else Gold.stop_token r.stop);
      trials = r.measurements;
    }

(* Distinct candidate keys of a model on one architecture — the unit of the
   live/warm accounting (repeated shapes within and across models share one
   key). *)
let distinct_candidates arch (model : Cnn.Models.t) =
  List.concat_map
    (fun (l : Cnn.Layer.t) ->
      List.map
        (fun algo -> Core.Search_space.canonical_key arch l.spec algo ~pruned:true)
        (Cnn.Runner.candidates l))
    model.layers
  |> List.sort_uniq String.compare |> List.length

let run_pair ?cache ~settings arch (model : Cnn.Models.t) =
  let t0 = Unix.gettimeofday () in
  let timing =
    Cnn.Runner.time_model ?cache ~seed:settings.seed ~max_measurements:settings.budget
      ~backend:settings.backend arch model
  in
  let live =
    List.fold_left (fun n (lt : Cnn.Runner.layer_timing) -> n + lt.live) 0 timing.layers
  in
  let gold =
    {
      Gold.meta =
        {
          Gold.model = model.name;
          arch = Gpu_sim.Arch.alias arch;
          seed = settings.seed;
          budget = settings.budget;
          backend = backend_token settings.backend;
        };
      layers = List.map (record_of_timing arch) timing.layers;
    }
  in
  {
    model;
    arch;
    gold;
    timing;
    wall_s = Unix.gettimeofday () -. t0;
    live;
    warm = distinct_candidates arch model - live;
  }

let summary_table pairs =
  let table =
    Util.Table.create
      [ "model"; "arch"; "layers"; "live"; "warm"; "ours (us)"; "library (us)";
        "speedup"; "wall (s)" ]
  in
  List.iter
    (fun p ->
      Util.Table.add_row table
        [
          p.model.Cnn.Models.name;
          Gpu_sim.Arch.alias p.arch;
          string_of_int (List.length p.timing.layers);
          string_of_int p.live;
          string_of_int p.warm;
          Printf.sprintf "%.1f" p.timing.ours_total_us;
          Printf.sprintf "%.1f" p.timing.library_total_us;
          Util.Table.cell_f p.timing.speedup;
          Printf.sprintf "%.2f" p.wall_s;
        ])
    pairs;
  table
