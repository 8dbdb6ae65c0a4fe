let identity ~canonical ~seed ~budget ~faults =
  Printf.sprintf "%s;seed=%d;budget=%d;faults=%s" canonical seed budget
    (Gpu_sim.Faults.key faults)

let journal_path ~dir identity =
  Filename.concat dir (Verify.Audit.content_key identity ^ ".journal")

let tune session ~canonical ~seed ~budget ?faults ?journal_dir ~pruned arch spec algorithm =
  match Core.Search_space.make ~pruned arch spec algorithm with
  | exception Invalid_argument msg ->
    Core.Supervisor.record_failed session ~key:canonical (Core.Supervisor.Empty_domain msg)
  | space ->
    let journal =
      Option.map
        (fun dir -> journal_path ~dir (identity ~canonical ~seed ~budget ~faults))
        journal_dir
    in
    Core.Supervisor.tune_task session ~key:canonical ~seed ~max_measurements:budget ?faults
      ?journal ~space ()

let entry ~canonical ~source arch spec (r : Core.Tuner.result) =
  {
    Result_cache.key = Result_cache.key_of_canonical canonical;
    canonical;
    source;
    runtime_us = r.best_runtime_us;
    gflops = r.best_gflops;
    predicted_us = Verify.Audit.predicted_us arch spec r.best_config;
    trials = r.measurements;
    config = r.best_config;
  }
