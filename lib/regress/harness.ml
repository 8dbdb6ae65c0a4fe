type mode = Gold | Regress

type pair_report = {
  pair : Sweep.pair;
  gold_path : string;
  mismatches : Gold.mismatch list;
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

let default_tolerance = 1e-6

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let marker_path ~out_dir ~model ~arch ext =
  Filename.concat out_dir (Printf.sprintf "%s.%s.%s" (Gold.slug model) arch ext)

let write_timing ~out_dir (p : Sweep.pair) =
  let arch = Gpu_sim.Arch.alias p.arch in
  let path = marker_path ~out_dir ~model:p.model.Cnn.Models.name ~arch "timing" in
  Util.Durable.write_atomic path
    (Printf.sprintf "%.3f live=%d warm=%d ours_us=%.3f library_us=%.3f\n"
       (p.wall_s *. 1000.) p.live p.warm p.timing.ours_total_us
       p.timing.library_total_us)

let set_pass_marker ~out_dir (p : Sweep.pair) pass =
  let arch = Gpu_sim.Arch.alias p.arch in
  let path = marker_path ~out_dir ~model:p.model.Cnn.Models.name ~arch "pass" in
  if pass then Util.Durable.write_atomic path "pass\n"
  else if Sys.file_exists path then Sys.remove path

let diff_pair ~tolerance ~gold_path (p : Sweep.pair) =
  match Gold.read gold_path with
  | Error why when Sys.file_exists gold_path ->
    (* The file is there but unreadable or audit-rejected — a tampered or
       rotten gold is its own failure mode, not a missing pair. *)
    [ Gold.Gold_rejected { path = gold_path; why } ]
  | Error _ -> [ Gold.Missing_pair { path = gold_path } ]
  | Ok gold -> Gold.compare_files ~tolerance ~gold ~got:p.gold

let write_bench path (s : summary) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let mode_token = match s.mode with Gold -> "gold" | Regress -> "regress" in
  pf "{\n";
  pf "  \"bench\": \"fleet\",\n";
  pf "  \"mode\": %S,\n" mode_token;
  pf "  \"settings\": {\"seed\": %d, \"budget\": %d, \"backend\": %S, \"tolerance\": %g},\n"
    s.settings.seed s.settings.budget
    (Sweep.backend_token s.settings.backend)
    s.tolerance;
  pf "  \"pairs\": [\n";
  List.iteri
    (fun i (r : pair_report) ->
      let p = r.pair in
      pf
        "    {\"model\": %S, \"arch\": %S, \"layers\": %d, \"live\": %d, \"warm\": \
         %d, \"ours_us\": %.3f, \"library_us\": %.3f, \"speedup\": %.4f, \
         \"wall_ms\": %.3f, \"pass\": %b, \"mismatches\": %d}%s\n"
        p.model.Cnn.Models.name (Gpu_sim.Arch.alias p.arch)
        (List.length p.timing.layers) p.live p.warm p.timing.ours_total_us
        p.timing.library_total_us p.timing.speedup (p.wall_s *. 1000.) r.pass
        (List.length r.mismatches)
        (if i = List.length s.reports - 1 then "" else ","))
    s.reports;
  pf "  ],\n";
  pf "  \"arches\": [\n";
  let arches =
    List.sort_uniq compare
      (List.map (fun r -> Gpu_sim.Arch.alias r.pair.Sweep.arch) s.reports)
  in
  List.iteri
    (fun i alias ->
      let rows =
        List.filter (fun r -> Gpu_sim.Arch.alias r.pair.Sweep.arch = alias) s.reports
      in
      let n = List.length rows in
      let geomean =
        exp
          (List.fold_left (fun acc r -> acc +. log r.pair.Sweep.timing.speedup) 0.0 rows
          /. float_of_int n)
      in
      let wall_ms =
        List.fold_left (fun acc r -> acc +. (r.pair.Sweep.wall_s *. 1000.)) 0.0 rows
      in
      pf
        "    {\"arch\": %S, \"models\": %d, \"geomean_speedup\": %.4f, \
         \"total_wall_ms\": %.3f}%s\n"
        alias n geomean wall_ms
        (if i = List.length arches - 1 then "" else ","))
    arches;
  pf "  ],\n";
  pf "  \"passed\": %d,\n" s.passed;
  pf "  \"failed\": %d,\n" s.failed;
  pf "  \"wall_s\": %.3f\n" s.wall_s;
  pf "}\n";
  Util.Durable.write_atomic path (Buffer.contents b)

let run ?models ?arches ?settings ?tolerance ?cache_path ?bench_path ~gold_dir
    ~out_dir mode =
  let models = Option.value models ~default:(Sweep.fleet_models ()) in
  let arches = Option.value arches ~default:(Sweep.fleet_arches ()) in
  let settings = Option.value settings ~default:Sweep.default_settings in
  let tolerance = Option.value tolerance ~default:default_tolerance in
  let t0 = Unix.gettimeofday () in
  mkdir_p gold_dir;
  mkdir_p out_dir;
  (* Both modes start from a clean process: gold must be cold by contract,
     and regress takes its warmth from the cache file, not from whatever an
     earlier in-process run happened to memoise. *)
  Cnn.Runner.clear_cache ();
  let cache =
    Option.map
      (fun path ->
        if mode = Gold && Sys.file_exists path then Sys.remove path;
        mkdir_p (Filename.dirname path);
        (* Audited: a poisoned warm-replay entry would otherwise flow
           straight into the sweep's timings. *)
        Service.Result_cache.load ~audit:true
          ~generation:(Sweep.generation settings) path)
      cache_path
  in
  let reports =
    List.concat_map
      (fun arch ->
        List.map
          (fun (model : Cnn.Models.t) ->
            let pair = Sweep.run_pair ?cache ~settings arch model in
            let gold_path =
              Gold.path ~dir:gold_dir ~model:model.name
                ~arch:(Gpu_sim.Arch.alias arch)
            in
            write_timing ~out_dir pair;
            match mode with
            | Gold ->
              Gold.write gold_path pair.gold;
              { pair; gold_path; mismatches = []; pass = true }
            | Regress ->
              let mismatches = diff_pair ~tolerance ~gold_path pair in
              let pass = mismatches = [] in
              set_pass_marker ~out_dir pair pass;
              { pair; gold_path; mismatches; pass })
          models)
      arches
  in
  Option.iter Service.Result_cache.flush cache;
  let passed = List.length (List.filter (fun r -> r.pass) reports) in
  let summary =
    {
      mode;
      settings;
      tolerance;
      reports;
      passed;
      failed = List.length reports - passed;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  Option.iter (fun path -> write_bench path summary) bench_path;
  summary

let failed s = s.failed > 0

let print_summary ?(out = stdout) (s : summary) =
  let mode_token = match s.mode with Gold -> "gold" | Regress -> "regress" in
  Printf.fprintf out "Fleet %s sweep: %d pairs, %d live tunes, %d warm, %.1fs\n"
    mode_token (List.length s.reports)
    (List.fold_left (fun acc r -> acc + r.pair.Sweep.live) 0 s.reports)
    (List.fold_left (fun acc r -> acc + r.pair.Sweep.warm) 0 s.reports)
    s.wall_s;
  Util.Table.print ~out (Sweep.summary_table (List.map (fun r -> r.pair) s.reports));
  List.iter
    (fun r ->
      if not r.pass then begin
        Printf.fprintf out "FAIL %s.%s (%d mismatches, gold: %s)\n"
          (Gold.slug r.pair.Sweep.model.Cnn.Models.name)
          (Gpu_sim.Arch.alias r.pair.Sweep.arch)
          (List.length r.mismatches) r.gold_path;
        List.iter
          (fun m -> Printf.fprintf out "  %s\n" (Gold.mismatch_to_string m))
          r.mismatches
      end)
    s.reports;
  match s.mode with
  | Gold -> Printf.fprintf out "Wrote %d golden files.\n" (List.length s.reports)
  | Regress ->
    if s.failed = 0 then
      Printf.fprintf out "All %d pairs match gold.\n" s.passed
    else Printf.fprintf out "%d of %d pairs drifted from gold.\n" s.failed (List.length s.reports)
