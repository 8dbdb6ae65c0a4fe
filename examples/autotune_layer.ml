(* Auto-tune AlexNet conv3 on the simulated V100 with the paper's engine
   (optimality-condition-pruned domain) and compare against the TVM-style
   search over the full domain — a single-layer slice of Table 2.

   Run with: dune exec examples/autotune_layer.exe *)

let () =
  let arch = Gpu_sim.Arch.v100 in
  let spec = (List.nth Cnn.Models.alexnet_table2 2).spec in
  Printf.printf "Tuning AlexNet conv3 on %s: %s\n\n" arch.name (Conv.Conv_spec.to_string spec);

  let ate_space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let tvm_space = Core.Search_space.make ~pruned:false arch spec Core.Config.Direct_dataflow in
  Printf.printf "Search space: ATE %.3g configurations, TVM-style %.3g (%.0f%% kept)\n\n"
    (Core.Search_space.size ate_space)
    (Core.Search_space.size tvm_space)
    (100.0 *. Core.Search_space.size ate_space /. Core.Search_space.size tvm_space);

  let ate = Core.Tuner.tune ~seed:7 ~max_measurements:300 ~space:ate_space () in
  let tvm = Core.Baselines.tvm ~seed:7 ~max_measurements:300 arch spec Core.Config.Direct_dataflow in

  let report name (r : Core.Tuner.result) =
    Printf.printf "%-10s best %.1f us (%.0f GFlops), %d measurements, converged at #%d\n" name
      r.best_runtime_us r.best_gflops r.measurements r.converged_at;
    Printf.printf "           config: %s\n" (Core.Config.to_string r.best_config)
  in
  report "ATE" ate;
  report "TVM-style" tvm;

  Printf.printf "\nBest-so-far curves (GFlops at measurement k):\n";
  let sample (r : Core.Tuner.result) k =
    let rec at = function
      | [] -> None
      | (p : Core.Tuner.progress) :: rest ->
        if p.measurement = k then Some p.best_runtime_us else at rest
    in
    match at r.history with
    | Some runtime -> Printf.sprintf "%.0f" (Core.Tuner.nominal_gflops spec ~runtime_us:runtime)
    | None -> "-"
  in
  let table = Util.Table.create [ "measurement"; "ATE"; "TVM-style" ] in
  List.iter
    (fun k -> Util.Table.add_row table [ string_of_int k; sample ate k; sample tvm k ])
    [ 1; 8; 16; 32; 64; 128; 200; 300 ];
  Util.Table.print table;

  let lib = Gpu_sim.Library_sim.cudnn_direct arch spec in
  Printf.printf "\ncuDNN-style library baseline: %.1f us (%s) -> ATE speedup %.2fx\n"
    lib.runtime_us lib.algorithm (lib.runtime_us /. ate.best_runtime_us);

  (* The tuned configuration as a readable artifact: the kernel template it
     denotes, its roofline breakdown, and the content key and compact
     encoding a result cache stores it under. *)
  Printf.printf "\nKernel template of the winning configuration:\n%s\n"
    (Core.Template.render arch spec ate.best_config);
  Printf.printf "\nRoofline:\n%s\n"
    (Gpu_sim.Roofline.to_string
       (Gpu_sim.Roofline.analyze arch (Core.Config.to_kernel arch spec ate.best_config)));
  Printf.printf "\nResult-cache key and compact config:\n%s\n%s\n"
    (Core.Search_space.canonical ate_space)
    (Core.Config.to_compact ate.best_config)
