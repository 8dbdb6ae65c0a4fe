(* Time every CNN in the zoo against the simulated vendor library on a chosen
   architecture, reusing tuning results across runs through a result cache:
   the first invocation tunes every distinct layer shape; later invocations
   answer from the cache and finish in seconds.  The cache is audited on
   every read and tagged with the sweep settings, so a record that does not
   re-derive, or one tuned under another budget, is tuned afresh.

   The timing itself routes through the fleet-sweep machinery (Regress.Sweep)
   — the same code path `conv-io gold` and `conv-io regress` enforce — so the
   zoo table and the golden files can never disagree about what was measured.

   Run with: dune exec examples/model_zoo.exe [-- arch [cache-file]]
   where arch is one of: 1080ti, v100, titanx, gfx906 (default v100). *)

let () =
  let arch, cache_path =
    match Array.to_list Sys.argv with
    | _ :: alias :: rest -> (
      match Gpu_sim.Arch.of_alias alias with
      | Some arch ->
        (arch, match rest with path :: _ -> path | [] -> "model_zoo.cache")
      | None ->
        Printf.eprintf "unknown architecture %S (expected %s)\n" alias
          (String.concat ", " (List.map Gpu_sim.Arch.alias Gpu_sim.Arch.all));
        exit 2)
    | _ -> (Gpu_sim.Arch.v100, "model_zoo.cache")
  in
  let settings = { Regress.Sweep.default_settings with budget = 150 } in
  let cache =
    Service.Result_cache.load ~audit:true ~generation:(Regress.Sweep.generation settings)
      cache_path
  in
  let cached = Service.Result_cache.entries cache in
  if cached > 0 then
    Printf.printf "Loaded %d tuned configurations from %s.\n\n" cached cache_path
  else Printf.printf "No results cached at %s yet; tuning from scratch.\n\n" cache_path;

  let pairs =
    List.map
      (fun m -> Regress.Sweep.run_pair ~cache ~settings arch m)
      (Regress.Sweep.fleet_models ())
  in
  Util.Table.print (Regress.Sweep.summary_table pairs);

  Service.Result_cache.flush cache;
  Printf.printf "\nSaved %d tuned configurations to %s (rerun to skip tuning).\n"
    (Service.Result_cache.entries cache) cache_path;
  print_endline
    "MobileNet's depthwise layers tune through the same engine: the grouped dataflow";
  print_endline "keeps the optimality condition with the per-group channel count."
