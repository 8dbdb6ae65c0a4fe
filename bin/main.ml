(* conv_io — command-line interface to the library.

   Subcommands:
     bounds   print I/O lower bounds and dataflow costs for a layer
     pebble   run the red-blue pebble game on a convolution DAG
     tune     auto-tune a layer on a simulated GPU
     models   end-to-end CNN comparison (Figure 12 style)
     verify   run one convolution through every kernel and cross-check
     serve    tuning-as-a-service daemon on a Unix socket
     ask      one-shot client for a running serve daemon
     scrub    offline audit pass over a result-cache file *)

open Cmdliner

(* --- shared arguments --- *)

let arch_aliases () =
  String.concat ", " (List.map Gpu_sim.Arch.alias Gpu_sim.Arch.all)

let arch_conv =
  let parse s =
    match Gpu_sim.Arch.of_alias s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf "unknown architecture %S (%s)" s (arch_aliases ())))
  in
  let print fmt (a : Gpu_sim.Arch.t) = Format.pp_print_string fmt (Gpu_sim.Arch.alias a) in
  Arg.conv (parse, print)

let arch_arg =
  let doc = "GPU architecture: 1080ti, v100, titanx or gfx906." in
  Arg.(value & opt arch_conv Gpu_sim.Arch.v100 & info [ "arch" ] ~doc)

let spec_term =
  let cin = Arg.(value & opt int 64 & info [ "cin" ] ~doc:"Input channels.") in
  let size = Arg.(value & opt int 56 & info [ "size" ] ~doc:"Input height = width.") in
  let cout = Arg.(value & opt int 64 & info [ "cout" ] ~doc:"Output channels.") in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Kernel edge.") in
  let stride = Arg.(value & opt int 1 & info [ "stride" ] ~doc:"Stride.") in
  let pad = Arg.(value & opt int 0 & info [ "pad" ] ~doc:"Padding.") in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"Batch size.") in
  let groups =
    Arg.(value & opt int 1 & info [ "groups" ] ~doc:"Grouped convolution (depthwise when = cin).")
  in
  let build cin size cout k stride pad batch groups =
    Conv.Conv_spec.square ~batch ~pad ~stride ~groups ~c_in:cin ~size ~c_out:cout ~k ()
  in
  Term.(const build $ cin $ size $ cout $ k $ stride $ pad $ batch $ groups)

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

(* --- bounds --- *)

let bounds_cmd =
  let run spec (arch : Gpu_sim.Arch.t) =
    let s = float_of_int (Gpu_sim.Arch.shared_elems_per_sm arch / 2) in
    Printf.printf "Layer: %s\nFast memory S = %.0f elements (%s, half an SM)\n\n"
      (Conv.Conv_spec.to_string spec) s arch.name;
    Printf.printf "Reuse factor R = Hker*Wker/stride^2 = %.2f\n\n" (Conv.Conv_spec.reuse spec);
    Printf.printf "Direct convolution:\n";
    Printf.printf "  Theorem 4.12 lower bound:  %.3e elements\n"
      (Core.Direct_bound.q_lower spec ~s);
    Printf.printf "  Equation 21 dataflow cost: %.3e elements\n"
      (Core.Dataflow_cost.q_dc_optimal spec ~s ~np:1);
    let tile = Core.Optimality.optimal_tile_direct spec ~s ~np:1 in
    Printf.printf "  optimal tile (xy = Rz):    %dx%dx%d\n" tile.x tile.y tile.z;
    if Conv.Winograd.supported spec then begin
      Printf.printf "\nWinograd algorithm (e = 2):\n";
      Printf.printf "  Theorem 4.20 lower bound:  %.3e elements\n"
        (Core.Winograd_bound.q_lower ~e:2 spec ~s);
      Printf.printf "  Equation 23 dataflow cost: %.3e elements\n"
        (Core.Dataflow_cost.q_wa_optimal ~e:2 spec ~s ~np:1);
      let wtile = Core.Optimality.optimal_tile_winograd ~e:2 spec ~s ~np:1 in
      Printf.printf "  optimal tile:              %dx%dx%d\n" wtile.x wtile.y wtile.z
    end
    else Printf.printf "\nWinograd: not applicable (stride or non-square kernel).\n"
  in
  let info = Cmd.info "bounds" ~doc:"Print I/O lower bounds for a convolution layer." in
  Cmd.v info Term.(const run $ spec_term $ arch_arg)

(* --- pebble --- *)

let pebble_cmd =
  let s_arg = Arg.(value & opt int 64 & info [ "s" ] ~doc:"Red pebbles (fast memory).") in
  let run spec s =
    if spec.Conv.Conv_spec.groups <> 1 then
      failwith "pebble: the convolution DAG builder models ungrouped convolutions";
    let dag_spec =
      {
        Dag.Conv_dag.w_in = spec.Conv.Conv_spec.w_in;
        h_in = spec.h_in;
        c_in = spec.c_in;
        c_out = spec.c_out;
        w_ker = spec.k_w;
        h_ker = spec.k_h;
        stride = spec.stride;
      }
    in
    let dag = Dag.Conv_dag.build dag_spec in
    let g = dag.graph in
    Printf.printf "DAG: %d vertices (%d inputs)\n" (Dag.Graph.num_vertices g)
      (Dag.Graph.num_inputs g);
    let bound = Core.Direct_bound.q_lower spec ~s:(float_of_int s) in
    Printf.printf "Theorem 4.12 bound at S=%d: %.0f\n\n" s bound;
    List.iter
      (fun (name, schedule) ->
        let stats = Pebble.Pebble_game.run g ~schedule ~s ~policy:Pebble.Pebble_game.Lru in
        Printf.printf "%-18s loads %7d stores %6d total %7d (peak red %d)\n" name stats.loads
          stats.stores
          (Pebble.Pebble_game.total_io stats)
          stats.peak_red)
      [
        ("blocked 4x4x1", Dag.Conv_dag.schedule_blocked dag ~bx:4 ~by:4 ~bz:1);
        ("output-stationary", Dag.Conv_dag.schedule_output_stationary dag);
        ("by-step", Dag.Conv_dag.schedule_by_step dag);
      ]
  in
  let info = Cmd.info "pebble" ~doc:"Play the red-blue pebble game on a conv DAG." in
  Cmd.v info Term.(const run $ spec_term $ s_arg)

(* --- tune --- *)

let tune_cmd =
  let budget =
    Arg.(value & opt int 300 & info [ "budget" ] ~doc:"Measurement budget.")
  in
  let tvm = Arg.(value & flag & info [ "tvm" ] ~doc:"Use the unpruned TVM-style domain.") in
  let wino =
    Arg.(value & opt (some int) None & info [ "winograd" ] ~doc:"Tune the Winograd dataflow with tile e.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ]
          ~doc:
            "Durable measurement journal. A killed run resumes from it \
             bit-identically (corrupt records are detected by checksum, \
             salvaged and re-measured).")
  in
  let run spec arch seed budget tvm wino journal =
    let algorithm =
      match wino with None -> Core.Config.Direct_dataflow | Some e -> Core.Config.Winograd_dataflow e
    in
    let space = Core.Search_space.make ~pruned:(not tvm) arch spec algorithm in
    Printf.printf "Tuning %s (%s domain, %.3g configurations)...\n"
      (Conv.Conv_spec.to_string spec)
      (if tvm then "TVM-style full" else "optimality-pruned")
      (Core.Search_space.size space);
    let result = Core.Tuner.tune ~seed ~max_measurements:budget ?journal ~space () in
    Printf.printf "best: %.2f us (%.0f GFlops) after %d measurements (converged at #%d)\n"
      result.best_runtime_us result.best_gflops result.measurements result.converged_at;
    Printf.printf "config: %s\n" (Core.Config.to_string result.best_config);
    if journal <> None then
      Printf.printf "journal: %d trial(s) replayed, %d corrupt record(s) dropped\n"
        result.faults.replayed result.faults.journal_dropped;
    let lib = Gpu_sim.Library_sim.cudnn_direct arch spec in
    Printf.printf "cuDNN-style baseline: %.2f us (%s) -> speedup %.2fx\n" lib.runtime_us
      lib.algorithm (lib.runtime_us /. result.best_runtime_us)
  in
  let info = Cmd.info "tune" ~doc:"Auto-tune a convolution layer on a simulated GPU." in
  Cmd.v info Term.(const run $ spec_term $ arch_arg $ seed_arg $ budget $ tvm $ wino $ journal)

(* --- models --- *)

let models_cmd =
  let budget =
    Arg.(value & opt int 150 & info [ "budget" ] ~doc:"Measurement budget per layer.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Time each model under run-level supervision with the default fault \
             profile injected: flaky measurements, circuit breakers, a global \
             virtual-time budget, analytic degradation.  Prints each run's \
             health report after the table.")
  in
  let budget_us =
    Arg.(
      value
      & opt float infinity
      & info [ "budget-us" ]
          ~doc:
            "Global virtual-time budget (microseconds) shared by a supervised \
             model's tuning tasks (with $(b,--chaos); default unbounded).")
  in
  let run arch seed budget chaos budget_us =
    let table = Util.Table.create [ "model"; "ours (us)"; "library (us)"; "speedup" ] in
    let reports = ref [] in
    List.iter
      (fun m ->
        let supervise, faults =
          if chaos then
            ( Some { Core.Supervisor.default_policy with budget_us },
              Some Gpu_sim.Faults.default )
          else (None, None)
        in
        let t =
          Cnn.Runner.time_model ~seed ~max_measurements:budget ?faults ?supervise arch m
        in
        Option.iter (fun h -> reports := (t.Cnn.Runner.model, h) :: !reports) t.health;
        Util.Table.add_row table
          [
            t.model;
            Printf.sprintf "%.0f" t.ours_total_us;
            Printf.sprintf "%.0f" t.library_total_us;
            Printf.sprintf "%.2fx" t.speedup;
          ])
      Cnn.Models.evaluation_models;
    Util.Table.print table;
    List.iter
      (fun (model, h) ->
        Printf.printf "\n[%s]\n%s" model (Core.Supervisor.report_to_string h))
      (List.rev !reports)
  in
  let info = Cmd.info "models" ~doc:"End-to-end CNN comparison on a simulated GPU." in
  Cmd.v info Term.(const run $ arch_arg $ seed_arg $ budget $ chaos $ budget_us)

(* --- verify --- *)

let verify_cmd =
  let run spec seed =
    let rng = Util.Rng.create seed in
    let input, weights = Conv.Direct.random_problem rng spec in
    let reference = Conv.Direct.run spec ~input ~weights in
    let check name t =
      Printf.printf "%-24s max|diff| = %.3g  %s\n" name
        (Tensor.max_abs_diff reference t)
        (if Tensor.allclose reference t then "OK" else "MISMATCH")
    in
    check "im2col+GEMM" (Conv.Im2col.run spec ~input ~weights);
    if Conv.Winograd.supported spec then begin
      check "winograd F(2)" (Conv.Winograd.run ~e:2 spec ~input ~weights);
      check "winograd F(4)" (Conv.Winograd.run ~e:4 spec ~input ~weights)
    end;
    let tile = Core.Optimality.optimal_tile_direct spec ~s:12288.0 ~np:1 in
    check "tiled direct dataflow" (Conv.Tiled_direct.run spec ~tile ~input ~weights).output
  in
  let info = Cmd.info "verify" ~doc:"Cross-check every convolution kernel on one layer." in
  Cmd.v info Term.(const run $ spec_term $ seed_arg)

(* --- explain --- *)

let explain_cmd =
  let run spec arch seed =
    let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
    let result = Core.Tuner.tune ~seed ~max_measurements:200 ~space () in
    Printf.printf "Layer: %s on %s\n" (Conv.Conv_spec.to_string spec) arch.Gpu_sim.Arch.name;
    Printf.printf "Tuned config: %s\n\n" (Core.Config.to_string result.best_config);
    let kernel = Core.Config.to_kernel arch spec result.best_config in
    print_endline (Gpu_sim.Roofline.to_string (Gpu_sim.Roofline.analyze arch kernel));
    Printf.printf "\nKernel template:\n%s\n" (Core.Template.render arch spec result.best_config);
    let lib = Gpu_sim.Library_sim.cudnn_direct arch spec in
    Printf.printf "\nLibrary pick (%s) for comparison:\n" lib.algorithm;
    print_endline (Gpu_sim.Roofline.to_string (Gpu_sim.Roofline.analyze arch lib.kernel))
  in
  let info = Cmd.info "explain" ~doc:"Roofline breakdown of the tuned kernel vs the library." in
  Cmd.v info Term.(const run $ spec_term $ arch_arg $ seed_arg)

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~doc:"Unix-domain socket path to listen on.")
  in
  let cache =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache" ]
          ~doc:
            "Durable result-cache file (created if missing; salvaged and \
             repaired if corrupted).  Survives kill -9: repeat queries after a \
             restart answer without re-tuning.")
  in
  let budget =
    Arg.(value & opt int 300 & info [ "budget" ] ~doc:"Measurement budget per tune.")
  in
  let budget_us =
    Arg.(
      value
      & opt float infinity
      & info [ "budget-us" ]
          ~doc:
            "Global virtual-time tuning budget shared fairly across requests; \
             once exhausted, answers degrade to analytic configurations (typed \
             $(b,source=degraded)).")
  in
  let max_pending =
    Arg.(
      value & opt int 8
      & info [ "max-pending" ]
          ~doc:"Distinct queued tunes beyond which requests get BUSY retry-after.")
  in
  let read_deadline =
    Arg.(
      value & opt float 30.0
      & info [ "read-deadline" ]
          ~doc:"Seconds an idle connection may hold a descriptor before ERR timeout.")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ]
          ~doc:
            "Directory for per-request tune journals: a daemon killed mid-tune \
             resumes the interrupted search from its journal on the next request.")
  in
  let request_deadline =
    Arg.(
      value & opt float 10.0
      & info [ "request-deadline" ]
          ~doc:
            "Seconds a partial request may dribble in (or a stalled response \
             flush may linger) before ERR timeout — the slow-loris bound.")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ]
          ~doc:
            "Concurrent-connection ceiling; accepts beyond it are answered \
             BUSY retry-after immediately and closed.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ] ~doc:"Inject the default GPU fault profile (demo/testing).")
  in
  let no_audit =
    Arg.(
      value & flag
      & info [ "no-audit" ]
          ~doc:
            "Disable the answer-integrity audit (cache records at load and \
             before each hit, fresh results after tuning).  Audited rejects \
             are quarantined to CACHE.quarantine and re-tuned; with this \
             flag the daemon trusts whatever the cache file says.")
  in
  let scrub_per_step =
    Arg.(
      value & opt int 0
      & info [ "scrub-per-step" ]
          ~doc:
            "Background cache scrubbing: re-audit this many cache entries \
             per engine step (0 = off).  A full pass quarantines every \
             record that no longer re-derives.")
  in
  let run socket cache seed budget budget_us max_pending read_deadline
      request_deadline max_conns journal_dir chaos no_audit scrub_per_step =
    let settings =
      {
        Service.Engine.default_settings with
        budget_trials = budget;
        seed;
        max_pending;
        journal_dir;
        faults = (if chaos then Some Gpu_sim.Faults.default else None);
        policy = { Core.Supervisor.default_policy with budget_us };
        audit = not no_audit;
        scrub_per_step;
      }
    in
    Printf.printf "conv_io serve: socket %s, cache %s, generation %s\n%!" socket cache
      (Service.Engine.generation_of_settings settings);
    let engine =
      Service.Daemon.serve ~socket ~cache ~settings ~read_deadline_s:read_deadline
        ~request_deadline_s:request_deadline ~max_conns ()
    in
    Printf.printf "drained; final stats:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-16s %s\n" k v) (Service.Engine.stats engine);
    print_string (Core.Supervisor.report_to_string (Service.Engine.health engine))
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Tuning-as-a-service daemon: a Unix-socket line protocol in front of a \
         crash-safe shared result cache with request coalescing, admission \
         control and graceful SIGTERM drain."
  in
  Cmd.v info
    Term.(
      const run $ socket $ cache $ seed_arg $ budget $ budget_us $ max_pending
      $ read_deadline $ request_deadline $ max_conns $ journal_dir $ chaos
      $ no_audit $ scrub_per_step)

(* --- ask --- *)

let ask_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~doc:"Socket of a running $(b,conv_io serve) daemon.")
  in
  let wino =
    Arg.(
      value
      & opt (some int) None
      & info [ "winograd" ] ~doc:"Ask for the Winograd dataflow with tile e.")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~doc:"Send this raw request line instead (e.g. PING, STATS).")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ]
          ~doc:
            "Total request deadline in milliseconds, spanning all retries and \
             propagated to the daemon as the $(b,deadline-ms) field so it can \
             shed work nobody will collect.")
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ]
          ~doc:"Attempt budget: retries are idempotent (same canonical key).")
  in
  let attempt_timeout =
    Arg.(
      value & opt int 2000
      & info [ "attempt-timeout" ]
          ~doc:"Milliseconds to wait for an answer on one attempt.")
  in
  let chaos_rate =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-rate" ]
          ~doc:
            "Inject wire faults at this per-attempt rate (0..1) on the way \
             out — the flaky-network walkthrough.  Deterministic per \
             $(b,--chaos-seed).")
  in
  let chaos_seed =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~doc:"Seed for wire-fault plans and retry jitter.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print the per-attempt retry trace to stderr (audited answers \
             are marked $(b,[audit=ok]); rejects show their reason tokens).")
  in
  let no_audit =
    Arg.(
      value & flag
      & info [ "no-audit" ]
          ~doc:
            "Accept OK answers without re-deriving their analytic claims \
             through the client-side audit.")
  in
  let run spec arch wino raw socket deadline retries attempt_timeout chaos_rate
      chaos_seed trace no_audit =
    let settings =
      {
        Service.Client.default_settings with
        deadline_ms = deadline;
        max_attempts = retries;
        attempt_timeout_ms = attempt_timeout;
        seed = chaos_seed;
        faults =
          (if chaos_rate > 0.0 then Service.Net_faults.with_rate chaos_rate
           else Service.Net_faults.none);
        audit = not no_audit;
      }
    in
    let result, attempts =
      match raw with
      | Some line -> Service.Client.ask_raw ~settings ~socket line
      | None ->
        let algorithm =
          match wino with
          | None -> Core.Config.Direct_dataflow
          | Some e -> Core.Config.Winograd_dataflow e
        in
        Service.Client.ask ~settings ~socket
          (Service.Protocol.Tune
             {
               Service.Protocol.spec;
               arch;
               algorithm;
               pruned = true;
               deadline_ms = deadline;
             })
    in
    if trace || Result.is_error result then
      List.iter
        (fun a -> Printf.eprintf "%s\n%!" (Service.Client.attempt_to_string a))
        attempts;
    match result with
    | Ok resp ->
      print_endline (Service.Protocol.render_response resp);
      (match resp with Service.Protocol.Error _ -> exit 1 | _ -> ())
    | Error failure ->
      Printf.eprintf "ask: %s\n%!" (Service.Client.failure_to_string failure);
      exit 2
  in
  let info =
    Cmd.info "ask"
      ~doc:
        "Send one request to a serve daemon through the resilient client: \
         retries with capped jittered backoff, BUSY retry-after honored, \
         idempotent by canonical key, total deadline propagated."
  in
  Cmd.v info
    Term.(
      const run $ spec_term $ arch_arg $ wino $ raw $ socket $ deadline
      $ retries $ attempt_timeout $ chaos_rate $ chaos_seed $ trace $ no_audit)

(* --- scrub --- *)

let scrub_cmd =
  let cache =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache" ] ~doc:"Result-cache file to scrub.")
  in
  let budget =
    Arg.(
      value & opt int 300
      & info [ "budget" ]
          ~doc:
            "Measurement budget of the daemon that owns the cache — part of \
             the cache generation; records of other generations are stale, \
             not scrubbed.")
  in
  let run cache seed budget =
    let settings =
      { Service.Engine.default_settings with budget_trials = budget; seed }
    in
    let generation = Service.Engine.generation_of_settings settings in
    (* Audited load: records that fail even to decode honestly (forged key,
       mangled floats) are quarantined right here; the scrub pass below
       re-derives everything the load admitted. *)
    let c = Service.Result_cache.load ~audit:true ~generation cache in
    let load_rejects = Service.Result_cache.quarantined c in
    Printf.printf "conv_io scrub: cache %s, generation %s, %d live entries\n" cache
      generation
      (Service.Result_cache.entries c);
    let report = Service.Result_cache.scrub c in
    Printf.printf "examined %d, quarantined %d at load + %d in the pass, %d entries remain\n"
      report.Service.Result_cache.examined load_rejects report.quarantined
      report.remaining;
    let qpath = Service.Result_cache.quarantine_path c in
    Printf.printf "quarantine ledger: %s (%d records)\n" qpath
      (Service.Quarantine.count qpath);
    if load_rejects + report.quarantined > 0 then exit 1
  in
  let info =
    Cmd.info "scrub"
      ~doc:
        "Offline audit pass over a result-cache file: every record is \
         re-derived through the answer-integrity auditor; records that lie \
         are moved to the durable quarantine sidecar and the cache is \
         compacted to exactly the entries that passed.  Exits 1 if anything \
         was quarantined."
  in
  Cmd.v info Term.(const run $ cache $ seed_arg $ budget)

(* --- gold / regress --- *)

(* The two commands share everything but the mode: same fleet selection, same
   directories, same sweep settings — so a regress run is guaranteed to
   re-measure exactly what the gold run recorded. *)
let fleet_term =
  let model_conv =
    let parse s =
      let slug = Regress.Gold.slug s in
      match
        List.find_opt
          (fun (m : Cnn.Models.t) -> Regress.Gold.slug m.name = slug)
          (Regress.Sweep.fleet_models ())
      with
      | Some m -> Ok m
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown model %S (%s)" s
                (String.concat ", "
                   (List.map
                      (fun (m : Cnn.Models.t) -> Regress.Gold.slug m.name)
                      (Regress.Sweep.fleet_models ())))))
    in
    let print fmt (m : Cnn.Models.t) =
      Format.pp_print_string fmt (Regress.Gold.slug m.name)
    in
    Arg.conv (parse, print)
  in
  let models =
    Arg.(
      value
      & opt (some (list model_conv)) None
      & info [ "models" ]
          ~doc:"Comma-separated model subset (slugs, e.g. resnet-18,mobilenet-v1).")
  in
  let arches =
    Arg.(
      value
      & opt (some (list arch_conv)) None
      & info [ "arches" ] ~doc:"Comma-separated architecture subset (aliases).")
  in
  let gold_dir =
    Arg.(
      value & opt string "regress/gold"
      & info [ "gold-dir" ] ~doc:"Directory of golden files.")
  in
  let out_dir =
    Arg.(
      value & opt string "regress/out"
      & info [ "out-dir" ] ~doc:"Directory for .pass and .timing markers.")
  in
  let cache =
    Arg.(
      value
      & opt string "regress/cache/fleet.cache"
      & info [ "cache" ]
          ~doc:
            "Shared result-cache file: written by $(b,gold), primes the warm \
             replay layer of $(b,regress).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Run without the result cache.")
  in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~doc:"Write the fleet sweep trajectory to this JSON file.")
  in
  let budget =
    Arg.(
      value & opt int Regress.Sweep.default_settings.budget
      & info [ "budget" ] ~doc:"Measurement budget per tuning run.")
  in
  let make models arches gold_dir out_dir cache no_cache bench seed budget =
    let settings = { Regress.Sweep.default_settings with seed; budget } in
    let cache_path = if no_cache then None else Some cache in
    fun ?tolerance mode ->
      let summary =
        Regress.Harness.run ?models ?arches ~settings ?tolerance ?cache_path
          ?bench_path:bench ~gold_dir ~out_dir mode
      in
      Regress.Harness.print_summary summary;
      if Regress.Harness.failed summary then exit 1
  in
  Term.(
    const make $ models $ arches $ gold_dir $ out_dir $ cache $ no_cache $ bench
    $ seed_arg $ budget)

let gold_cmd =
  let run (fleet : ?tolerance:float -> Regress.Harness.mode -> unit) =
    fleet Regress.Harness.Gold
  in
  let info =
    Cmd.info "gold"
      ~doc:
        "Sweep the CNN fleet across every simulated architecture and record \
         golden per-layer results (deterministic: re-running produces \
         byte-identical files)."
  in
  Cmd.v info Term.(const run $ fleet_term)

let regress_cmd =
  let tolerance =
    Arg.(
      value
      & opt float Regress.Harness.default_tolerance
      & info [ "tolerance" ] ~doc:"Relative drift allowed on cost fields.")
  in
  let run (fleet : ?tolerance:float -> Regress.Harness.mode -> unit) tolerance =
    fleet ~tolerance Regress.Harness.Regress
  in
  let info =
    Cmd.info "regress"
      ~doc:
        "Re-sweep the fleet (warm, via the shared result cache) and diff \
         against the golden files; exits 1 with a typed mismatch report on \
         any drift."
  in
  Cmd.v info Term.(const run $ fleet_term $ tolerance)

let () =
  let doc = "I/O lower bounds and auto-tuning for CNN convolutions (PPoPP'21 reproduction)" in
  let info = Cmd.info "conv_io" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bounds_cmd; pebble_cmd; tune_cmd; models_cmd; verify_cmd; explain_cmd;
            serve_cmd; ask_cmd; scrub_cmd; gold_cmd; regress_cmd;
          ]))
