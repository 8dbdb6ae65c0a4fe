(* Tests for the CNN model zoo and the end-to-end runner: layer shape
   chaining, flop totals, winograd eligibility, tuning-cache behaviour and
   the Figure 12 invariants (every model at least matches the library; the
   1x1-heavy SqueezeNet gains the most). *)

module Spec = Conv.Conv_spec

let arch = Gpu_sim.Arch.v100

let test_layer_basic () =
  let spec = Spec.square ~c_in:3 ~size:8 ~c_out:4 ~k:3 () in
  let layer = Cnn.Layer.make ~count:2 "l" spec in
  Alcotest.(check (float 1e-6)) "flops" (2.0 *. Spec.flops spec) (Cnn.Layer.flops layer);
  Alcotest.(check bool) "eligible" true (Cnn.Layer.winograd_eligible layer);
  Alcotest.check_raises "count" (Invalid_argument "Layer.make: non-positive count") (fun () ->
      ignore (Cnn.Layer.make ~count:0 "bad" spec))

let test_layer_winograd_eligibility () =
  let strided = Spec.square ~c_in:3 ~size:8 ~c_out:4 ~k:3 ~stride:2 () in
  Alcotest.(check bool) "strided not eligible" false
    (Cnn.Layer.winograd_eligible (Cnn.Layer.make "s" strided));
  let one_by_one = Spec.square ~c_in:3 ~size:8 ~c_out:4 ~k:1 () in
  Alcotest.(check bool) "1x1 not eligible" false
    (Cnn.Layer.winograd_eligible (Cnn.Layer.make "p" one_by_one))

(* Spatial sizes must chain: each layer's input extent is plausible given the
   previous output (models list distinct shapes, so we just check every spec
   is well-formed and output extents are positive). *)
let test_models_well_formed () =
  List.iter
    (fun (m : Cnn.Models.t) ->
      Alcotest.(check bool) (m.name ^ " has layers") true (Cnn.Models.num_layers m > 0);
      List.iter
        (fun (l : Cnn.Layer.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s output positive" m.name l.name)
            true
            (Spec.h_out l.spec >= 1 && Spec.w_out l.spec >= 1))
        m.layers)
    (Cnn.Models.alexnet :: Cnn.Models.mobilenet :: Cnn.Models.evaluation_models)

let test_mobilenet_depthwise () =
  let dw =
    List.find (fun (l : Cnn.Layer.t) -> l.name = "dw8") Cnn.Models.mobilenet.layers
  in
  Alcotest.(check int) "depthwise groups" 512 dw.spec.groups;
  Alcotest.(check bool) "not winograd eligible" false (Cnn.Layer.winograd_eligible dw);
  (* A depthwise layer must be tunable end to end. *)
  Cnn.Runner.clear_cache ();
  let small =
    Cnn.Layer.make "dw-small"
      (Conv.Conv_spec.square ~groups:16 ~c_in:16 ~size:14 ~c_out:16 ~k:3 ~pad:1 ())
  in
  let t = Cnn.Runner.time_layer ~max_measurements:60 arch small in
  Alcotest.(check bool) "tuned" true (t.ours_us > 0.0 && t.library_us > 0.0)

let test_alexnet_shapes () =
  (* The canonical AlexNet activations: 227 -> 55 -> (pool) 27 -> 27 -> 13. *)
  match Cnn.Models.alexnet.layers with
  | c1 :: c2 :: c3 :: _ ->
    Alcotest.(check int) "conv1 out" 55 (Spec.h_out c1.spec);
    Alcotest.(check int) "conv2 out" 27 (Spec.h_out c2.spec);
    Alcotest.(check int) "conv3 out" 13 (Spec.h_out c3.spec)
  | _ -> Alcotest.fail "alexnet missing layers"

let test_alexnet_table2_rows () =
  Alcotest.(check int) "four rows" 4 (List.length Cnn.Models.alexnet_table2);
  let row n = List.nth Cnn.Models.alexnet_table2 n in
  Alcotest.(check int) "conv1 cin" 3 (row 0).spec.c_in;
  Alcotest.(check int) "conv1 k" 11 (row 0).spec.k_h;
  Alcotest.(check int) "conv1 stride" 4 (row 0).spec.stride;
  Alcotest.(check int) "conv3 cout" 384 (row 2).spec.c_out;
  Alcotest.(check int) "conv4 cin" 384 (row 3).spec.c_in

let test_vgg19_conv_count () =
  (* VGG-19 has 16 convolution executions. *)
  let executions =
    List.fold_left (fun acc (l : Cnn.Layer.t) -> acc + l.count) 0 Cnn.Models.vgg19.layers
  in
  Alcotest.(check int) "16 convs" 16 executions

let test_resnet_conv_counts () =
  let executions (m : Cnn.Models.t) =
    List.fold_left (fun acc (l : Cnn.Layer.t) -> acc + l.count) 0 m.layers
  in
  (* 1 stem + 16 block convs + 3 projections. *)
  Alcotest.(check int) "resnet18" 20 (executions Cnn.Models.resnet18);
  (* 1 stem + 32 block convs + 3 projections. *)
  Alcotest.(check int) "resnet34" 36 (executions Cnn.Models.resnet34)

let test_inception_rect_kernels () =
  let has_rect =
    List.exists
      (fun (l : Cnn.Layer.t) -> l.spec.k_h <> l.spec.k_w)
      Cnn.Models.inception_v3.layers
  in
  Alcotest.(check bool) "factorised kernels present" true has_rect;
  (* 1x7 with pad_w 3 preserves the 17x17 grid. *)
  let l =
    List.find (fun (l : Cnn.Layer.t) -> l.name = "mixedB/1x7") Cnn.Models.inception_v3.layers
  in
  Alcotest.(check int) "h_out" 17 (Spec.h_out l.spec);
  Alcotest.(check int) "w_out" 17 (Spec.w_out l.spec)

let test_total_flops_positive_and_ordered () =
  let f m = Cnn.Models.total_flops m in
  Alcotest.(check bool) "vgg heaviest" true
    (f Cnn.Models.vgg19 > f Cnn.Models.resnet34);
  Alcotest.(check bool) "resnet34 > resnet18" true
    (f Cnn.Models.resnet34 > f Cnn.Models.resnet18);
  Alcotest.(check bool) "squeezenet lightest" true
    (f Cnn.Models.squeezenet < f Cnn.Models.resnet18)

let test_runner_layer_timing () =
  Cnn.Runner.clear_cache ();
  let layer = Cnn.Layer.make "t" (Spec.square ~c_in:16 ~size:14 ~c_out:16 ~k:3 ~pad:1 ()) in
  let t = Cnn.Runner.time_layer ~max_measurements:60 arch layer in
  Alcotest.(check bool) "ours positive" true (t.ours_us > 0.0);
  Alcotest.(check bool) "library positive" true (t.library_us > 0.0);
  Alcotest.(check bool) "algorithms named" true
    (String.length t.ours_algorithm > 0 && String.length t.library_algorithm > 0)

let test_runner_cache_hit () =
  Cnn.Runner.clear_cache ();
  let spec = Spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:3 () in
  let a = Cnn.Runner.tuned_runtime ~max_measurements:60 arch spec Core.Config.Direct_dataflow in
  let b = Cnn.Runner.tuned_runtime ~max_measurements:60 arch spec Core.Config.Direct_dataflow in
  Alcotest.(check (float 0.0)) "cache returns identical result" a.best_runtime_us
    b.best_runtime_us

let test_runner_model_aggregates () =
  Cnn.Runner.clear_cache ();
  let model =
    {
      Cnn.Models.name = "toy";
      layers =
        [
          Cnn.Layer.make ~count:2 "a" (Spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:3 ~pad:1 ());
          Cnn.Layer.make "b" (Spec.square ~c_in:8 ~size:12 ~c_out:16 ~k:1 ());
        ];
    }
  in
  let t = Cnn.Runner.time_model ~max_measurements:60 arch model in
  Alcotest.(check int) "layer timings" 2 (List.length t.layers);
  let manual =
    List.fold_left
      (fun acc (lt : Cnn.Runner.layer_timing) ->
        acc +. (float_of_int lt.layer.count *. lt.ours_us))
      0.0 t.layers
  in
  Alcotest.(check (float 1e-9)) "weighted total" manual t.ours_total_us;
  Alcotest.(check (float 1e-9)) "speedup consistent" (t.library_total_us /. t.ours_total_us)
    t.speedup

let temp_cache prefix =
  let path = Filename.temp_file prefix ".cache" in
  Sys.remove path;
  path

let remove_cache path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".quarantine" ]

(* The result cache is the memo's durable backing: a live tune is written
   back once; after the memo is dropped, a reloaded (audited) cache answers
   the same layer without tuning, bit-identically, flagged as replayed —
   and the memo keeps that provenance on later hits. *)
let test_runner_cache_roundtrip () =
  Cnn.Runner.clear_cache ();
  let path = temp_cache "runner" in
  let generation = "runner-test" in
  (* 1x1 kernel: the direct dataflow is the only candidate. *)
  let layer = Cnn.Layer.make "r" (Spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:1 ()) in
  let cache = Service.Result_cache.load ~audit:true ~generation path in
  let fresh = Cnn.Runner.time_layer ~cache ~max_measurements:60 arch layer in
  Alcotest.(check int) "the write-back was audited once" fresh.live
    (Service.Result_cache.audited cache);
  Alcotest.(check int) "tuned live" 1 fresh.live;
  Alcotest.(check bool) "live result not replayed" false fresh.ours_replayed;
  Alcotest.(check int) "written back once" 1 (Service.Result_cache.entries cache);
  Cnn.Runner.clear_cache ();
  let cache = Service.Result_cache.load ~audit:true ~generation path in
  let reused = Cnn.Runner.time_layer ~cache ~max_measurements:60 arch layer in
  Alcotest.(check int) "no live tune" 0 reused.live;
  Alcotest.(check bool) "served from the cache" true reused.ours_replayed;
  Alcotest.(check (float 0.0)) "same runtime" fresh.ours_us reused.ours_us;
  (match (fresh.ours_result, reused.ours_result) with
  | Some f, Some r ->
    Alcotest.(check bool) "same config" true (f.best_config = r.best_config);
    Alcotest.(check int) "trial count kept" f.measurements r.measurements
  | _ -> Alcotest.fail "ours_result missing");
  Alcotest.(check int) "nothing quarantined" 0 (Service.Result_cache.quarantined cache);
  let again = Cnn.Runner.time_layer ~max_measurements:60 arch layer in
  Alcotest.(check bool) "memo keeps provenance" true (again.ours_replayed && again.live = 0);
  remove_cache path;
  Cnn.Runner.clear_cache ()

(* The memo key carries every input that decides a result.  Without a
   [clear_cache] between the calls, a larger budget and then a fault profile
   on an already-tuned shape must each answer exactly what a cold run with
   those settings answers, not the earlier result. *)
let test_memo_key_settings () =
  Cnn.Runner.clear_cache ();
  let spec = Spec.square ~c_in:16 ~size:14 ~c_out:32 ~k:3 ~pad:1 () in
  let tune ?faults budget =
    Cnn.Runner.tuned_runtime ?faults ~max_measurements:budget arch spec
      Core.Config.Direct_dataflow
  in
  let same (a : Core.Tuner.result) (b : Core.Tuner.result) =
    a.best_config = b.best_config
    && a.best_runtime_us = b.best_runtime_us
    && a.measurements = b.measurements && a.faults = b.faults
  in
  let short = tune 20 in
  let long = tune 60 in
  let faulty = tune ~faults:Gpu_sim.Faults.default 60 in
  Cnn.Runner.clear_cache ();
  let cold_long = tune 60 in
  Cnn.Runner.clear_cache ();
  let cold_faulty = tune ~faults:Gpu_sim.Faults.default 60 in
  Alcotest.(check bool) "budgets tune differently" false (same short cold_long);
  Alcotest.(check bool) "larger budget not served the 20-trial result" true
    (same long cold_long);
  Alcotest.(check bool) "faults tune differently" false (same cold_long cold_faulty);
  Alcotest.(check bool) "fault profile not served the clean result" true
    (same faulty cold_faulty);
  Cnn.Runner.clear_cache ()

(* A tune without supervision whose every trial fails (no launch fits a
   zero shared-memory budget) degrades to a valid analytic configuration
   instead of raising, and the degraded answer never reaches the cache. *)
let test_unsupervised_degrades () =
  Cnn.Runner.clear_cache ();
  let spec = Spec.square ~c_in:16 ~size:14 ~c_out:16 ~k:3 ~pad:1 () in
  let faults = { Gpu_sim.Faults.none with launch_shmem_frac = 0.0 } in
  let r =
    Cnn.Runner.tuned_runtime ~faults ~max_measurements:20 arch spec
      Core.Config.Direct_dataflow
  in
  (match r.stop with
  | Core.Tuner.Breaker_tripped _ -> ()
  | stop ->
    Alcotest.failf "expected a degraded stop, got %s" (Core.Tuner.stop_reason_to_string stop));
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  Alcotest.(check bool) "degraded config is a domain member" true
    (Core.Search_space.validate space r.best_config = Ok ());
  Cnn.Runner.clear_cache ();
  let path = temp_cache "degraded" in
  let cache = Service.Result_cache.load ~audit:true ~generation:"degraded-test" path in
  let t =
    Cnn.Runner.time_layer ~cache ~faults ~max_measurements:20 arch
      (Cnn.Layer.make "d" spec)
  in
  Alcotest.(check int) "every candidate tuned" (List.length (Cnn.Runner.candidates t.layer))
    t.live;
  Alcotest.(check int) "degraded answers are not cached" 0
    (Service.Result_cache.entries cache);
  remove_cache path;
  Cnn.Runner.clear_cache ()

let test_figure12_shape () =
  (* The headline invariants of Figure 12 on a reduced budget: every model is
     at least par with the library, and SqueezeNet (1x1-heavy, tiny layers)
     gains the most. *)
  Cnn.Runner.clear_cache ();
  let timings =
    List.map
      (fun m -> Cnn.Runner.time_model ~max_measurements:80 arch m)
      [ Cnn.Models.squeezenet; Cnn.Models.resnet18 ]
  in
  List.iter
    (fun (t : Cnn.Runner.model_timing) ->
      Alcotest.(check bool) (t.model ^ " at least par") true (t.speedup > 0.95))
    timings;
  match timings with
  | [ squeezenet; resnet ] ->
    Alcotest.(check bool)
      (Printf.sprintf "squeezenet %.2f > resnet %.2f" squeezenet.speedup resnet.speedup)
      true
      (squeezenet.speedup > resnet.speedup)
  | _ -> Alcotest.fail "expected two timings"

(* --- memo accounting: cache hits are free Replayed tasks --- *)

(* A two-layer model whose layers share one shape: the second layer's
   candidates must be served from the memo table — reported as [Replayed]
   tasks that charge the session budget nothing — and a warm re-run must
   reproduce the cold golden cost bit for bit. *)
let test_memo_replayed_accounting () =
  Cnn.Runner.clear_cache ();
  let spec = Spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:3 () in
  let model =
    {
      Cnn.Models.name = "Mini-Twin";
      layers = [ Cnn.Layer.make "a" spec; Cnn.Layer.make ~count:2 "b" spec ];
    }
  in
  Alcotest.(check int) "two candidates per layer" 2
    (List.length (Cnn.Runner.candidates (List.hd model.layers)));
  let policy = Core.Supervisor.default_policy in
  let cold = Cnn.Runner.time_model ~max_measurements:60 ~supervise:policy arch model in
  let report = Option.get cold.health in
  let replayed, live =
    List.partition
      (fun (t : Core.Supervisor.task_report) ->
        match t.outcome with Core.Supervisor.Replayed _ -> true | _ -> false)
      report.tasks
  in
  Alcotest.(check int) "layer b's candidates replayed" 2 (List.length replayed);
  Alcotest.(check int) "layer a's candidates tuned live" 2 (List.length live);
  List.iter
    (fun (t : Core.Supervisor.task_report) ->
      Alcotest.(check (float 0.0)) ("replay is free: " ^ t.key) 0.0 t.spent_us)
    replayed;
  (* Warm re-run: every task replays, the whole session costs nothing, and
     the timings are identical to the cold run's — the invariant the gold
     regress harness leans on. *)
  let warm = Cnn.Runner.time_model ~max_measurements:60 ~supervise:policy arch model in
  let wreport = Option.get warm.health in
  List.iter
    (fun (t : Core.Supervisor.task_report) ->
      match t.outcome with
      | Core.Supervisor.Replayed _ -> ()
      | o -> Alcotest.failf "warm task %s not replayed (%s)" t.key (Core.Supervisor.outcome_label o))
    wreport.tasks;
  Alcotest.(check (float 0.0)) "warm session spends no budget" 0.0
    wreport.budget_spent_us;
  Alcotest.(check (float 0.0)) "golden cost identical warm vs cold"
    cold.ours_total_us warm.ours_total_us;
  List.iter2
    (fun (c : Cnn.Runner.layer_timing) (w : Cnn.Runner.layer_timing) ->
      Alcotest.(check (float 0.0)) ("layer " ^ c.layer.name) c.ours_us w.ours_us)
    cold.layers warm.layers;
  Cnn.Runner.clear_cache ()

(* A result primed into the cache is found by the runner: it answers
   without tuning, surfaces through [layer_timing.ours_result] flagged as
   replayed, and stays in the one memo for callers without a cache. *)
let test_prime_and_find_result () =
  Cnn.Runner.clear_cache ();
  (* 1x1 kernel: not Winograd-eligible, so the direct dataflow is the only
     candidate and the primed result must win outright. *)
  let spec = Spec.square ~c_in:8 ~size:12 ~c_out:8 ~k:1 () in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let canonical = Core.Search_space.canonical space in
  let config = Core.Search_space.default_config space in
  let path = temp_cache "prime" in
  (* Unaudited: the fabricated runtime would (rightly) fail the audit. *)
  let cache = Service.Result_cache.load ~generation:"prime-test" path in
  Service.Result_cache.put cache
    {
      Service.Result_cache.key = Service.Result_cache.key_of_canonical canonical;
      canonical;
      source = Service.Protocol.Src_tuned;
      runtime_us = 0.125;
      gflops = 1.0;
      predicted_us = 0.125;
      trials = 7;
      config;
    };
  let layer = Cnn.Layer.make "p" spec in
  let t = Cnn.Runner.time_layer ~cache ~max_measurements:60 arch layer in
  Alcotest.(check (float 0.0)) "primed runtime served" 0.125 t.ours_us;
  Alcotest.(check int) "nothing tuned" 0 t.live;
  Alcotest.(check bool) "flagged replayed" true t.ours_replayed;
  (match t.ours_result with
  | Some r ->
    Alcotest.(check int) "primed trial count surfaced" 7 r.measurements;
    Alcotest.(check bool) "primed config surfaced" true (r.best_config = config)
  | None -> Alcotest.fail "ours_result missing for tuned layer");
  let again = Cnn.Runner.time_layer ~max_measurements:60 arch layer in
  Alcotest.(check (float 0.0)) "memo answers without the cache" 0.125 again.ours_us;
  remove_cache path;
  Cnn.Runner.clear_cache ()

let () =
  Alcotest.run "cnn"
    [
      ( "layer",
        [
          Alcotest.test_case "basic" `Quick test_layer_basic;
          Alcotest.test_case "winograd eligibility" `Quick test_layer_winograd_eligibility;
        ] );
      ( "models",
        [
          Alcotest.test_case "well formed" `Quick test_models_well_formed;
          Alcotest.test_case "alexnet shapes" `Quick test_alexnet_shapes;
          Alcotest.test_case "table 2 rows" `Quick test_alexnet_table2_rows;
          Alcotest.test_case "vgg19 conv count" `Quick test_vgg19_conv_count;
          Alcotest.test_case "resnet conv counts" `Quick test_resnet_conv_counts;
          Alcotest.test_case "inception rect kernels" `Quick test_inception_rect_kernels;
          Alcotest.test_case "mobilenet depthwise" `Slow test_mobilenet_depthwise;
          Alcotest.test_case "flop ordering" `Quick test_total_flops_positive_and_ordered;
        ] );
      ( "runner",
        [
          Alcotest.test_case "layer timing" `Slow test_runner_layer_timing;
          Alcotest.test_case "cache hit" `Slow test_runner_cache_hit;
          Alcotest.test_case "model aggregates" `Slow test_runner_model_aggregates;
          Alcotest.test_case "cache roundtrip" `Slow test_runner_cache_roundtrip;
          Alcotest.test_case "figure 12 shape" `Slow test_figure12_shape;
          Alcotest.test_case "memo hits are free replays" `Slow
            test_memo_replayed_accounting;
          Alcotest.test_case "prime/find result" `Quick test_prime_and_find_result;
          Alcotest.test_case "memo key carries budget and faults" `Slow
            test_memo_key_settings;
          Alcotest.test_case "unsupervised tune degrades when every trial fails" `Quick
            test_unsupervised_degrades;
        ] );
    ]
