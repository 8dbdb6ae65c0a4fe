(* Hot-path benchmark: histogram vs exact GBT training, and the frontier
   pebble oracle vs the legacy hashtable engine.

   Usage:
     dune exec bench/hotpath.exe            full sweep: GBT rebuild times at
                                            growing dataset sizes, tuner
                                            best-config equivalence on the
                                            ResNet layer set, legacy-vs-frontier
                                            oracle differential over the whole
                                            sandwich smoke grid plus a
                                            24-vertex instance only the frontier
                                            engine can solve; asserts the claims
                                            and writes BENCH_hotpath.json
     dune exec bench/hotpath.exe -- smoke   <10s sanity check (no file output):
                                            Hist-vs-Exact prediction ranking
                                            agreement and q_opt equality of the
                                            two oracle engines on small
                                            instances.  HOTPATH_DEEP=1 extends
                                            it with the 2k/4k-sample GBT speed
                                            parity check and the 24-vertex
                                            oracle differential (the
                                            @hotpath-deep alias).

   The smoke mode backs the [@hotpath-smoke] dune alias in the default
   runtest, so a regression in either rewrite fails CI; the JSON records the
   before/after trajectory future PRs must not regress. *)

let arch = Gpu_sim.Arch.v100

let layers =
  [
    ("resnet-conv2", Conv.Conv_spec.make ~c_in:64 ~h_in:56 ~w_in:56 ~c_out:64 ~k_h:3 ~k_w:3 ~pad:1 ());
    ("resnet-conv3", Conv.Conv_spec.make ~c_in:128 ~h_in:28 ~w_in:28 ~c_out:128 ~k_h:3 ~k_w:3 ~pad:1 ());
    ("resnet-conv4", Conv.Conv_spec.make ~c_in:256 ~h_in:14 ~w_in:14 ~c_out:256 ~k_h:3 ~k_w:3 ~pad:1 ());
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

(* A synthetic tuning-shaped regression problem: continuous features, a
   smooth nonlinear target with mild noise — enough structure for both split
   methods to learn the same ranking. *)
let synthetic_dataset ~n ~n_features ~seed =
  let rng = Util.Rng.create seed in
  let data = Gbt.Dataset.create ~n_features in
  for _ = 1 to n do
    let x = Array.init n_features (fun _ -> Util.Rng.float rng 1.0) in
    let y =
      (10.0 *. x.(0))
      +. (5.0 *. x.(1) *. x.(1))
      +. (3.0 *. x.(0) *. x.(min 2 (n_features - 1)))
      +. (2.0 *. sin (6.28 *. x.(min 3 (n_features - 1))))
      +. Util.Rng.float rng 0.5
    in
    Gbt.Dataset.add data x y
  done;
  data

let predictions booster data =
  Array.init (Gbt.Dataset.length data) (fun i ->
      Gbt.Booster.predict booster (Gbt.Dataset.features data i))

(* Train both methods on the same data, each timed best of 3 with the runs
   interleaved so both see the same stretch of host noise; return (exact_s,
   hist_s, rank correlation of their predictions over the training rows). *)
let gbt_rebuild_pair ~n ~seed =
  let data = synthetic_dataset ~n ~n_features:8 ~seed in
  let train params = time (fun () -> Gbt.Booster.train ~domains:1 params data) in
  let runs = List.init 3 (fun _ -> (train Gbt.Booster.default_params, train Gbt.Booster.hist_params)) in
  let best pick = List.fold_left (fun acc run -> Float.min acc (snd (pick run))) infinity runs in
  let (exact, _), (hist, _) = List.hd runs in
  let rho = Util.Stats.spearman (predictions exact data) (predictions hist data) in
  (best fst, best snd, rho)

(* Speed parity of the two split methods: a one-sided "hist is faster"
   claim would let the exact path (the tuner's default) slow down unseen, so
   each path is bounded by the other, at most [parity_band] times its time.
   Exact is bounded at every size in [parity_sizes], hist only at
   [hist_parity_sizes], where the two are at parity.  At n=2048 exact is the
   faster path (hist took 1.3-1.85x its time on a 2-core host), so there is
   no parity for hist to keep. *)
let parity_band = 1.5
let parity_sizes = [ 2048; 4096 ]
let hist_parity_sizes = [ 4096 ]

let check_parity ~n ~exact_s ~hist_s =
  if exact_s > parity_band *. hist_s then
    fail "GBT exact %.3fs > %.1fx hist %.3fs at n=%d" exact_s parity_band hist_s n;
  if List.mem n hist_parity_sizes && hist_s > parity_band *. exact_s then
    fail "GBT hist %.3fs > %.1fx exact %.3fs at n=%d" hist_s parity_band exact_s n

let describe_verdict = function
  | Verify.Oracle.Optimal { q_opt; expanded; _ } ->
    Printf.sprintf "optimal q=%d after %d states" q_opt expanded
  | Verify.Oracle.Budget_exhausted { expanded } ->
    Printf.sprintf "budget exhausted at %d states" expanded

(* Legacy and frontier engines on one (instance, S) pair; asserts equal
   q_opt and a replay-valid frontier witness. *)
let oracle_pair (inst : Verify.Sandwich.instance) ~s =
  let legacy, legacy_s = time (fun () -> Verify.Oracle.solve_legacy inst.graph ~s) in
  let frontier, frontier_s = time (fun () -> Verify.Oracle.solve inst.graph ~s) in
  match (legacy, frontier) with
  | Verify.Oracle.Optimal l, Verify.Oracle.Optimal f ->
    if l.q_opt <> f.q_opt then
      fail "%s S=%d: legacy q_opt %d <> frontier q_opt %d" inst.name s l.q_opt f.q_opt;
    (match Pebble.Pebble_game.trace inst.graph ~s f.moves with
    | Error msg -> fail "%s S=%d: frontier witness illegal: %s" inst.name s msg
    | Ok final ->
      if not (Pebble.Pebble_game.complete inst.graph final) then
        fail "%s S=%d: frontier witness incomplete" inst.name s;
      if Pebble.Pebble_game.state_io final <> f.q_opt then
        fail "%s S=%d: frontier witness I/O %d <> q_opt %d" inst.name s
          (Pebble.Pebble_game.state_io final) f.q_opt);
    (f.q_opt, l.expanded, legacy_s, f.expanded, frontier_s)
  | l, f ->
    fail "%s S=%d: engines disagree (legacy: %s, frontier: %s)" inst.name s
      (describe_verdict l) (describe_verdict f)

(* The deep differential: a 24-vertex Winograd tile where the legacy engine
   exhausts its default state budget and the frontier engine proves q_opt. *)
let deep_instance () =
  Verify.Sandwich.winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:4 ~cout:1 ~e:1 ~r:1 ()

let deep_s = 4
let deep_frontier_budget = 8_000_000

let oracle_deep_differential () =
  let inst = deep_instance () in
  let legacy, legacy_s =
    time (fun () -> Verify.Oracle.solve_legacy inst.graph ~s:deep_s)
  in
  let frontier, frontier_s =
    time (fun () ->
        Verify.Oracle.solve ~budget:deep_frontier_budget ~want_witness:false inst.graph
          ~s:deep_s)
  in
  match (legacy, frontier) with
  | Verify.Oracle.Budget_exhausted { expanded = le }, Verify.Oracle.Optimal f ->
    (inst.name, le, legacy_s, f.q_opt, f.expanded, frontier_s)
  | l, f ->
    fail "deep differential: expected legacy exhaustion + frontier optimum, got \
          legacy: %s, frontier: %s"
      (describe_verdict l) (describe_verdict f)

let tune_layer ~model_params ~max_measurements (name, spec) =
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let result, wall =
    time (fun () -> Core.Tuner.tune ~seed:0 ~max_measurements ~model_params ~space ())
  in
  (name, result, wall)

let json_escape = String.map (fun c -> if c = '"' || c = '\\' then '_' else c)

(* Best configs under Hist may differ from Exact by a documented tolerance:
   the tuner is stochastic-search over an approximate model either way, so
   equivalence is "best runtimes within [tune_tolerance] relative". *)
let tune_tolerance = 0.05

let full () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"bench\": \"hotpath\",\n";

  (* --- GBT rebuild times --- *)
  print_endline
    "GBT rebuild, exact vs histogram (60 rounds, 8 features, 1 domain, best of 3):";
  let sizes = [ 512; 2048; 4096 ] in
  let gbt_rows =
    List.map
      (fun n ->
        let exact_s, hist_s, rho = gbt_rebuild_pair ~n ~seed:42 in
        let speedup = exact_s /. hist_s in
        Printf.printf "  n=%-5d exact %6.3fs  hist %6.3fs  speedup %5.2fx  rank-corr %.4f\n%!"
          n exact_s hist_s speedup rho;
        if rho < 0.95 then
          fail "GBT rank correlation %.4f < 0.95 at n=%d" rho n;
        if List.mem n parity_sizes then check_parity ~n ~exact_s ~hist_s;
        Printf.sprintf
          "    {\"n\": %d, \"exact_s\": %.4f, \"hist_s\": %.4f, \"speedup\": %.2f, \"rank_correlation\": %.4f}"
          n exact_s hist_s speedup rho)
      sizes
  in
  Buffer.add_string buf "  \"gbt_rebuild\": [\n";
  Buffer.add_string buf (String.concat ",\n" gbt_rows);
  Buffer.add_string buf "\n  ],\n";

  (* --- Tuner equivalence on the scaling layer set --- *)
  let max_measurements = 150 in
  Printf.printf "Tuner best-config equivalence (%d measurements per layer):\n%!"
    max_measurements;
  let tuner_rows =
    List.map
      (fun layer ->
        let name, exact_r, exact_wall =
          tune_layer ~model_params:Gbt.Booster.default_params ~max_measurements layer
        in
        let _, hist_r, hist_wall =
          tune_layer ~model_params:Gbt.Booster.hist_params ~max_measurements layer
        in
        let rel =
          abs_float (hist_r.best_runtime_us -. exact_r.best_runtime_us)
          /. exact_r.best_runtime_us
        in
        Printf.printf
          "  %-14s exact best %9.1f us (%.1fs)  hist best %9.1f us (%.1fs)  rel diff %.4f\n%!"
          name exact_r.best_runtime_us exact_wall hist_r.best_runtime_us hist_wall rel;
        if rel > tune_tolerance then
          fail "%s: hist best runtime deviates %.4f > %.2f tolerance" name rel
            tune_tolerance;
        Printf.sprintf
          "    {\"layer\": \"%s\", \"exact_best_us\": %.4f, \"hist_best_us\": %.4f, \
           \"rel_diff\": %.4f, \"exact_config\": \"%s\", \"hist_config\": \"%s\"}"
          (json_escape name) exact_r.best_runtime_us hist_r.best_runtime_us rel
          (json_escape (Core.Config.to_string exact_r.best_config))
          (json_escape (Core.Config.to_string hist_r.best_config)))
      layers
  in
  Buffer.add_string buf
    (Printf.sprintf "  \"tuner_equivalence\": {\"tolerance\": %.2f, \"layers\": [\n"
       tune_tolerance);
  Buffer.add_string buf (String.concat ",\n" tuner_rows);
  Buffer.add_string buf "\n  ]},\n";

  (* --- Oracle: full smoke grid, legacy vs frontier --- *)
  print_endline "Oracle differential over the sandwich smoke grid:";
  let checked = ref 0 in
  let legacy_total = ref 0.0 and frontier_total = ref 0.0 in
  let oracle_rows =
    List.concat_map
      (fun ((inst : Verify.Sandwich.instance), ss) ->
        List.map
          (fun s ->
            let q_opt, le, ls, fe, fs = oracle_pair inst ~s in
            incr checked;
            legacy_total := !legacy_total +. ls;
            frontier_total := !frontier_total +. fs;
            Printf.sprintf
              "    {\"instance\": \"%s\", \"s\": %d, \"q_opt\": %d, \"legacy_expanded\": %d, \
               \"legacy_s\": %.4f, \"frontier_expanded\": %d, \"frontier_s\": %.4f}"
              (json_escape inst.name) s q_opt le ls fe fs)
          ss)
      (Verify.Sandwich.grid ~deep:false)
  in
  Printf.printf
    "  %d (instance, S) pairs: q_opt equal everywhere; legacy %.2fs total, frontier %.2fs total\n%!"
    !checked !legacy_total !frontier_total;
  Buffer.add_string buf "  \"oracle_smoke_grid\": [\n";
  Buffer.add_string buf (String.concat ",\n" oracle_rows);
  Buffer.add_string buf "\n  ],\n";

  (* --- Oracle: the instance only the frontier engine can solve --- *)
  let name, le, ls, q, fe, fs = oracle_deep_differential () in
  Printf.printf
    "Oracle deep differential on %s (24 vertices, S=%d):\n\
    \  legacy:   exhausted its %d-state default budget (%d expanded, %.2fs)\n\
    \  frontier: optimal q_opt=%d after %d states (%.2fs)\n%!"
    name deep_s Verify.Oracle.default_budget le ls q fe fs;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"oracle_deep\": {\"instance\": \"%s\", \"s\": %d, \"vertices\": 24, \
        \"legacy_budget\": %d, \"legacy_exhausted\": true, \"legacy_s\": %.4f, \
        \"frontier_q_opt\": %d, \"frontier_expanded\": %d, \"frontier_s\": %.4f},\n"
       (json_escape name) deep_s Verify.Oracle.default_budget ls q fe fs);
  Buffer.add_string buf
    "  \"note\": \"GBT: 60-round boosters on a synthetic 8-feature regression, single domain, \
     fixed seed, best of 3, exact within 1.5x of hist at n >= 2048 and hist within 1.5x of \
     exact at n = 4096; tuner: best configs under Hist within the documented tolerance of Exact; \
     oracle: q_opt asserted equal on every smoke-grid pair, and the 24-vertex Winograd tile \
     is solvable only by the frontier engine at the default budget\"\n}\n";
  Util.Durable.write_atomic "BENCH_hotpath.json" (Buffer.contents buf);
  print_endline "wrote BENCH_hotpath.json"

let smoke () =
  let deep = Sys.getenv_opt "HOTPATH_DEEP" <> None in
  (* GBT: both split methods must rank predictions the same way. *)
  let _, _, rho = gbt_rebuild_pair ~n:600 ~seed:7 in
  if rho < 0.95 then fail "GBT smoke rank correlation %.4f < 0.95" rho;
  (* Oracle: engines agree on a handful of small instances. *)
  let small =
    [
      (Verify.Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 (), 3);
      (Verify.Sandwich.conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 (), 4);
      (Verify.Sandwich.winograd_instance ~tiles_w:2 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), 3);
    ]
  in
  List.iter (fun (inst, s) -> ignore (oracle_pair inst ~s)) small;
  if deep then begin
    List.iter
      (fun n ->
        let exact_s, hist_s, _ = gbt_rebuild_pair ~n ~seed:42 in
        check_parity ~n ~exact_s ~hist_s;
        Printf.printf "  deep: n=%d exact %.3fs hist %.3fs (ratio %.2f)\n%!" n exact_s hist_s
          (exact_s /. hist_s))
      parity_sizes;
    let _, le, _, q, fe, _ = oracle_deep_differential () in
    Printf.printf
      "  deep: 24-vertex differential ok (legacy exhausted at %d, frontier q=%d after %d)\n%!"
      le q fe
  end;
  Printf.printf
    "hotpath-smoke OK: hist ranks like exact (rho %.3f), oracle engines agree on %d instances%s\n%!"
    rho (List.length small)
    (if deep then " + deep differential" else "")

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [] -> full ()
  | [ "smoke" ] -> smoke ()
  | _ ->
    prerr_endline "usage: hotpath.exe [smoke]";
    exit 1
