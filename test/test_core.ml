(* Tests for the core library (the paper's contribution):

   - Genfun's numeric T(S) maximiser recovers Lemma 4.11's closed form for
     the direct convolution and stays within the order constant of Lemma 4.19
     for Winograd;
   - the generic Theorem 4.6 bound agrees with the closed-form Theorems
     4.12/4.20 up to small constants;
   - the executable pebble game never beats the lower bound (the central
     soundness check of the whole theory, run over schedules, policies and
     memory sizes);
   - the Equation 20/22 cost formulas match the exact per-block tallies and
     are minimised on the optimality manifold xy = Rz;
   - the search space, cost model, explorer, tuner and baselines behave:
     pruning shrinks the space, tuned configs satisfy the domain, the tuner
     improves on its starting point and beats/matches the TVM-style search
     with fewer measurements. *)

module Spec = Conv.Conv_spec

let arch = Gpu_sim.Arch.gtx_1080_ti

let spec_mid = Spec.make ~c_in:4 ~h_in:12 ~w_in:12 ~c_out:4 ~k_h:3 ~k_w:3 ()
let spec_layer = Spec.make ~c_in:64 ~h_in:28 ~w_in:28 ~c_out:64 ~k_h:3 ~k_w:3 ~pad:1 ()

(* --- Genfun --- *)

let test_genfun_chain_value () =
  let steps =
    [
      Core.Genfun.step ~name:"a" (fun k -> 2.0 *. k);
      Core.Genfun.step ~name:"b" ~psi:(fun _ -> 0.0) (fun k -> k +. 1.0);
    ]
  in
  (* phi1(3) + phi2(4 + psi1(3)) = 6 + (4 + 6 + 1) = 17 *)
  Alcotest.(check (float 1e-9)) "chain" 17.0 (Core.Genfun.chain_value steps [| 3.0; 4.0 |])

let test_genfun_single_step () =
  let steps = [ Core.Genfun.step ~name:"only" (fun k -> k *. k) ] in
  (* Monotone phi: entire budget goes to the single step. *)
  Alcotest.(check (float 1e-6)) "T(S) = S + S^2" 110.0 (Core.Genfun.t_of_s steps 10.0)

let test_genfun_matches_direct_closed_form () =
  List.iter
    (fun s ->
      let numeric = Core.Genfun.t_of_s (Core.Direct_bound.steps spec_mid ~s) s in
      let closed = Core.Direct_bound.t_upper spec_mid ~s in
      let rel = Float.abs (numeric -. closed) /. closed in
      Alcotest.(check bool)
        (Printf.sprintf "S=%.0f numeric %.1f vs closed %.1f" s numeric closed)
        true (rel < 0.02))
    [ 64.0; 256.0; 1024.0 ]

let test_genfun_winograd_order () =
  List.iter
    (fun s ->
      let numeric = Core.Genfun.t_of_s (Core.Winograd_bound.steps ~e:2 spec_mid ~s) s in
      let closed = Core.Winograd_bound.t_upper ~e:2 spec_mid ~s in
      (* Lemma 4.19 keeps only the leading terms, so agreement is an order
         check: within a factor of 8 both ways. *)
      Alcotest.(check bool)
        (Printf.sprintf "S=%.0f numeric %.3g vs closed %.3g" s numeric closed)
        true
        (numeric < 8.0 *. closed && closed < 8.0 *. numeric))
    [ 256.0; 1024.0 ]

let qcheck_t_of_s_dominates_random_allocations =
  (* T(S) maximises the nested sum; any random allocation of the budget must
     evaluate below it, for random monotone polynomial-ish step functions. *)
  QCheck.Test.make ~name:"t_of_s dominates random allocations" ~count:60
    QCheck.(
      triple
        (pair (float_range 0.1 3.0) (float_range 0.2 1.5))
        (pair (float_range 0.1 3.0) (float_range 0.2 1.5))
        (pair (float_range 10.0 200.0) (pair (float_range 0.0 1.0) (float_range 0.0 1.0))))
    (fun ((a1, p1), (a2, p2), (s, (f1, f2))) ->
      let phi1 k = a1 *. (Float.max 0.0 k ** p1) in
      let psi1 k = 0.5 *. phi1 k in
      let phi2 k = a2 *. (Float.max 0.0 k ** p2) in
      let steps =
        [ Core.Genfun.step ~name:"s1" ~psi:psi1 phi1; Core.Genfun.step ~name:"s2" phi2 ]
      in
      let t = Core.Genfun.t_of_s steps s in
      (* A random split of the budget (f1, f2 normalised onto the simplex). *)
      let total = f1 +. f2 +. 1e-9 in
      let k1 = s *. f1 /. total and k2 = s *. f2 /. total in
      let value = s +. Core.Genfun.chain_value steps [| k1; k2 |] in
      value <= t +. (1e-6 *. Float.abs t) +. 1e-6)

(* --- bounds --- *)

let test_direct_bound_scaling () =
  let q1 = Core.Direct_bound.q_lower spec_layer ~s:1024.0 in
  let q4 = Core.Direct_bound.q_lower spec_layer ~s:4096.0 in
  (* Q ~ 1/sqrt(S): quadrupling S halves the bound. *)
  Alcotest.(check (float 1e-6)) "1/sqrt(S) scaling" (q1 /. 2.0) q4

let test_direct_bound_composite_close () =
  List.iter
    (fun s ->
      let closed = Core.Direct_bound.q_lower spec_mid ~s in
      let generic = Core.Direct_bound.q_lower_composite spec_mid ~s in
      Alcotest.(check bool)
        (Printf.sprintf "S=%.0f closed %.1f generic %.1f" s closed generic)
        true
        (generic > 0.0 && generic < 4.0 *. closed && closed < 16.0 *. generic))
    [ 16.0; 64.0 ]

let test_winograd_bound_scaling () =
  let q1 = Core.Winograd_bound.q_lower ~e:2 spec_layer ~s:1024.0 in
  let q4 = Core.Winograd_bound.q_lower ~e:2 spec_layer ~s:4096.0 in
  Alcotest.(check (float 1e-6)) "1/sqrt(S) scaling" (q1 /. 2.0) q4;
  (* Larger e lowers the bound (more outputs per transformed tile). *)
  let e2 = Core.Winograd_bound.q_lower ~e:2 spec_layer ~s:1024.0 in
  let e4 = Core.Winograd_bound.q_lower ~e:4 spec_layer ~s:1024.0 in
  Alcotest.(check bool) "e=4 bound below e=2" true (e4 < e2)

let test_winograd_bound_requires_square () =
  let rect = Spec.make ~c_in:1 ~h_in:8 ~w_in:8 ~c_out:1 ~k_h:2 ~k_w:3 () in
  Alcotest.check_raises "square kernel"
    (Invalid_argument "Winograd_bound: square kernel required") (fun () ->
      ignore (Core.Winograd_bound.q_lower ~e:2 rect ~s:64.0))

let test_matmul_bound_scaling () =
  let q1 = Core.Matmul_bound.q_lower ~m:64 ~k:64 ~n:64 ~s:256.0 in
  let q4 = Core.Matmul_bound.q_lower ~m:64 ~k:64 ~n:64 ~s:1024.0 in
  Alcotest.(check (float 1e-6)) "1/sqrt(S)" (q1 /. 2.0) q4;
  (* Cubic in the problem edge. *)
  let q2 = Core.Matmul_bound.q_lower ~m:128 ~k:128 ~n:128 ~s:256.0 in
  Alcotest.(check (float 1e-6)) "cubic" (8.0 *. q1) q2

let test_matmul_t_matches_closed_form () =
  List.iter
    (fun s ->
      let numeric = Core.Genfun.t_of_s (Core.Matmul_bound.steps ~s) s in
      let closed = Core.Matmul_bound.t_upper ~s in
      let rel = Float.abs (numeric -. closed) /. closed in
      Alcotest.(check bool) (Printf.sprintf "S=%.0f rel %.4f" s rel) true (rel < 0.02))
    [ 64.0; 512.0 ]

let test_matmul_blocked_above_bound () =
  let m = 48 and k = 48 and n = 48 and s = 144.0 in
  let blocked = Core.Matmul_bound.q_blocked_optimal ~m ~k ~n ~s in
  let bound = Core.Matmul_bound.q_lower ~m ~k ~n ~s in
  Alcotest.(check bool)
    (Printf.sprintf "blocked %.0f >= bound %.0f" blocked bound)
    true (blocked >= bound);
  (* Square tiles beat skewed tiles of the same area. *)
  let skewed = Core.Matmul_bound.q_blocked ~m ~k ~n ~bi:(s /. 4.0) ~bj:4.0 in
  Alcotest.(check bool) "square tile wins" true (blocked < skewed)

let test_pebble_game_respects_matmul_bound () =
  let spec = { Dag.Matmul_dag.m = 12; k = 12; n = 12 } in
  let dag = Dag.Matmul_dag.build spec in
  List.iter
    (fun s ->
      let bound =
        Core.Matmul_bound.q_lower ~m:spec.m ~k:spec.k ~n:spec.n ~s:(float_of_int s)
      in
      List.iter
        (fun (name, schedule) ->
          let stats =
            Pebble.Pebble_game.run dag.graph ~schedule ~s ~policy:Pebble.Pebble_game.Lru
          in
          let q = float_of_int (Pebble.Pebble_game.total_io stats) in
          Alcotest.(check bool)
            (Printf.sprintf "%s S=%d q %.0f >= bound %.0f" name s q bound)
            true (q >= bound))
        [
          ("blocked", Dag.Matmul_dag.schedule_blocked dag ~bi:4 ~bj:4);
          ("by-step", Dag.Matmul_dag.schedule_by_step dag);
        ])
    [ 8; 64; 256 ];
  (* The blocked schedule must beat the naive one at small S. *)
  let q schedule =
    Pebble.Pebble_game.total_io
      (Pebble.Pebble_game.run dag.graph ~schedule ~s:64 ~policy:Pebble.Pebble_game.Lru)
  in
  let blocked = q (Dag.Matmul_dag.schedule_blocked dag ~bi:4 ~bj:4) in
  let naive = q (Dag.Matmul_dag.schedule_output_stationary dag) in
  Alcotest.(check bool)
    (Printf.sprintf "blocked %d < naive %d" blocked naive)
    true (blocked < naive)

(* --- pebble game vs lower bound (theory soundness) --- *)

let test_pebble_game_respects_direct_bound () =
  let dag_spec =
    { Dag.Conv_dag.w_in = 10; h_in = 10; c_in = 3; c_out = 3; w_ker = 3; h_ker = 3; stride = 1 }
  in
  let conv_spec = Spec.make ~c_in:3 ~h_in:10 ~w_in:10 ~c_out:3 ~k_h:3 ~k_w:3 () in
  let dag = Dag.Conv_dag.build dag_spec in
  List.iter
    (fun s ->
      let bound = Core.Direct_bound.q_lower conv_spec ~s:(float_of_int s) in
      List.iter
        (fun (name, schedule) ->
          List.iter
            (fun policy ->
              let stats = Pebble.Pebble_game.run dag.graph ~schedule ~s ~policy in
              let q = float_of_int (Pebble.Pebble_game.total_io stats) in
              Alcotest.(check bool)
                (Printf.sprintf "%s S=%d measured %.0f >= bound %.0f" name s q bound)
                true (q >= bound))
            [ Pebble.Pebble_game.Lru; Pebble.Pebble_game.Belady ])
        [
          ("output-stationary", Dag.Conv_dag.schedule_output_stationary dag);
          ("by-step", Dag.Conv_dag.schedule_by_step dag);
          ("blocked", Dag.Conv_dag.schedule_blocked dag ~bx:4 ~by:4 ~bz:1);
        ])
    [ 8; 32; 128; 512 ]

let test_pebble_game_respects_winograd_bound () =
  let wspec = { Dag.Winograd_dag.tiles_w = 3; tiles_h = 3; c_in = 2; c_out = 2; e = 2; r = 3 } in
  let w_in, h_in = Dag.Winograd_dag.in_size wspec in
  let conv_spec = Spec.make ~c_in:2 ~h_in ~w_in ~c_out:2 ~k_h:3 ~k_w:3 () in
  let dag = Dag.Winograd_dag.build wspec in
  List.iter
    (fun s ->
      let bound = Core.Winograd_bound.q_lower ~e:2 conv_spec ~s:(float_of_int s) in
      let stats =
        Pebble.Pebble_game.run dag.graph
          ~schedule:(Dag.Winograd_dag.schedule_natural dag)
          ~s ~policy:Pebble.Pebble_game.Lru
      in
      let q = float_of_int (Pebble.Pebble_game.total_io stats) in
      Alcotest.(check bool)
        (Printf.sprintf "S=%d measured %.0f >= bound %.0f" s q bound)
        true (q >= bound))
    [ 8; 64; 256 ]

(* --- dataflow cost and optimality --- *)

let test_q_dc_tile_matches_exact_tally () =
  (* Exactly dividing tiles, no padding: the Equation 20 closed form matches
     the per-block tally of Tiled_direct.  Equation 20 approximates the input
     tile as x' y' ~ mu^2 x y, i.e. it ignores the halo, so agreement needs
     tiles that dwarf the kernel. *)
  let spec = Spec.make ~c_in:5 ~h_in:66 ~w_in:66 ~c_out:6 ~k_h:3 ~k_w:3 () in
  let x = 32 and y = 32 and z = 3 in
  let exact =
    Conv.Io_count.total (Conv.Tiled_direct.io_only spec ~tile:{ Conv.Tiled_direct.x; y; z })
  in
  let analytic =
    Core.Dataflow_cost.q_dc_tile spec ~x:(float_of_int x) ~y:(float_of_int y)
      ~z:(float_of_int z)
  in
  let rel = Float.abs (exact -. analytic) /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.0f analytic %.0f" exact analytic)
    true (rel < 0.12)

let test_q_dc_minimised_on_manifold () =
  let r = Spec.reuse spec_layer in
  let volume = 512.0 in
  (* The optimal split of a fixed volume: xy = R z. *)
  let z_opt = sqrt (volume /. r) in
  let xy_opt = volume /. z_opt in
  let side = sqrt xy_opt in
  let q_opt = Core.Dataflow_cost.q_dc_tile spec_layer ~x:side ~y:side ~z:z_opt in
  List.iter
    (fun (x, y, z) ->
      let q = Core.Dataflow_cost.q_dc_tile spec_layer ~x ~y ~z in
      Alcotest.(check bool)
        (Printf.sprintf "tile %gx%gx%g q %.0f >= opt %.0f" x y z q q_opt)
        true
        (q >= q_opt -. 1e-6))
    [ (512.0, 1.0, 1.0); (1.0, 1.0, 512.0); (32.0, 16.0, 1.0); (8.0, 8.0, 8.0) ]

let test_q_dc_optimal_formula () =
  (* Equation 21 at the optimal tile: evaluating Equation 20 there matches. *)
  let s = 12288.0 and np = 1 in
  let xy, z = Core.Optimality.real_tile_direct spec_layer ~s ~np in
  let side = sqrt xy in
  let via_tile = Core.Dataflow_cost.q_dc_tile spec_layer ~x:side ~y:side ~z in
  let closed = Core.Dataflow_cost.q_dc_optimal spec_layer ~s ~np in
  let rel = Float.abs (via_tile -. closed) /. closed in
  Alcotest.(check bool) (Printf.sprintf "%.0f vs %.0f" via_tile closed) true (rel < 1e-6)

let test_q_wa_optimal_formula () =
  (* The paper's Equation 23 drops the sqrt(2) that the temporary-array
     capacity constraint 2 a^2/e^2 xyz = S/Np injects into the reading term,
     so evaluating Equation 22 at the optimal tile lands a factor sqrt(2)
     above the quoted closed form.  We reproduce Equation 23 verbatim and pin
     the discrepancy here. *)
  let s = 12288.0 and np = 1 in
  let e = 2 in
  let xy, z = Core.Optimality.real_tile_winograd ~e spec_layer ~s ~np in
  let side = sqrt xy in
  let via_tile = Core.Dataflow_cost.q_wa_tile ~e spec_layer ~x:side ~y:side ~z in
  let closed = Core.Dataflow_cost.q_wa_optimal ~e spec_layer ~s ~np in
  let outs = float_of_int (Spec.output_elems spec_layer) in
  let reading_ratio = (via_tile -. outs) /. (closed -. outs) in
  Alcotest.(check (float 1e-6)) "reading terms differ by exactly sqrt(2)" (sqrt 2.0)
    reading_ratio

let test_dataflow_above_lower_bound () =
  (* The dataflow can approach but never beat the bound. *)
  List.iter
    (fun s ->
      let q = Core.Dataflow_cost.q_dc_optimal spec_layer ~s ~np:1 in
      let bound = Core.Direct_bound.q_lower spec_layer ~s in
      Alcotest.(check bool)
        (Printf.sprintf "S=%.0f dataflow %.3g >= bound %.3g" s q bound)
        true (q >= bound))
    [ 256.0; 4096.0; 24576.0 ];
  (* And the gap is a modest constant (the paper's near-optimality claim). *)
  let gap = Core.Dataflow_cost.optimality_gap spec_layer ~s:12288.0 ~np:1 in
  Alcotest.(check bool) (Printf.sprintf "gap %.2f" gap) true (gap > 1.0 && gap < 20.0)

let test_optimality_helpers () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Core.Optimality.divisors 12);
  Alcotest.(check int) "nearest divisor" 6 (Core.Optimality.nearest_divisor 12 7.0);
  Alcotest.(check (float 1e-9)) "ratio" 1.0
    (Core.Optimality.condition_ratio ~r:9.0 ~x:9 ~y:4 ~z:4);
  Alcotest.(check bool) "satisfied" true (Core.Optimality.satisfied ~r:9.0 (9, 4, 4));
  Alcotest.(check bool) "violated" false (Core.Optimality.satisfied ~r:9.0 (100, 10, 1))

let test_optimal_tile_direct_properties () =
  let s = 12288.0 in
  let tile = Core.Optimality.optimal_tile_direct spec_layer ~s ~np:1 in
  let { Conv.Tiled_direct.x; y; z } = tile in
  Alcotest.(check int) "x divides w_out" 0 (Spec.w_out spec_layer mod x);
  Alcotest.(check int) "y divides h_out" 0 (Spec.h_out spec_layer mod y);
  Alcotest.(check int) "z divides c_out" 0 (spec_layer.c_out mod z);
  let r = Spec.reuse spec_layer in
  Alcotest.(check bool) "near manifold" true (Core.Optimality.satisfied ~slack:4.0 ~r (x, y, z))

let test_optimal_tile_winograd_multiple_of_e () =
  let tile = Core.Optimality.optimal_tile_winograd ~e:2 spec_layer ~s:12288.0 ~np:1 in
  Alcotest.(check int) "x multiple of e" 0 (tile.Conv.Tiled_winograd.x mod 2);
  Alcotest.(check int) "y multiple of e" 0 (tile.Conv.Tiled_winograd.y mod 2)

(* --- config / search space --- *)

let direct_space () = Core.Search_space.make arch spec_layer Core.Config.Direct_dataflow
let full_space () = Core.Search_space.make ~pruned:false arch spec_layer Core.Config.Direct_dataflow

let test_config_features_arity () =
  let space = direct_space () in
  let cfg = Core.Search_space.default_config space in
  Alcotest.(check int) "n_features" Core.Config.n_features
    (Array.length (Core.Config.features spec_layer cfg))

let test_config_kernel_launchable () =
  let space = direct_space () in
  let rng = Util.Rng.create 5 in
  for _ = 1 to 50 do
    let cfg = Core.Search_space.sample space rng in
    let kernel = Core.Config.to_kernel arch spec_layer cfg in
    Alcotest.(check bool) "positive runtime" true
      (Gpu_sim.Kernel_cost.runtime_us arch kernel > 0.0)
  done

let test_config_derates_in_range () =
  let space = full_space () in
  let rng = Util.Rng.create 6 in
  for _ = 1 to 100 do
    let cfg = Core.Search_space.sample space rng in
    let c = Core.Config.coalescing spec_layer cfg in
    let e = Core.Config.compute_efficiency spec_layer cfg in
    Alcotest.(check bool) "coalescing in (0,1]" true (c > 0.0 && c <= 1.0);
    Alcotest.(check bool) "efficiency in (0,1]" true (e > 0.0 && e <= 1.0)
  done

let test_space_pruning_shrinks () =
  let pruned = Core.Search_space.size (direct_space ()) in
  let full = Core.Search_space.size (full_space ()) in
  let ratio = pruned /. full in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %.3g / full %.3g = %.2f" pruned full ratio)
    true
    (ratio > 0.02 && ratio < 0.8)

let test_space_samples_are_members () =
  List.iter
    (fun space ->
      let rng = Util.Rng.create 7 in
      for _ = 1 to 100 do
        let cfg = Core.Search_space.sample space rng in
        Alcotest.(check bool) "sample in space" true (Core.Search_space.mem space cfg);
        let next = Core.Search_space.neighbor space rng cfg in
        Alcotest.(check bool) "neighbor in space" true (Core.Search_space.mem space next)
      done)
    [ direct_space (); full_space () ]

let test_space_tiles_satisfy_condition_when_pruned () =
  let space = direct_space () in
  let r = Spec.reuse spec_layer in
  Array.iter
    (fun (x, y, z) ->
      Alcotest.(check bool)
        (Printf.sprintf "tile %dx%dx%d" x y z)
        true
        (Core.Optimality.satisfied ~slack:2.0 ~r (x, y, z)))
    (Core.Search_space.tile_candidates space)

let test_space_winograd_tiles_multiple_of_e () =
  let spec = Spec.make ~c_in:16 ~h_in:28 ~w_in:28 ~c_out:16 ~k_h:3 ~k_w:3 ~pad:1 () in
  let space = Core.Search_space.make arch spec (Core.Config.Winograd_dataflow 2) in
  Array.iter
    (fun (x, y, _) ->
      Alcotest.(check int) "x mult of 2" 0 (x mod 2);
      Alcotest.(check int) "y mult of 2" 0 (y mod 2))
    (Core.Search_space.tile_candidates space)

let test_space_size_matches_enumeration () =
  (* [size] is computed arithmetically; [iter_configs] enumerates.  They must
     agree exactly on a small space. *)
  let spec = Spec.make ~c_in:4 ~h_in:6 ~w_in:6 ~c_out:4 ~k_h:3 ~k_w:3 () in
  List.iter
    (fun pruned ->
      let space = Core.Search_space.make ~pruned arch spec Core.Config.Direct_dataflow in
      let counted = ref 0 in
      Core.Search_space.iter_configs space (fun _ -> incr counted);
      Alcotest.(check int)
        (Printf.sprintf "pruned=%b" pruned)
        (int_of_float (Core.Search_space.size space))
        !counted)
    [ true; false ]

let test_tuner_near_exhaustive_optimum () =
  (* Ground truth: on a space small enough to enumerate, the tuner's best must
     land within a few percent of the true optimum. *)
  let spec = Spec.make ~c_in:8 ~h_in:10 ~w_in:10 ~c_out:8 ~k_h:3 ~k_w:3 ~pad:1 () in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let best = ref infinity in
  Core.Search_space.iter_configs space (fun cfg ->
      let t = Core.Tuner.measure_config arch spec cfg in
      if t < !best then best := t);
  let tuned = Core.Tuner.tune ~seed:2 ~max_measurements:300 ~space () in
  Alcotest.(check bool)
    (Printf.sprintf "tuned %.2fus within 5%% of optimum %.2fus" tuned.best_runtime_us !best)
    true
    (tuned.best_runtime_us <= !best *. 1.05)

(* --- cost model --- *)

let test_cost_model_learns_ordering () =
  let space = full_space () in
  let model = Core.Cost_model.create spec_layer in
  let rng = Util.Rng.create 11 in
  (* Train on 80 real measurements, check rank correlation on 40 fresh. *)
  for _ = 1 to 80 do
    let cfg = Core.Search_space.sample space rng in
    Core.Cost_model.add_measurement model cfg (Core.Tuner.measure_config arch spec_layer cfg)
  done;
  Core.Cost_model.retrain model;
  Alcotest.(check bool) "trained" true (Core.Cost_model.trained model);
  let fresh = Array.init 40 (fun _ -> Core.Search_space.sample space rng) in
  let actual = Array.map (fun c -> Core.Tuner.measure_config arch spec_layer c) fresh in
  let predicted = Array.map (Core.Cost_model.predict_runtime_us model) fresh in
  (* Pairwise ranking accuracy must beat coin-flipping comfortably. *)
  let agree = ref 0 and total = ref 0 in
  for i = 0 to 39 do
    for j = i + 1 to 39 do
      if Float.abs (actual.(i) -. actual.(j)) > 1e-9 then begin
        incr total;
        if (actual.(i) < actual.(j)) = (predicted.(i) < predicted.(j)) then incr agree
      end
    done
  done;
  let accuracy = float_of_int !agree /. float_of_int !total in
  Alcotest.(check bool) (Printf.sprintf "ranking accuracy %.2f" accuracy) true (accuracy > 0.65)

(* The tuner's cost model, pinned bit for bit: a 60-round booster on the
   120-sample dataset a tune would build for ResNet-18's 64x56x56 3x3 layer
   on V100 (configs from [Search_space.sample] under seed 0, priced by the
   tuner's robust measurement).  A drift of one bit anywhere in training (a
   summation order, a tie rule, a threshold) moves the digest, and with it
   every tuned answer and gold file downstream. *)
let test_cost_model_pinned () =
  let arch = Gpu_sim.Arch.v100 in
  let spec = Spec.make ~c_in:64 ~h_in:56 ~w_in:56 ~c_out:64 ~k_h:3 ~k_w:3 ~pad:1 () in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let rng = Util.Rng.create 0 in
  let model = Core.Cost_model.create spec in
  for _ = 1 to 120 do
    let cfg = Core.Search_space.sample space rng in
    match Core.Tuner.measure_config_robust arch spec cfg with
    | Ok us, _ -> Core.Cost_model.add_measurement model cfg us
    | Error _, _ -> Core.Cost_model.add_failure model cfg
  done;
  Core.Cost_model.retrain model;
  match Core.Cost_model.snapshot model with
  | None -> Alcotest.fail "model not trained"
  | Some compact ->
    Alcotest.(check string) "digest of to_compact" "ff10b64ab1ff34b6888c003f92660f7c"
      (Digest.to_hex (Digest.string compact))

let test_cost_model_untrained_constant () =
  let model = Core.Cost_model.create spec_layer in
  let space = direct_space () in
  let cfg = Core.Search_space.default_config space in
  Alcotest.(check bool) "untrained flag" false (Core.Cost_model.trained model);
  Alcotest.(check (float 1.0)) "large constant" 1.0e9
    (Core.Cost_model.predict_runtime_us model cfg)

let test_error_paths () =
  Alcotest.check_raises "empty genfun" (Invalid_argument "Genfun.t_of_s: no steps") (fun () ->
      ignore (Core.Genfun.t_of_s [] 10.0));
  Alcotest.check_raises "negative budget" (Invalid_argument "Genfun.t_of_s: negative budget")
    (fun () ->
      ignore (Core.Genfun.t_of_s [ Core.Genfun.step ~name:"x" Fun.id ] (-1.0)));
  Alcotest.check_raises "chain arity" (Invalid_argument "Genfun.chain_value: arity") (fun () ->
      ignore (Core.Genfun.chain_value [ Core.Genfun.step ~name:"x" Fun.id ] [||]));
  Alcotest.check_raises "bad tile" (Invalid_argument "Dataflow_cost.q_dc_tile: tile")
    (fun () -> ignore (Core.Dataflow_cost.q_dc_tile spec_layer ~x:0.0 ~y:1.0 ~z:1.0));
  Alcotest.check_raises "bad np" (Invalid_argument "Dataflow_cost.q_dc_optimal") (fun () ->
      ignore (Core.Dataflow_cost.q_dc_optimal spec_layer ~s:64.0 ~np:0));
  Alcotest.check_raises "bad ratio args" (Invalid_argument "Optimality.condition_ratio")
    (fun () -> ignore (Core.Optimality.condition_ratio ~r:9.0 ~x:0 ~y:1 ~z:1));
  Alcotest.check_raises "divisors of 0" (Invalid_argument "Optimality.divisors") (fun () ->
      ignore (Core.Optimality.divisors 0));
  (* Winograd search space on an unsupported (strided) layer. *)
  let strided = Spec.make ~c_in:8 ~h_in:16 ~w_in:16 ~c_out:8 ~k_h:3 ~k_w:3 ~stride:2 () in
  Alcotest.check_raises "winograd space on strided layer"
    (Invalid_argument "Search_space.make: winograd unsupported for this layer") (fun () ->
      ignore (Core.Search_space.make arch strided (Core.Config.Winograd_dataflow 2)))

(* --- explorer / tuner / baselines --- *)

(* Force real workers into the shared pool (even on single-core hosts) so
   that [concurrently] overlaps its runs on several domains. *)
let () = Util.Pool.ensure_workers (Util.Pool.default ()) 3

(* [lanes] runs of [f] at once: [Pool.run_all] hands all but the first to
   the pool's worker domains.  Results come back in lane order. *)
let concurrently lanes f =
  let out = Array.make lanes None in
  Util.Pool.run_all (Util.Pool.default ())
    (List.init lanes (fun lane () -> out.(lane) <- Some (f ())));
  Array.map Option.get out

(* A model trained a little, so walks actually follow predicted costs. *)
let explorer_model space =
  let model = Core.Cost_model.create spec_layer in
  let train_rng = Util.Rng.create 21 in
  for _ = 1 to 40 do
    let cfg = Core.Search_space.sample space train_rng in
    Core.Cost_model.add_measurement model cfg (Core.Tuner.measure_config arch spec_layer cfg)
  done;
  Core.Cost_model.retrain model;
  model

let explorer_ranking space model =
  let rng = Util.Rng.create 13 in
  let starts = [ Core.Search_space.default_config space ] in
  Core.Explorer.explore ~space ~model ~rng ~starts ()

(* An explore keeps all its state local and only reads the space and the
   model, so explores overlapping on several domains over one shared model
   must rank exactly as an explore run alone. *)
let test_explorer_parallel_equals_sequential () =
  let space = direct_space () in
  let model = explorer_model space in
  let ranking () = explorer_ranking space model in
  let sequential = ranking () in
  Alcotest.(check bool) "non-empty" true (sequential <> []);
  List.iter
    (fun lanes ->
      Array.iteri
        (fun lane parallel ->
          Alcotest.(check bool)
            (Printf.sprintf "identical candidate ranking, lane %d of %d" lane lanes)
            true (parallel = sequential))
        (concurrently lanes ranking))
    [ 2; 8 ]

(* A tune runs entirely on the domain that calls it, so tunes overlapping on
   several domains must each reproduce a tune run alone, bit for bit. *)
let test_tuner_parallel_equals_sequential () =
  let run () = Core.Tuner.tune ~seed:4 ~max_measurements:120 ~space:(direct_space ()) () in
  let seq = run () in
  List.iter
    (fun lanes ->
      Array.iteri
        (fun lane (par : Core.Tuner.result) ->
          let name what = Printf.sprintf "%s, lane %d of %d" what lane lanes in
          Alcotest.(check bool) (name "same best config") true
            (par.best_config = seq.best_config);
          Alcotest.(check (float 0.0)) (name "bit-identical best runtime")
            seq.best_runtime_us par.best_runtime_us;
          Alcotest.(check int) (name "same measurement count") seq.measurements
            par.measurements;
          Alcotest.(check int) (name "same convergence point") seq.converged_at
            par.converged_at;
          Alcotest.(check bool) (name "bit-identical history") true
            (par.history = seq.history))
        (concurrently lanes run))
    [ 2; 4 ]

(* The explorer's ranking, pinned: every returned config in order, after
   walks over a trained model from a fixed rng.  A booster predicts
   piecewise-constant costs, and 75 of the 379 configs here share a cost
   with another, so the digest moves with the walks, the set of visited
   configs and the tie-break on the config key alike. *)
let test_explorer_ranking_pinned () =
  let space = direct_space () in
  let ranking = explorer_ranking space (explorer_model space) in
  Alcotest.(check string) "digest of the ranking" "dda4e3dc82448e1c46adb34718324729"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map Core.Config.to_compact ranking))))

let pinned_tune () = Core.Tuner.tune ~seed:4 ~max_measurements:120 ~space:(direct_space ()) ()

(* One 120-trial tune, pinned: best config, runtime and best-so-far history,
   every float in hex.  A changed ranking, batch make-up or model moves it. *)
let test_tuner_pinned () =
  let r = pinned_tune () in
  let b = Buffer.create 2048 in
  Printf.bprintf b "%s %h" (Core.Config.to_compact r.best_config) r.best_runtime_us;
  List.iter
    (fun (p : Core.Tuner.progress) -> Printf.bprintf b " %d:%h" p.measurement p.best_runtime_us)
    r.history;
  Alcotest.(check string) "digest of the tune" "861fffbfc250b4525e93b47f5f3e4149"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* An allocation ceiling on the tuner.  A tune's minor words on the calling
   domain repeat exactly at a fixed seed (after one warm-up run), so an
   allocation regression fails here, not in a wall-clock bench.  The pinned
   tune allocated 3,782,065 words while the tuner keyed its tables on
   printed configs and retrained with per-round gradient arrays, and
   1,456,560 once both went; the ceiling is 1.1x the latter. *)
let test_tune_allocation_ceiling () =
  ignore (pinned_tune ());
  let before = Gc.minor_words () in
  ignore (pinned_tune ());
  let words = Gc.minor_words () -. before in
  let ceiling = 1.1 *. 1_456_560. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words ceiling)
    true (words <= ceiling)

let test_explorer_returns_members () =
  let space = direct_space () in
  let model = Core.Cost_model.create spec_layer in
  let rng = Util.Rng.create 13 in
  let out = Core.Explorer.explore ~space ~model ~rng ~starts:[] () in
  Alcotest.(check bool) "non-empty" true (out <> []);
  List.iter
    (fun cfg -> Alcotest.(check bool) "member" true (Core.Search_space.mem space cfg))
    out

let test_tuner_improves_and_converges () =
  let space = direct_space () in
  let result = Core.Tuner.tune ~seed:3 ~max_measurements:150 ~space () in
  let default_runtime =
    Core.Tuner.measure_config ~seed:3 arch spec_layer (Core.Search_space.default_config space)
  in
  Alcotest.(check bool)
    (Printf.sprintf "best %.1f <= default %.1f" result.best_runtime_us default_runtime)
    true
    (result.best_runtime_us <= default_runtime +. 1e-9);
  Alcotest.(check bool) "measured some" true (result.measurements > 16);
  Alcotest.(check bool) "measured within budget" true (result.measurements <= 150);
  Alcotest.(check bool) "converged index valid" true
    (result.converged_at >= 1 && result.converged_at <= result.measurements);
  (* History is a non-increasing best-so-far curve. *)
  let rec non_increasing : Core.Tuner.progress list -> bool = function
    | a :: (b :: _ as rest) ->
      a.best_runtime_us >= b.best_runtime_us -. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "history monotone" true (non_increasing result.history);
  Alcotest.(check bool) "config in space" true
    (Core.Search_space.mem space result.best_config)

let test_ate_beats_tvm_on_search_cost () =
  (* Table 2's claim, in miniature: same oracle, pruned vs full space. The
     ATE should converge at least as fast and land within a whisker of (or
     below) the TVM-style result. *)
  let ate =
    Core.Tuner.tune ~seed:1 ~max_measurements:200
      ~space:(Core.Search_space.make arch spec_layer Core.Config.Direct_dataflow)
      ()
  in
  let tvm =
    Core.Baselines.tvm ~seed:1 ~max_measurements:200 arch spec_layer
      Core.Config.Direct_dataflow
  in
  Alcotest.(check bool)
    (Printf.sprintf "space %.3g < %.3g" ate.space_size tvm.space_size)
    true
    (ate.space_size < tvm.space_size);
  Alcotest.(check bool)
    (Printf.sprintf "ATE %.1fus within 10%% of TVM %.1fus" ate.best_runtime_us
       tvm.best_runtime_us)
    true
    (ate.best_runtime_us <= tvm.best_runtime_us *. 1.10)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_template_direct () =
  let space = direct_space () in
  let cfg = Core.Search_space.default_config space in
  let text = Core.Template.render arch spec_layer cfg in
  Alcotest.(check bool) "names the kernel" true (contains text "direct_dataflow_kernel");
  Alcotest.(check bool) "declares resident partials" true (contains text "out_block");
  Alcotest.(check bool) "declares stage tile" true (contains text "in_tile");
  Alcotest.(check bool) "unroll pragma" true
    (contains text (Printf.sprintf "#pragma unroll %d" cfg.unroll));
  (* The declared shared-memory byte count must be the cost model's. *)
  Alcotest.(check bool) "shmem agrees with Config" true
    (contains text (Printf.sprintf "shared memory: %d bytes" (Core.Config.shmem_bytes spec_layer cfg)))

let test_template_winograd () =
  let space = Core.Search_space.make arch spec_layer (Core.Config.Winograd_dataflow 2) in
  let cfg = Core.Search_space.default_config space in
  let text = Core.Template.render arch spec_layer cfg in
  Alcotest.(check bool) "names the kernel" true (contains text "winograd_f2_dataflow_kernel");
  Alcotest.(check bool) "transform calls" true
    (contains text "transform_B" && contains text "transform_G" && contains text "transform_A")

let test_template_geometry () =
  let space = direct_space () in
  let cfg = Core.Search_space.default_config space in
  let gx, gy, gz = Core.Template.grid_dim spec_layer cfg in
  Alcotest.(check int) "grid covers the output" (Core.Config.blocks spec_layer cfg) (gx * gy * gz);
  Alcotest.(check int) "stage count = channels per group" spec_layer.c_in
    (Core.Template.stage_count spec_layer cfg)

let test_template_depthwise () =
  (* Grouped layers flow through the template with per-group channel stages. *)
  let spec = Spec.make ~c_in:16 ~h_in:14 ~w_in:14 ~c_out:16 ~k_h:3 ~k_w:3 ~pad:1 ~groups:16 () in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let cfg = Core.Search_space.default_config space in
  Alcotest.(check int) "one stage per depthwise channel" 1
    (Core.Template.stage_count spec cfg);
  let text = Core.Template.render arch spec cfg in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let test_config_compact_roundtrip () =
  let space = full_space () in
  let rng = Util.Rng.create 31 in
  for _ = 1 to 100 do
    let cfg = Core.Search_space.sample space rng in
    match Core.Config.of_compact (Core.Config.to_compact cfg) with
    | Some back -> Alcotest.(check bool) "roundtrip" true (back = cfg)
    | None -> Alcotest.fail "of_compact failed"
  done;
  Alcotest.(check bool) "garbage rejected" true (Core.Config.of_compact "nonsense" = None);
  Alcotest.(check bool) "partial rejected" true (Core.Config.of_compact "d|CHW|1,2" = None)

(* [Config.Tbl] keys on every field: each one-field variant of a config
   hashes apart from it, [double_buffer] and Winograd's [e] included (the
   generic [Hashtbl.hash] reads ten meaningful words and drops both), and a
   table keeps the two apart. *)
let test_config_hash_covers_every_field () =
  let direct =
    {
      Core.Config.algorithm = Direct_dataflow;
      layout = Tensor.Layout.CHW;
      tile_x = 4;
      tile_y = 4;
      tile_z = 16;
      threads_x = 2;
      threads_y = 2;
      threads_z = 8;
      unroll = 2;
      vector_width = 1;
      double_buffer = false;
    }
  in
  let winograd = { direct with algorithm = Winograd_dataflow 2 } in
  let variants =
    [
      ("algorithm", direct, winograd);
      ("e", winograd, { winograd with algorithm = Winograd_dataflow 4 });
      ("layout", direct, { direct with layout = Tensor.Layout.HWC });
      ("tile_x", direct, { direct with tile_x = 8 });
      ("tile_y", direct, { direct with tile_y = 8 });
      ("tile_z", direct, { direct with tile_z = 32 });
      ("threads_x", direct, { direct with threads_x = 4 });
      ("threads_y", direct, { direct with threads_y = 4 });
      ("threads_z", direct, { direct with threads_z = 16 });
      ("unroll", direct, { direct with unroll = 4 });
      ("vector_width", direct, { direct with vector_width = 2 });
      ("double_buffer", direct, { direct with double_buffer = true });
      ("winograd double_buffer", winograd, { winograd with double_buffer = true });
    ]
  in
  List.iter
    (fun (field, a, b) ->
      Alcotest.(check bool) (field ^ ": hashes apart") true
        (Core.Config.hash a <> Core.Config.hash b);
      Alcotest.(check bool) (field ^ ": not equal") false (a = b);
      let tbl = Core.Config.Tbl.create 4 in
      Core.Config.Tbl.replace tbl a "a";
      Core.Config.Tbl.replace tbl b "b";
      Alcotest.(check int) (field ^ ": two entries") 2 (Core.Config.Tbl.length tbl);
      Alcotest.(check string) (field ^ ": first kept") "a" (Core.Config.Tbl.find tbl a);
      Alcotest.(check string) (field ^ ": second kept") "b" (Core.Config.Tbl.find tbl b))
    variants;
  Alcotest.(check bool) "equal copies hash alike" true
    (Core.Config.hash { direct with tile_x = 4 } = Core.Config.hash direct)

(* Satellite of the verification subsystem: the pruned tile set is exactly
   the brute-force filter of the unpruned one under the documented predicate
   (Optimality.satisfied with slack 2 plus the sqrt(S/R) / sqrt(SR) caps of
   Corollary 4.14) — pruning never invents tiles and never drops a tile the
   predicate admits. *)
let test_tile_pruning_equals_brute_force () =
  List.iter
    (fun spec ->
      let pruned = Core.Search_space.make ~pruned:true arch spec Core.Config.Direct_dataflow in
      let unpruned =
        Core.Search_space.make ~pruned:false arch spec Core.Config.Direct_dataflow
      in
      let r = Spec.reuse spec in
      let sb =
        float_of_int
          (min (arch.Gpu_sim.Arch.shared_mem_per_sm / 2)
             arch.Gpu_sim.Arch.max_shared_mem_per_block
          / 4)
      in
      let admitted (x, y, z) =
        Core.Optimality.satisfied ~slack:2.0 ~r (x, y, z)
        && float_of_int z <= sqrt (sb /. r) +. 1e-9
        && float_of_int (x * y) <= sqrt (sb *. r) +. 1e-9
      in
      let sorted a = List.sort compare (Array.to_list a) in
      let brute =
        List.sort compare
          (List.filter admitted (Array.to_list (Core.Search_space.tile_candidates unpruned)))
      in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "pruned = filtered unpruned (%s)" (Spec.to_string spec))
        brute
        (sorted (Core.Search_space.tile_candidates pruned));
      Alcotest.(check bool) "pruning is a strict subset here" true
        (Array.length (Core.Search_space.tile_candidates pruned)
        < Array.length (Core.Search_space.tile_candidates unpruned)))
    [ spec_layer; spec_mid ]

let test_search_space_validate_typed () =
  let space = direct_space () in
  let cfg = Core.Search_space.default_config space in
  Alcotest.(check bool) "default validates" true
    (Core.Search_space.validate space cfg = Ok ());
  (match Core.Search_space.validate space { cfg with algorithm = Core.Config.Winograd_dataflow 2 } with
  | Error (Core.Search_space.Wrong_algorithm _) -> ()
  | _ -> Alcotest.fail "expected Wrong_algorithm");
  (match Core.Search_space.validate space { cfg with tile_x = 9973 } with
  | Error (Core.Search_space.Tile_not_in_domain { tile = 9973, _, _ } as e) ->
    let msg = Core.Search_space.invalid_to_string e in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the offending tile" true (contains msg "9973")
  | _ -> Alcotest.fail "expected Tile_not_in_domain with the bad extent");
  (match Core.Search_space.validate space { cfg with threads_x = cfg.tile_x * 2 } with
  | Error (Core.Search_space.Threads_not_dividing _) -> ()
  | _ -> Alcotest.fail "expected Threads_not_dividing");
  (match Core.Search_space.validate space { cfg with unroll = 3 } with
  | Error (Core.Search_space.Knob_out_of_domain { knob = "unroll"; value = "3" }) -> ()
  | _ -> Alcotest.fail "expected Knob_out_of_domain for unroll=3");
  Alcotest.(check bool) "mem agrees with validate" false
    (Core.Search_space.mem space { cfg with unroll = 3 })

let test_tune_journal_roundtrip () =
  let exact = 100.0 /. 3.0 in
  let e1 = { Core.Tune_journal.key = "d|CHW|4,4,8"; outcome = Measured exact } in
  (match Core.Tune_journal.of_line (Core.Tune_journal.to_line e1) with
  | Some { key; outcome = Measured v } ->
    Alcotest.(check string) "key" e1.key key;
    (* hex-float notation: the round-trip is exact, not approximate *)
    Alcotest.(check (float 0.0)) "bit-exact runtime" exact v
  | _ -> Alcotest.fail "ok line did not parse");
  let e2 = { Core.Tune_journal.key = "k"; outcome = Failed "deadline exceeded (3 attempts)" } in
  (match Core.Tune_journal.of_line (Core.Tune_journal.to_line e2) with
  | Some { outcome = Failed r; _ } ->
    Alcotest.(check string) "reason" "deadline exceeded (3 attempts)" r
  | _ -> Alcotest.fail "fail line did not parse");
  (match Core.Tune_journal.of_line
           (Core.Tune_journal.to_line { e2 with outcome = Failed "tab\there" }) with
  | Some { outcome = Failed r; _ } -> Alcotest.(check string) "tab squashed" "tab here" r
  | _ -> Alcotest.fail "squashed fail line did not parse");
  let raises name e =
    match Core.Tune_journal.to_line e with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  raises "empty key" { e1 with key = "" };
  raises "tab in key" { e1 with key = "a\tb" };
  raises "nan runtime" { e1 with outcome = Measured Float.nan };
  raises "inf runtime" { e1 with outcome = Measured Float.infinity };
  raises "zero runtime" { e1 with outcome = Measured 0.0 };
  List.iter
    (fun line ->
      Alcotest.(check bool) ("dropped: " ^ String.escaped line) true
        (Core.Tune_journal.of_line line = None))
    [ ""; "garbage"; "j1\tk"; "j1\tk\tok\tnan"; "j1\tk\tok\tnotafloat";
      "j0\tk\tok\t0x1p1"; "j1\t\tok\t0x1p1" ];
  (* A crash mid-write leaves a torn last line; whole records still load and
     the torn fragment is counted dropped rather than silently vanishing. *)
  let path = Filename.temp_file "journal" ".j" in
  Core.Tune_journal.append path e1;
  Core.Tune_journal.append path e2;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "r\t01234567\tj1\ttrunc";
  close_out oc;
  let r = Core.Tune_journal.load path in
  Alcotest.(check int) "whole records load" 2 (List.length r.entries);
  Alcotest.(check int) "torn fragment counted" 1 r.dropped;
  let tbl = Core.Tune_journal.to_table r.entries in
  Alcotest.(check bool) "table keyed by compact config" true (Hashtbl.mem tbl e1.key);
  Sys.remove path

(* Negative zero passes a naive [> 0.0] mental model but is not a runtime a
   measurement can produce; the journal rejects it on write and drops it on
   read, like the other non-positive values. *)
let test_tune_journal_negative_zero_and_subnormals () =
  (match Core.Tune_journal.to_line { key = "k"; outcome = Measured (-0.0) } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative zero accepted on write");
  List.iter
    (fun line ->
      Alcotest.(check bool) ("dropped: " ^ String.escaped line) true
        (Core.Tune_journal.of_line line = None))
    [ "j1\tk\tok\t-0x0p+0"; "j1\tk\tok\t-0.0"; "j1\tk\tok\t0x0p+0"; "j1\tk\tok\t-0x1.8p-4" ];
  (* Positive subnormals are legal measurements as far as the format cares;
     they must survive the hex-float round-trip bit-for-bit. *)
  List.iter
    (fun v ->
      match Core.Tune_journal.of_line
              (Core.Tune_journal.to_line { key = "k"; outcome = Measured v })
      with
      | Some { outcome = Measured back; _ } ->
        Alcotest.(check int64) (Printf.sprintf "%h bit-identical" v)
          (Int64.bits_of_float v) (Int64.bits_of_float back)
      | _ -> Alcotest.failf "%h did not round-trip" v)
    [ Float.min_float; Float.ldexp 1.0 (-1074); Float.ldexp 3.0 (-1070);
      Float.max_float; Float.succ 0.0 ]

(* The bit-identical-resume guarantee, as a property: an arbitrary journal —
   keys of printable junk, runtimes spanning subnormal to huge magnitudes,
   failure reasons with whitespace — written entry by entry and loaded back
   is the same sequence, with [Measured] values equal as bit patterns (not
   merely within epsilon). *)
let qcheck_tune_journal_replay_bit_identical =
  let sanitize_key s =
    "k" ^ String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then '_' else c) s
  in
  let runtime_of (mant, ex) =
    (* ldexp over a wide exponent range reaches subnormals; complete
       underflow to 0.0 is nudged to the smallest subnormal. *)
    let v = Float.ldexp (float_of_int ((mant land 0xfffff) lor 1)) ex in
    if v = 0.0 then Float.ldexp 1.0 (-1074) else v
  in
  let entry_of (key, choice, (mant, ex), reason) =
    let outcome =
      if choice then Core.Tune_journal.Measured (runtime_of (mant, ex))
      else
        Core.Tune_journal.Failed
          (String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) reason)
    in
    { Core.Tune_journal.key = sanitize_key key; outcome }
  in
  QCheck.Test.make ~name:"tune journal replay is bit-identical" ~count:30
    QCheck.(
      small_list
        (quad small_printable_string bool
           (pair small_int (int_range (-1090) 60))
           small_printable_string))
    (fun raw ->
      let entries = List.map entry_of raw in
      let path = Filename.temp_file "journal_prop" ".j" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter (Core.Tune_journal.append path) entries;
          let back = (Core.Tune_journal.load path).entries in
          List.length back = List.length entries
          && List.for_all2
               (fun a b ->
                 a.Core.Tune_journal.key = b.Core.Tune_journal.key
                 &&
                 match (a.Core.Tune_journal.outcome, b.Core.Tune_journal.outcome) with
                 | Measured x, Measured y ->
                   Int64.bits_of_float x = Int64.bits_of_float y
                 | Failed x, Failed y -> x = y
                 | _ -> false)
               entries back))

let test_tuner_deterministic () =
  (* Reproducibility is a headline property: identical seeds must yield
     identical searches end to end. *)
  let space () = Core.Search_space.make arch spec_layer Core.Config.Direct_dataflow in
  let a = Core.Tuner.tune ~seed:9 ~max_measurements:80 ~space:(space ()) () in
  let b = Core.Tuner.tune ~seed:9 ~max_measurements:80 ~space:(space ()) () in
  Alcotest.(check (float 0.0)) "same best runtime" a.best_runtime_us b.best_runtime_us;
  Alcotest.(check bool) "same best config" true (a.best_config = b.best_config);
  Alcotest.(check int) "same measurement count" a.measurements b.measurements;
  Alcotest.(check bool) "same history" true (a.history = b.history)

let test_trial_budget_below_one_rejected () =
  (* Round 0 always measures the default config, so a budget below one
     trial cannot be honoured: it is refused before anything is measured. *)
  List.iter
    (fun max_measurements ->
      Alcotest.check_raises
        (Printf.sprintf "max_measurements=%d" max_measurements)
        (Invalid_argument "Tuner.tune_outcome: max_measurements < 1")
        (fun () ->
          ignore (Core.Tuner.tune_outcome ~max_measurements ~space:(direct_space ()) ())))
    [ 0; -1 ]

let test_baselines_run () =
  let run name result =
    Alcotest.(check bool) (name ^ " found something") true (result.Core.Tuner.best_runtime_us > 0.0);
    Alcotest.(check bool) (name ^ " history") true (result.history <> [])
  in
  run "random" (Core.Baselines.random_search ~seed:2 ~max_measurements:60 arch spec_layer
                  Core.Config.Direct_dataflow);
  run "genetic" (Core.Baselines.genetic ~seed:2 ~population:8 ~generations:6 arch spec_layer
                   Core.Config.Direct_dataflow);
  run "annealing" (Core.Baselines.simulated_annealing ~seed:2 ~max_measurements:60 arch
                     spec_layer Core.Config.Direct_dataflow)

let qcheck_bound_positive =
  QCheck.Test.make ~name:"bounds positive and monotone in problem size" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 8 32))
    (fun (c, size) ->
      let spec = Spec.make ~c_in:c ~h_in:size ~w_in:size ~c_out:c ~k_h:3 ~k_w:3 () in
      let bigger = Spec.make ~c_in:c ~h_in:(size * 2) ~w_in:(size * 2) ~c_out:c ~k_h:3 ~k_w:3 () in
      let q = Core.Direct_bound.q_lower spec ~s:256.0 in
      let q2 = Core.Direct_bound.q_lower bigger ~s:256.0 in
      q > 0.0 && q2 > q)

(* --- Canonicalization (the service cache key) --- *)

(* Two specs built through different constructor paths but describing the
   same layer must canonicalize — and therefore content-address — equally,
   and any single differing field must break the equality. *)
let qcheck_canonical_spec_equal =
  QCheck.Test.make ~name:"semantically equal specs canonicalize equal" ~count:200
    QCheck.(
      quad (int_range 1 64) (int_range 1 64) (int_range 1 7) (int_range 0 3))
    (fun (c, size, k, pad) ->
      (* Clamp: qcheck shrinkers wander below the generator's range, and a
         kernel larger than the padded image has no output (both
         constructors reject it identically — nothing to compare). *)
      let c = max 1 c and size = max 1 size and k = max 1 k and pad = max 0 pad in
      QCheck.assume (size + (2 * pad) >= k);
      let via_square = Spec.square ~c_in:c ~size ~c_out:c ~k ~pad () in
      let via_axes =
        Spec.make ~c_in:c ~h_in:size ~w_in:size ~c_out:c ~k_h:k ~k_w:k ~pad_h:pad
          ~pad_w:pad ()
      in
      let via_uniform_pad =
        Spec.make ~c_in:c ~h_in:size ~w_in:size ~c_out:c ~k_h:k ~k_w:k ~pad ()
      in
      let canon = Spec.canonical via_square in
      String.equal canon (Spec.canonical via_axes)
      && String.equal canon (Spec.canonical via_uniform_pad)
      && String.equal
           (Core.Search_space.canonical_key arch via_square Core.Config.Direct_dataflow
              ~pruned:true)
           (Core.Search_space.canonical_key arch via_axes Core.Config.Direct_dataflow
              ~pruned:true))

let qcheck_canonical_distinguishes =
  QCheck.Test.make ~name:"canonical separates differing specs and settings" ~count:100
    QCheck.(pair (int_range 1 32) (int_range 2 16))
    (fun (c, size) ->
      let c = max 1 c and size = max 3 size in
      let spec = Spec.make ~c_in:c ~h_in:size ~w_in:size ~c_out:c ~k_h:3 ~k_w:3 () in
      let bigger =
        Spec.make ~c_in:c ~h_in:(size + 1) ~w_in:size ~c_out:c ~k_h:3 ~k_w:3 ()
      in
      let key = Core.Search_space.canonical_key arch spec Core.Config.Direct_dataflow in
      (not (String.equal (Spec.canonical spec) (Spec.canonical bigger)))
      && (not
            (String.equal (key ~pruned:true)
               (Core.Search_space.canonical_key Gpu_sim.Arch.v100 spec
                  Core.Config.Direct_dataflow ~pruned:true)))
      && (not
            (String.equal (key ~pruned:true)
               (Core.Search_space.canonical_key arch spec (Core.Config.Winograd_dataflow 2)
                  ~pruned:true)))
      && not (String.equal (key ~pruned:true) (key ~pruned:false)))

let test_canonical_key_matches_space () =
  let space = Core.Search_space.make arch spec_layer Core.Config.Direct_dataflow in
  Alcotest.(check string) "canonical_key agrees with canonical of a built space"
    (Core.Search_space.canonical_key arch spec_layer Core.Config.Direct_dataflow
       ~pruned:true)
    (Core.Search_space.canonical space)

let () =
  Alcotest.run "core"
    [
      ( "genfun",
        [
          Alcotest.test_case "chain value" `Quick test_genfun_chain_value;
          Alcotest.test_case "single step" `Quick test_genfun_single_step;
          Alcotest.test_case "matches Lemma 4.11" `Quick test_genfun_matches_direct_closed_form;
          Alcotest.test_case "winograd order (Lemma 4.19)" `Quick test_genfun_winograd_order;
          QCheck_alcotest.to_alcotest qcheck_t_of_s_dominates_random_allocations;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "direct 1/sqrt(S) scaling" `Quick test_direct_bound_scaling;
          Alcotest.test_case "composite vs closed form" `Quick test_direct_bound_composite_close;
          Alcotest.test_case "winograd scaling" `Quick test_winograd_bound_scaling;
          Alcotest.test_case "winograd requires square" `Quick test_winograd_bound_requires_square;
          QCheck_alcotest.to_alcotest qcheck_bound_positive;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "bound scaling" `Quick test_matmul_bound_scaling;
          Alcotest.test_case "T(S) matches closed form" `Quick test_matmul_t_matches_closed_form;
          Alcotest.test_case "blocked above bound" `Quick test_matmul_blocked_above_bound;
          Alcotest.test_case "pebble game never beats bound" `Slow
            test_pebble_game_respects_matmul_bound;
        ] );
      ( "pebble-vs-theory",
        [
          Alcotest.test_case "direct DAG never beats Theorem 4.12" `Slow
            test_pebble_game_respects_direct_bound;
          Alcotest.test_case "winograd DAG never beats Theorem 4.20" `Slow
            test_pebble_game_respects_winograd_bound;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "Eq.20 matches exact tally" `Quick test_q_dc_tile_matches_exact_tally;
          Alcotest.test_case "minimised on xy=Rz" `Quick test_q_dc_minimised_on_manifold;
          Alcotest.test_case "Eq.21 from Eq.20 at optimum" `Quick test_q_dc_optimal_formula;
          Alcotest.test_case "Eq.23 from Eq.22 at optimum" `Quick test_q_wa_optimal_formula;
          Alcotest.test_case "dataflow above bound, small gap" `Quick
            test_dataflow_above_lower_bound;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "helpers" `Quick test_optimality_helpers;
          Alcotest.test_case "direct tile properties" `Quick test_optimal_tile_direct_properties;
          Alcotest.test_case "winograd tile multiples of e" `Quick
            test_optimal_tile_winograd_multiple_of_e;
        ] );
      ( "search-space",
        [
          Alcotest.test_case "features arity" `Quick test_config_features_arity;
          Alcotest.test_case "kernels launchable" `Quick test_config_kernel_launchable;
          Alcotest.test_case "derates in range" `Quick test_config_derates_in_range;
          Alcotest.test_case "pruning shrinks space" `Quick test_space_pruning_shrinks;
          Alcotest.test_case "samples/neighbors are members" `Quick test_space_samples_are_members;
          Alcotest.test_case "pruned tiles satisfy condition" `Quick
            test_space_tiles_satisfy_condition_when_pruned;
          Alcotest.test_case "winograd tiles multiples of e" `Quick
            test_space_winograd_tiles_multiple_of_e;
          Alcotest.test_case "size matches enumeration" `Quick test_space_size_matches_enumeration;
          Alcotest.test_case "tuner near exhaustive optimum" `Slow
            test_tuner_near_exhaustive_optimum;
        ] );
      ( "canonical",
        [
          QCheck_alcotest.to_alcotest qcheck_canonical_spec_equal;
          QCheck_alcotest.to_alcotest qcheck_canonical_distinguishes;
          Alcotest.test_case "canonical_key matches built space" `Quick
            test_canonical_key_matches_space;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "learns ranking" `Slow test_cost_model_learns_ordering;
          Alcotest.test_case "untrained constant" `Quick test_cost_model_untrained_constant;
          Alcotest.test_case "tuner model pinned bit for bit" `Quick test_cost_model_pinned;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "explorer members" `Quick test_explorer_returns_members;
          Alcotest.test_case "explorer parallel = sequential" `Quick
            test_explorer_parallel_equals_sequential;
          Alcotest.test_case "tuner parallel = sequential" `Slow
            test_tuner_parallel_equals_sequential;
          Alcotest.test_case "tuner improves and converges" `Slow test_tuner_improves_and_converges;
          Alcotest.test_case "ATE vs TVM (Table 2 miniature)" `Slow test_ate_beats_tvm_on_search_cost;
          Alcotest.test_case "tuner deterministic" `Slow test_tuner_deterministic;
          Alcotest.test_case "trial budget below one is rejected" `Quick
            test_trial_budget_below_one_rejected;
          Alcotest.test_case "baselines run" `Slow test_baselines_run;
          Alcotest.test_case "explorer ranking pinned" `Quick test_explorer_ranking_pinned;
          Alcotest.test_case "tuner pinned bit for bit" `Quick test_tuner_pinned;
          Alcotest.test_case "tune allocation ceiling" `Quick test_tune_allocation_ceiling;
        ] );
      ( "errors",
        [
          Alcotest.test_case "argument validation" `Quick test_error_paths;
          Alcotest.test_case "tile pruning = brute-force filter" `Quick
            test_tile_pruning_equals_brute_force;
          Alcotest.test_case "typed space validation" `Quick test_search_space_validate_typed;
        ] );
      ( "template",
        [
          Alcotest.test_case "direct render" `Quick test_template_direct;
          Alcotest.test_case "winograd render" `Quick test_template_winograd;
          Alcotest.test_case "geometry" `Quick test_template_geometry;
          Alcotest.test_case "depthwise stages" `Quick test_template_depthwise;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "config compact roundtrip" `Quick test_config_compact_roundtrip;
          Alcotest.test_case "tune journal roundtrip" `Quick test_tune_journal_roundtrip;
          Alcotest.test_case "tune journal -0.0 and subnormals" `Quick
            test_tune_journal_negative_zero_and_subnormals;
          QCheck_alcotest.to_alcotest qcheck_tune_journal_replay_bit_identical;
          Alcotest.test_case "config hash covers every field" `Quick
            test_config_hash_covers_every_field;
        ] );
    ]
