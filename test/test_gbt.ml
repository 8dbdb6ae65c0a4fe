(* Tests for the gradient-boosted trees library: dataset bookkeeping, single
   regression trees on separable data, and boosting's ability to drive
   training error down on nonlinear targets. *)

let make_dataset n f =
  let rng = Util.Rng.create 99 in
  let data = Gbt.Dataset.create ~n_features:2 in
  for _ = 1 to n do
    let x0 = Util.Rng.float rng 4.0 -. 2.0 and x1 = Util.Rng.float rng 4.0 -. 2.0 in
    Gbt.Dataset.add data [| x0; x1 |] (f x0 x1)
  done;
  data

let test_dataset_basic () =
  let d = Gbt.Dataset.create ~n_features:3 in
  Alcotest.(check int) "empty" 0 (Gbt.Dataset.length d);
  Gbt.Dataset.add d [| 1.0; 2.0; 3.0 |] 7.0;
  Alcotest.(check int) "one" 1 (Gbt.Dataset.length d);
  Alcotest.(check int) "arity" 3 (Gbt.Dataset.n_features d);
  Alcotest.(check (float 0.0)) "target" 7.0 (Gbt.Dataset.target d 0);
  Alcotest.(check (array (float 0.0))) "features" [| 1.0; 2.0; 3.0 |] (Gbt.Dataset.features d 0)

let test_dataset_growth () =
  let d = Gbt.Dataset.create ~n_features:1 in
  for i = 1 to 1000 do
    Gbt.Dataset.add d [| float_of_int i |] (float_of_int i)
  done;
  Alcotest.(check int) "length" 1000 (Gbt.Dataset.length d);
  Alcotest.(check (float 0.0)) "row 500" 501.0 (Gbt.Dataset.target d 500)

let test_dataset_arity_mismatch () =
  let d = Gbt.Dataset.create ~n_features:2 in
  Alcotest.check_raises "arity" (Invalid_argument "Dataset.add: arity mismatch") (fun () ->
      Gbt.Dataset.add d [| 1.0 |] 0.0)

let test_dataset_fold () =
  let d = make_dataset 10 (fun _ _ -> 1.0) in
  let total = Gbt.Dataset.fold d ~init:0.0 (fun acc _ y -> acc +. y) in
  Alcotest.(check (float 1e-9)) "fold targets" 10.0 total

let test_tree_splits_step_function () =
  (* A single tree must nail a 1D step function. *)
  let data = make_dataset 200 (fun x0 _ -> if x0 > 0.0 then 10.0 else -10.0) in
  let n = Gbt.Dataset.length data in
  let grad = Array.init n (fun i -> -.Gbt.Dataset.target data i) in
  let hess = Array.make n 1.0 in
  (* With prediction 0, grad = pred - y = -y; leaf weights recover ~y for
     small lambda. *)
  let params = { Gbt.Tree.default_params with lambda = 1e-6; max_depth = 2 } in
  let tree = Gbt.Tree.fit params (Gbt.Dataset.presort data) ~grad ~hess in
  Alcotest.(check bool) "split found" true (Gbt.Tree.num_leaves tree >= 2);
  Alcotest.(check bool) "positive side" true
    (Float.abs (Gbt.Tree.predict tree [| 1.0; 0.0 |] -. 10.0) < 0.5);
  Alcotest.(check bool) "negative side" true
    (Float.abs (Gbt.Tree.predict tree [| -1.0; 0.0 |] +. 10.0) < 0.5)

let test_tree_pure_leaf_no_split () =
  let data = make_dataset 50 (fun _ _ -> 3.0) in
  let n = Gbt.Dataset.length data in
  let grad = Array.make n 0.0 and hess = Array.make n 1.0 in
  let tree = Gbt.Tree.fit Gbt.Tree.default_params (Gbt.Dataset.presort data) ~grad ~hess in
  Alcotest.(check int) "constant target: single leaf" 1 (Gbt.Tree.num_leaves tree)

let test_tree_depth_limited () =
  let data = make_dataset 300 (fun x0 x1 -> sin (3.0 *. x0) +. x1) in
  let n = Gbt.Dataset.length data in
  let grad = Array.init n (fun i -> -.Gbt.Dataset.target data i) in
  let hess = Array.make n 1.0 in
  let params = { Gbt.Tree.default_params with max_depth = 3 } in
  let tree = Gbt.Tree.fit params (Gbt.Dataset.presort data) ~grad ~hess in
  Alcotest.(check bool) "depth bounded" true (Gbt.Tree.depth tree <= 3)

let test_booster_fits_linear () =
  let data = make_dataset 300 (fun x0 x1 -> (2.0 *. x0) -. (3.0 *. x1) +. 1.0) in
  let booster = Gbt.Booster.train Gbt.Booster.default_params data in
  let rmse = Gbt.Booster.train_rmse booster data in
  Alcotest.(check bool) (Printf.sprintf "rmse %.3f small" rmse) true (rmse < 0.5)

let test_booster_fits_nonlinear () =
  let data = make_dataset 400 (fun x0 x1 -> (x0 *. x1) +. Float.abs x0) in
  let booster = Gbt.Booster.train Gbt.Booster.default_params data in
  let rmse = Gbt.Booster.train_rmse booster data in
  Alcotest.(check bool) (Printf.sprintf "rmse %.3f small" rmse) true (rmse < 0.4)

let test_booster_improves_with_rounds () =
  let data = make_dataset 300 (fun x0 x1 -> (x0 *. x1) +. sin x0) in
  let rmse_at rounds =
    let params = { Gbt.Booster.default_params with rounds } in
    Gbt.Booster.train_rmse (Gbt.Booster.train params data) data
  in
  let short = rmse_at 5 and long = rmse_at 80 in
  Alcotest.(check bool) (Printf.sprintf "5 rounds %.3f > 80 rounds %.3f" short long) true
    (long < short)

let test_booster_num_trees () =
  let data = make_dataset 50 (fun x0 _ -> x0) in
  let params = { Gbt.Booster.default_params with rounds = 7 } in
  Alcotest.(check int) "rounds = trees" 7 (Gbt.Booster.num_trees (Gbt.Booster.train params data))

let test_booster_empty_dataset () =
  let d = Gbt.Dataset.create ~n_features:1 in
  Alcotest.check_raises "empty" (Invalid_argument "Booster.train: empty dataset") (fun () ->
      ignore (Gbt.Booster.train Gbt.Booster.default_params d))

let test_booster_subsample () =
  let data = make_dataset 300 (fun x0 x1 -> x0 +. x1) in
  let rng = Util.Rng.create 4 in
  let params = { Gbt.Booster.default_params with subsample = 0.7 } in
  let booster = Gbt.Booster.train ~rng params data in
  let rmse = Gbt.Booster.train_rmse booster data in
  Alcotest.(check bool) (Printf.sprintf "subsampled rmse %.3f" rmse) true (rmse < 0.6)

let test_training_parallel_equals_sequential () =
  (* Training keeps every buffer inside its own booster and only reads the
     dataset, so boosters trained at once on real worker domains (forced
     into the shared pool even on single-core hosts), all from one shared
     dataset, must not move a single ulp from one trained alone. *)
  Util.Pool.ensure_workers (Util.Pool.default ()) 3;
  let data = make_dataset 600 (fun x0 x1 -> (x0 *. x1) +. sin (3.0 *. x0) -. x1) in
  let params = { Gbt.Booster.default_params with rounds = 12 } in
  let probes =
    let rng = Util.Rng.create 5 in
    Array.init 50 (fun _ ->
        [| Util.Rng.float rng 4.0 -. 2.0; Util.Rng.float rng 4.0 -. 2.0 |])
  in
  let predictions booster = Array.map (Gbt.Booster.predict booster) probes in
  let expected = predictions (Gbt.Booster.train params data) in
  List.iter
    (fun lanes ->
      let boosters = Array.make lanes None in
      Util.Pool.run_all (Util.Pool.default ())
        (List.init lanes (fun lane () ->
             boosters.(lane) <- Some (Gbt.Booster.train params data)));
      Array.iteri
        (fun lane booster ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "bit-identical predictions, lane %d of %d" lane lanes)
            expected
            (predictions (Option.get booster)))
        boosters)
    [ 2; 4; 8 ]

(* The exact split finder's specification, kept here as a naive reference:
   every node re-sorts its own samples by (value, index) on each feature and
   scans them with the same sums and tie rules — node totals in ascending
   sample index, per-feature totals and prefix sums in that feature's order,
   candidates only between distinct values at their midpoint, the first of
   equal gains winning within a feature and then in feature order, and a
   split only on positive gain.  It emits [Tree.to_compact]'s encoding. *)
let reference_compact (params : Gbt.Tree.params) rows ~n_features ~grad ~hess =
  let score g h = g *. g /. (h +. params.lambda) in
  let sum a node = List.fold_left (fun acc i -> acc +. a.(i)) 0.0 node in
  let tokens = ref [] in
  let rec build node depth =
    let leaf () =
      tokens := Printf.sprintf "L:%h" (-.sum grad node /. (sum hess node +. params.lambda)) :: !tokens
    in
    if depth >= params.max_depth || List.length node < params.min_samples then leaf ()
    else begin
      let best = ref None in
      for f = 0 to n_features - 1 do
        let sorted =
          Array.of_list
            (List.sort (fun i j -> compare (rows.(i).(f), i) (rows.(j).(f), j)) node)
        in
        let g_total = sum grad (Array.to_list sorted) and h_total = sum hess (Array.to_list sorted) in
        let base = score g_total h_total in
        let on_f = ref None and g_left = ref 0.0 and h_left = ref 0.0 in
        for pos = 0 to Array.length sorted - 2 do
          g_left := !g_left +. grad.(sorted.(pos));
          h_left := !h_left +. hess.(sorted.(pos));
          let v = rows.(sorted.(pos)).(f) and v' = rows.(sorted.(pos + 1)).(f) in
          if v < v' then begin
            let gain =
              (0.5
              *. (score !g_left !h_left +. score (g_total -. !g_left) (h_total -. !h_left) -. base))
              -. params.gamma
            in
            match !on_f with
            | Some (best_gain, _, _) when best_gain >= gain -> ()
            | _ -> on_f := Some (gain, (v +. v') /. 2.0, Array.to_list (Array.sub sorted 0 (pos + 1)))
          end
        done;
        match (!on_f, !best) with
        | Some (gain, _, _), _ when not (gain > 0.0) -> ()
        | Some (gain, _, _), Some (best_gain, _, _, _) when best_gain >= gain -> ()
        | Some (gain, threshold, left), _ -> best := Some (gain, f, threshold, left)
        | None, _ -> ()
      done;
      match !best with
      | None -> leaf ()
      | Some (_, f, threshold, left) ->
        tokens := Printf.sprintf "S:%d:%h" f threshold :: !tokens;
        build (List.filter (fun i -> List.mem i left) node) (depth + 1);
        build (List.filter (fun i -> not (List.mem i left)) node) (depth + 1)
    end
  in
  build (List.init (Array.length rows) Fun.id) 0;
  String.concat " " (List.rev !tokens)

(* Feature values come from four levels, so ties within a feature and
   duplicate rows are common; only the first [n_features] of each row's five
   levels are used.  A gradient or hessian is either rounded to an integer,
   which makes equal gains (and so the tie rules) common, or left as drawn.
   Empty and one-row datasets get a share of their own: they are the edge
   of the segment scans. *)
let arb_tree_case =
  QCheck.(
    pair
      (quad (int_range 1 5) (int_range 0 6) (int_range 0 4) (pair bool bool))
      (list_of_size
         Gen.(frequency [ (1, return 0); (1, return 1); (8, int_range 2 40) ])
         (triple
            (array_of_size (Gen.return 5) (int_range 0 3))
            (pair bool (float_range (-2.0) 2.0))
            (pair bool (float_range 0.0 2.0)))))

let statistic (round, x) = if round then Float.round x else x

let qcheck_fit_matches_reference =
  QCheck.Test.make ~name:"fit matches the naive reference" ~count:1000
    arb_tree_case
    (fun ((n_features, max_depth, min_samples, (small_lambda, with_gamma)), samples) ->
      let params =
        {
          Gbt.Tree.max_depth;
          min_samples;
          lambda = (if small_lambda then 0.25 else 1.0);
          gamma = (if with_gamma then 0.5 else 0.0);
        }
      in
      let rows =
        Array.of_list
          (List.map
             (fun (levels, _, _) ->
               Array.init n_features (fun f -> (0.5 *. float_of_int levels.(f)) -. 0.5))
             samples)
      in
      let grad = Array.of_list (List.map (fun (_, g, _) -> statistic g) samples) in
      let hess = Array.of_list (List.map (fun (_, _, h) -> statistic h) samples) in
      let data = Gbt.Dataset.create ~n_features in
      Array.iter (fun x -> Gbt.Dataset.add data x 0.0) rows;
      Gbt.Tree.to_compact (Gbt.Tree.fit params (Gbt.Dataset.presort data) ~grad ~hess)
      = reference_compact params rows ~n_features ~grad ~hess)

let qcheck_booster_interpolates_mean =
  QCheck.Test.make ~name:"constant datasets predict the constant" ~count:20
    QCheck.(float_range (-100.) 100.)
    (fun c ->
      let data = Gbt.Dataset.create ~n_features:1 in
      for i = 0 to 9 do
        Gbt.Dataset.add data [| float_of_int i |] c
      done;
      let booster = Gbt.Booster.train { Gbt.Booster.default_params with rounds = 3 } data in
      Float.abs (Gbt.Booster.predict booster [| 4.0 |] -. c) < 1e-6 +. (Float.abs c *. 1e-6))

let () =
  Alcotest.run "gbt"
    [
      ( "dataset",
        [
          Alcotest.test_case "basic" `Quick test_dataset_basic;
          Alcotest.test_case "growth" `Quick test_dataset_growth;
          Alcotest.test_case "arity mismatch" `Quick test_dataset_arity_mismatch;
          Alcotest.test_case "fold" `Quick test_dataset_fold;
        ] );
      ( "tree",
        [
          Alcotest.test_case "splits step function" `Quick test_tree_splits_step_function;
          Alcotest.test_case "pure leaf" `Quick test_tree_pure_leaf_no_split;
          Alcotest.test_case "depth limited" `Quick test_tree_depth_limited;
          QCheck_alcotest.to_alcotest qcheck_fit_matches_reference;
        ] );
      ( "booster",
        [
          Alcotest.test_case "fits linear" `Quick test_booster_fits_linear;
          Alcotest.test_case "fits nonlinear" `Quick test_booster_fits_nonlinear;
          Alcotest.test_case "improves with rounds" `Quick test_booster_improves_with_rounds;
          Alcotest.test_case "num trees" `Quick test_booster_num_trees;
          Alcotest.test_case "empty dataset" `Quick test_booster_empty_dataset;
          Alcotest.test_case "subsample" `Quick test_booster_subsample;
          Alcotest.test_case "parallel training = sequential" `Quick
            test_training_parallel_equals_sequential;
          QCheck_alcotest.to_alcotest qcheck_booster_interpolates_mean;
        ] );
    ]
