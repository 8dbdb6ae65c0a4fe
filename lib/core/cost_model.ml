type t = {
  spec : Conv.Conv_spec.t;
  data : Gbt.Dataset.t;
  mutable booster : Gbt.Booster.t option;
}

let create spec =
  { spec; data = Gbt.Dataset.create ~n_features:Config.n_features; booster = None }

let add_measurement t cfg runtime_us =
  if (not (Float.is_finite runtime_us)) || runtime_us <= 0.0 then
    invalid_arg "Cost_model.add_measurement: non-finite or non-positive runtime";
  Gbt.Dataset.add t.data (Config.features t.spec cfg) (log runtime_us)

(* Failed configurations still inform the model: they enter the dataset at a
   penalty runtime far above anything measurable, steering the explorer away
   from the region without aborting the round. *)
let failure_penalty_us = 1.0e7

let add_failure t cfg =
  Gbt.Dataset.add t.data (Config.features t.spec cfg) (log failure_penalty_us)

let retrain ?rng ?domains t =
  if Gbt.Dataset.length t.data > 0 then
    t.booster <- Some (Gbt.Booster.train ?rng ?domains Gbt.Booster.default_params t.data)

let predict_runtime_us t cfg =
  match t.booster with
  | None -> 1.0e9
  | Some booster -> exp (Gbt.Booster.predict booster (Config.features t.spec cfg))

let trained t = t.booster <> None

let snapshot t = Option.map Gbt.Booster.to_compact t.booster
