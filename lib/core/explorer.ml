let explore ?(n_walks = 12) ?(walk_len = 40) ?(escape_probability = 0.05)
    ?(avoid = fun _ -> false) ~space ~model ~rng ~starts () =
  if n_walks < 1 || walk_len < 0 then invalid_arg "Explorer.explore";
  let starts = Array.of_list starts in
  (* One draw from the caller's stream seeds every walk: walk [w] owns the
     independent stream [create (base + w)], so walks never share rng state
     and one walk's length cannot shift another's draws. *)
  let base_seed = Int64.to_int (Util.Rng.int64 rng) in
  (* The model is fixed for the whole explore, so a config's predicted cost
     is the same wherever a walk meets it: price each distinct config once.
     The table's keys are also every config the walks visited. *)
  let prices = Config.Tbl.create 256 in
  let price cfg =
    match Config.Tbl.find prices cfg with
    | cost -> cost
    | exception Not_found ->
      let cost = Cost_model.predict_runtime_us model cfg in
      Config.Tbl.add prices cfg cost;
      cost
  in
  for walk = 0 to n_walks - 1 do
    let rng = Util.Rng.create (base_seed + walk) in
    let current =
      ref (if walk < Array.length starts then starts.(walk) else Search_space.sample space rng)
    in
    let current_cost = ref (price !current) in
    for _ = 1 to walk_len do
      let candidate = Search_space.neighbor space rng !current in
      let cost = price candidate in
      if cost < !current_cost || Util.Rng.float rng 1.0 < escape_probability then begin
        current := candidate;
        current_cost := cost
      end
    done
  done;
  (* Rank by cost, then break ties on the config key, so the ranking never
     depends on table order.  A key is printed only for a config whose cost
     ties another's. *)
  Config.Tbl.fold (fun cfg cost acc -> (cost, lazy (Config.to_string cfg), cfg) :: acc) prices []
  |> List.sort (fun (a, key_a, _) (b, key_b, _) ->
         match Float.compare a b with
         | 0 -> String.compare (Lazy.force key_a) (Lazy.force key_b)
         | c -> c)
  |> List.filter_map (fun (_, _, cfg) -> if avoid cfg then None else Some cfg)
