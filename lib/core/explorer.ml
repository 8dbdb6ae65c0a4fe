let explore ?(n_walks = 12) ?(walk_len = 40) ?(escape_probability = 0.05)
    ?(avoid = fun _ -> false) ~space ~model ~rng ~starts () =
  if n_walks < 1 || walk_len < 0 then invalid_arg "Explorer.explore";
  let starts = Array.of_list starts in
  (* One draw from the caller's stream seeds every walk: walk [w] owns the
     independent stream [create (base + w)], so walks never share rng state
     and one walk's length cannot shift another's draws. *)
  let base_seed = Int64.to_int (Util.Rng.int64 rng) in
  let run_walk walk =
    let rng = Util.Rng.create (base_seed + walk) in
    let visited = Hashtbl.create 32 in
    let remember cfg cost =
      let key = Config.to_string cfg in
      match Hashtbl.find_opt visited key with
      | Some (_, best) when best <= cost -> ()
      | _ -> Hashtbl.replace visited key (cfg, cost)
    in
    let start =
      if walk < Array.length starts then starts.(walk) else Search_space.sample space rng
    in
    let current = ref start in
    let current_cost = ref (Cost_model.predict_runtime_us model !current) in
    remember !current !current_cost;
    for _ = 1 to walk_len do
      let candidate = Search_space.neighbor space rng !current in
      let cost = Cost_model.predict_runtime_us model candidate in
      if cost < !current_cost || Util.Rng.float rng 1.0 < escape_probability then begin
        current := candidate;
        current_cost := cost
      end;
      remember candidate cost
    done;
    visited
  in
  let per_walk = Array.init n_walks run_walk in
  (* Merge the per-walk tables in walk order, then break cost ties on the
     config key: the ranking never depends on hash-table iteration order. *)
  let results = Hashtbl.create 64 in
  Array.iter
    (fun visited ->
      Hashtbl.iter
        (fun key ((_, cost) as entry) ->
          match Hashtbl.find_opt results key with
          | Some (_, best) when best <= cost -> ()
          | _ -> Hashtbl.replace results key entry)
        visited)
    per_walk;
  Hashtbl.fold (fun key (cfg, cost) acc -> (key, cfg, cost) :: acc) results []
  |> List.sort (fun (ka, _, a) (kb, _, b) ->
         match compare a b with 0 -> compare ka kb | c -> c)
  |> List.filter_map (fun (_, cfg, _) -> if avoid cfg then None else Some cfg)
