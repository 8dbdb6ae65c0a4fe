(* Shared bookkeeping: run a measurement-driven strategy and package it as a
   Tuner.result so every searcher plots on the same axes. *)
type recorder = {
  space : Search_space.t;
  seed : int;
  measured : float Config.Tbl.t;
  mutable best : (Config.t * float) option;
  mutable count : int;
  mutable converged_at : int;
  mutable history : Tuner.progress list;
}

let recorder ~space ~seed =
  { space; seed; measured = Config.Tbl.create 128; best = None; count = 0; converged_at = 0;
    history = [] }

let measure rec_ cfg =
  match Config.Tbl.find_opt rec_.measured cfg with
  | Some runtime -> runtime
  | None ->
    let arch = Search_space.arch rec_.space and spec = Search_space.spec rec_.space in
    let runtime = Tuner.measure_config ~seed:rec_.seed arch spec cfg in
    Config.Tbl.add rec_.measured cfg runtime;
    rec_.count <- rec_.count + 1;
    (match rec_.best with
    | Some (_, best) when best <= runtime -> ()
    | _ ->
      rec_.best <- Some (cfg, runtime);
      rec_.converged_at <- rec_.count);
    let best_runtime = match rec_.best with Some (_, r) -> r | None -> runtime in
    rec_.history <-
      { Tuner.measurement = rec_.count; best_runtime_us = best_runtime } :: rec_.history;
    runtime

let finish rec_ =
  match rec_.best with
  | None -> failwith "Baselines: nothing measured"
  | Some (cfg, runtime) ->
    let spec = Search_space.spec rec_.space in
    let history = List.rev rec_.history in
    {
      Tuner.best_config = cfg;
      best_runtime_us = runtime;
      best_gflops = Tuner.nominal_gflops spec ~runtime_us:runtime;
      measurements = rec_.count;
      converged_at = Tuner.convergence_point ~final:runtime history;
      history;
      space_size = Search_space.size rec_.space;
      faults = Tuner.no_faults;
      stop = Tuner.Converged;
    }

let tvm ?seed ?batch_size ?patience ?max_measurements arch spec algorithm =
  let space = Search_space.make ~pruned:false arch spec algorithm in
  Tuner.tune ?seed ?batch_size ?patience ?max_measurements ~space ()

let random_search ?(seed = 0) ?(max_measurements = 600) arch spec algorithm =
  let space = Search_space.make ~pruned:false arch spec algorithm in
  let rng = Util.Rng.create (seed + 31) in
  let rec_ = recorder ~space ~seed in
  while rec_.count < max_measurements do
    ignore (measure rec_ (Search_space.sample space rng))
  done;
  finish rec_

let genetic ?(seed = 0) ?(population = 16) ?(generations = 30) ?(mutation_rate = 0.3) arch
    spec algorithm =
  let space = Search_space.make ~pruned:false arch spec algorithm in
  let rng = Util.Rng.create (seed + 47) in
  let rec_ = recorder ~space ~seed in
  let crossover a (b : Config.t) =
    (* Tile and threads travel together (threads must divide the tile); the
       scalar knobs mix independently. *)
    let base = if Util.Rng.bool rng then a else b in
    {
      base with
      Config.unroll = (if Util.Rng.bool rng then a.Config.unroll else b.Config.unroll);
      vector_width = (if Util.Rng.bool rng then a.Config.vector_width else b.Config.vector_width);
      layout = (if Util.Rng.bool rng then a.Config.layout else b.Config.layout);
      double_buffer = (if Util.Rng.bool rng then a.Config.double_buffer else b.Config.double_buffer);
    }
  in
  let tournament scored =
    let pick () = scored.(Util.Rng.int rng (Array.length scored)) in
    let (c1, f1) = pick () and (c2, f2) = pick () in
    if f1 <= f2 then c1 else c2
  in
  let pop = ref (Array.init population (fun _ -> Search_space.sample space rng)) in
  for _ = 1 to generations do
    let scored = Array.map (fun cfg -> (cfg, measure rec_ cfg)) !pop in
    let next =
      Array.init population (fun _ ->
          let parent_a = tournament scored and parent_b = tournament scored in
          let child = crossover parent_a parent_b in
          if Util.Rng.float rng 1.0 < mutation_rate then
            Search_space.neighbor space rng child
          else child)
    in
    pop := next
  done;
  finish rec_

let simulated_annealing ?(seed = 0) ?(max_measurements = 600) ?(initial_temperature = 0.4)
    ?(cooling = 0.97) arch spec algorithm =
  let space = Search_space.make ~pruned:false arch spec algorithm in
  let rng = Util.Rng.create (seed + 59) in
  let rec_ = recorder ~space ~seed in
  let current = ref (Search_space.sample space rng) in
  let current_cost = ref (measure rec_ !current) in
  let temperature = ref initial_temperature in
  while rec_.count < max_measurements do
    let candidate = Search_space.neighbor space rng !current in
    let cost = measure rec_ candidate in
    let accept =
      cost < !current_cost
      ||
      let delta = (cost -. !current_cost) /. !current_cost in
      Util.Rng.float rng 1.0 < exp (-.delta /. Float.max 1e-6 !temperature)
    in
    if accept then begin
      current := candidate;
      current_cost := cost
    end;
    temperature := !temperature *. cooling
  done;
  finish rec_
