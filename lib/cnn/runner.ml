type backend = Cudnn | Miopen

type layer_timing = {
  layer : Layer.t;
  ours_us : float;
  ours_algorithm : string;
  ours_result : Core.Tuner.result option;
  ours_replayed : bool;
  live : int;
  library_us : float;
  library_algorithm : string;
}

type model_timing = {
  model : string;
  layers : layer_timing list;
  ours_total_us : float;
  library_total_us : float;
  speedup : float;
  health : Core.Supervisor.report option;
}

(* A memoised result and its provenance: [replayed] when it was read from
   the result cache rather than tuned in this process. *)
type memo_entry = { result : Core.Tuner.result; replayed : bool }

let memo : (string, memo_entry) Hashtbl.t = Hashtbl.create 64

let clear_cache () = Hashtbl.reset memo

let remember ~key ~replayed result =
  let entry = { result; replayed } in
  Hashtbl.replace memo key entry;
  entry

(* A cache entry as a memoisable result.  The search history is gone — only
   the answer survives — so [stop] is a placeholder that [replayed] flags. *)
let result_of_entry (e : Service.Result_cache.entry) =
  {
    Core.Tuner.best_config = e.config;
    best_runtime_us = e.runtime_us;
    best_gflops = e.gflops;
    measurements = e.trials;
    converged_at = 0;
    history = [];
    space_size = 0.0;
    faults = Core.Tuner.no_faults;
    stop = Core.Tuner.Converged;
  }

(* The entry a memo key already has: the memo's own, else the cache's —
   memoised as replayed, so later calls (and later models sharing the
   shape) keep its provenance. *)
let recall cache ~key ~canonical =
  match Hashtbl.find_opt memo key with
  | Some _ as hit -> hit
  | None ->
    Option.bind cache (fun cache -> Service.Result_cache.find cache ~canonical)
    |> Option.map (fun e -> remember ~key ~replayed:true (result_of_entry e))

(* A live result goes to the cache once, priced the way the auditor
   re-derives it on every later read. *)
let write_back cache ~source arch spec ~canonical (r : Core.Tuner.result) =
  Option.iter
    (fun cache ->
      Service.Result_cache.put cache
        {
          Service.Result_cache.key = Service.Result_cache.key_of_canonical canonical;
          canonical;
          source;
          runtime_us = r.best_runtime_us;
          gflops = r.best_gflops;
          predicted_us = Verify.Audit.predicted_us arch spec r.best_config;
          trials = r.measurements;
          config = r.best_config;
        })
    cache

(* The domain's content key (the cache's), and the memo key: the tune's
   identity, which also names its journal. *)
let keys arch spec algorithm ~seed ~max_measurements ~faults =
  let canonical = Core.Search_space.canonical_key arch spec algorithm ~pruned:true in
  ( canonical,
    Service.Tune_identity.make ~canonical ~seed ~budget:max_measurements ~faults )

(* One candidate: memo, then cache, then a live tune.  The flag says
   whether a tune ran. *)
let resolve ?cache ~seed ~max_measurements ?faults ?journal_dir arch spec algorithm =
  let canonical, key = keys arch spec algorithm ~seed ~max_measurements ~faults in
  match recall cache ~key ~canonical with
  | Some entry -> (entry, false)
  | None ->
    let journal =
      Option.map (fun dir -> Service.Tune_identity.journal_path ~dir key) journal_dir
    in
    let space = Core.Search_space.make arch spec algorithm in
    let result = Core.Tuner.tune ~seed ~max_measurements ?faults ?journal ~space () in
    write_back cache ~source:Service.Protocol.Src_tuned arch spec ~canonical result;
    (remember ~key ~replayed:false result, true)

let tuned_runtime ?(seed = 0) ?(max_measurements = 200) ?faults ?journal_dir arch spec
    algorithm =
  (fst (resolve ~seed ~max_measurements ?faults ?journal_dir arch spec algorithm)).result

(* --- supervised tuning: route one candidate through a Supervisor session --- *)

(* The memoised runtime becomes whatever the outcome carries, so repeated
   shapes cost the session nothing; a degraded task memoises a synthesised
   result (the analytic or breaker-salvaged best) whose [stop] records why
   the search was cut short.  The truthful outcome lives in the session's
   report either way. *)
let result_of_degraded spec reason config runtime_us faults =
  let stop =
    match (reason : Core.Supervisor.degrade_reason) with
    | Core.Supervisor.Breaker_open { consecutive; _ } ->
      Core.Tuner.Breaker_tripped consecutive
    | Core.Supervisor.Budget_exhausted _ -> Core.Tuner.Deadline_reached
  in
  {
    Core.Tuner.best_config = config;
    best_runtime_us = runtime_us;
    best_gflops = Core.Tuner.nominal_gflops spec ~runtime_us;
    measurements = 0;
    converged_at = 0;
    history = [];
    space_size = 0.0;
    faults;
    stop;
  }

(* [resolve] under supervision: hits are recorded as free replays, a
   degraded result is memoised but kept out of the cache (a fresh budget
   should tune it properly), and a task that cannot start resolves to
   [None]. *)
let resolve_supervised session ?cache ~seed ~max_measurements ?faults ?journal_dir arch
    spec algorithm =
  let canonical, key = keys arch spec algorithm ~seed ~max_measurements ~faults in
  match recall cache ~key ~canonical with
  | Some entry ->
    ignore (Core.Supervisor.record_cached session ~key:canonical entry.result);
    (Some entry, false)
  | None ->
    let entry =
      match Core.Search_space.make arch spec algorithm with
      | exception Invalid_argument msg ->
        ignore
          (Core.Supervisor.record_failed session ~key:canonical
             (Core.Supervisor.Empty_domain msg));
        None
      | space -> (
        let journal =
      Option.map (fun dir -> Service.Tune_identity.journal_path ~dir key) journal_dir
    in
        let live source r =
          write_back cache ~source arch spec ~canonical r;
          Some (remember ~key ~replayed:false r)
        in
        match
          Core.Supervisor.tune_task session ~key:canonical ~seed ~max_measurements ?faults
            ?journal ~space ()
        with
        | Core.Supervisor.Tuned r -> live Service.Protocol.Src_tuned r
        | Core.Supervisor.Replayed r -> live Service.Protocol.Src_replayed r
        | Core.Supervisor.Degraded { reason; config; runtime_us; faults } ->
          Some
            (remember ~key ~replayed:false
               (result_of_degraded spec reason config runtime_us faults))
        | Core.Supervisor.Failed _ -> None)
    in
    (entry, true)

(* Winograd on large-e tiles makes no sense for tiny images; use F(2x2) as
   the paper does in its kernels, falling back to F(4x4) only when the output
   is large enough to amortise the bigger transform. *)
let winograd_e (spec : Conv.Conv_spec.t) =
  if Conv.Conv_spec.h_out spec >= 16 && spec.k_h = 3 then 4 else 2

let candidates (layer : Layer.t) =
  Core.Config.Direct_dataflow
  ::
  (if Layer.winograd_eligible layer then
     [ Core.Config.Winograd_dataflow (winograd_e layer.spec) ]
   else [])

let algorithm_name = function
  | Core.Config.Direct_dataflow -> "direct-dataflow"
  | Core.Config.Winograd_dataflow e -> Printf.sprintf "winograd-dataflow-F(%d)" e

let library_timing ~backend arch (layer : Layer.t) =
  let spec = layer.spec in
  let lib_direct =
    match backend with
    | Cudnn -> Gpu_sim.Library_sim.cudnn_direct arch spec
    | Miopen -> Gpu_sim.Library_sim.miopen_direct arch spec
  in
  if Layer.winograd_eligible layer then begin
    let w =
      match backend with
      | Cudnn -> Gpu_sim.Library_sim.cudnn_winograd arch spec
      | Miopen -> Gpu_sim.Library_sim.miopen_winograd arch spec
    in
    if w.runtime_us < lib_direct.runtime_us then w else lib_direct
  end
  else lib_direct

let time_layer ?cache ?(seed = 0) ?(max_measurements = 200) ?(backend = Cudnn) ?faults
    ?journal_dir ?session arch (layer : Layer.t) =
  let library = library_timing ~backend arch layer in
  let resolve_candidate algo =
    match session with
    | None ->
      let entry, tuned =
        resolve ?cache ~seed ~max_measurements ?faults ?journal_dir arch layer.spec algo
      in
      (Some entry, tuned)
    | Some session ->
      resolve_supervised session ?cache ~seed ~max_measurements ?faults ?journal_dir arch
        layer.spec algo
  in
  (* Candidates resolve direct first and a later one must be strictly
     faster to win, so ties keep the direct dataflow. *)
  let best, live =
    List.fold_left
      (fun (best, live) algo ->
        let entry, tuned = resolve_candidate algo in
        let best =
          match (entry, best) with
          | Some e, Some (_, b) when e.result.best_runtime_us < b.result.best_runtime_us ->
            Some (algo, e)
          | Some e, None -> Some (algo, e)
          | _ -> best
        in
        (best, if tuned then live + 1 else live))
      (None, 0) (candidates layer)
  in
  let ours_us, ours_algorithm, ours_result, ours_replayed =
    match best with
    | Some (algo, e) ->
      (e.result.best_runtime_us, algorithm_name algo, Some e.result, e.replayed)
    | None -> (library.runtime_us, "library-fallback:" ^ library.algorithm, None, false)
  in
  {
    layer;
    ours_us;
    ours_algorithm;
    ours_result;
    ours_replayed;
    live;
    library_us = library.runtime_us;
    library_algorithm = library.algorithm;
  }

let time_model ?cache ?seed ?max_measurements ?backend ?faults ?journal_dir ?supervise
    arch (model : Models.t) =
  let session =
    Option.map
      (fun policy ->
        let tasks =
          List.fold_left (fun acc l -> acc + List.length (candidates l)) 0 model.layers
        in
        Core.Supervisor.create ~policy ~tasks ())
      supervise
  in
  let layers =
    List.map
      (time_layer ?cache ?seed ?max_measurements ?backend ?faults ?journal_dir ?session
         arch)
      model.layers
  in
  let weighted f =
    List.fold_left (fun acc t -> acc +. (float_of_int t.layer.count *. f t)) 0.0 layers
  in
  let ours_total_us = weighted (fun t -> t.ours_us) in
  let library_total_us = weighted (fun t -> t.library_us) in
  {
    model = model.name;
    layers;
    ours_total_us;
    library_total_us;
    speedup = library_total_us /. ours_total_us;
    health = Option.map Core.Supervisor.report session;
  }
