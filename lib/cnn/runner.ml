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

(* A result whose search history is gone — a cache entry's answer, or a
   degraded task's salvaged or analytic best — so [stop] carries only what
   the caller knows about how it ended. *)
let bare_result ~config ~runtime_us ~gflops ~measurements ~faults ~stop =
  {
    Core.Tuner.best_config = config;
    best_runtime_us = runtime_us;
    best_gflops = gflops;
    measurements;
    converged_at = 0;
    history = [];
    space_size = 0.0;
    faults;
    stop;
  }

(* The entry a memo key already has: the memo's own, else the cache's —
   memoised as replayed, so later calls (and later models sharing the
   shape) keep its provenance.  A cached answer's [stop] is a placeholder
   that [replayed] flags. *)
let recall cache ~key ~canonical =
  match Hashtbl.find_opt memo key with
  | Some _ as hit -> hit
  | None ->
    Option.bind cache (fun cache -> Service.Result_cache.find cache ~canonical)
    |> Option.map (fun (e : Service.Result_cache.entry) ->
           remember ~key ~replayed:true
             (bare_result ~config:e.config ~runtime_us:e.runtime_us ~gflops:e.gflops
                ~measurements:e.trials ~faults:Core.Tuner.no_faults
                ~stop:Core.Tuner.Converged))

(* A call without supervision runs under a private session with no circuit
   breaker and an unbounded budget: the plain tuner's defaults, so every
   successful answer is the plain tuner's.  A tune with no successful trial
   degrades. *)
let private_session () =
  Core.Supervisor.create ~policy:{ Core.Supervisor.default_policy with breaker_k = 0 }
    ~tasks:1 ()

(* One candidate: memo, then cache, then a supervised tune.  Hits are
   recorded as free replays; a tuned or replayed result is memoised and put
   in the cache (audited there, on an audited cache); a degraded one is
   memoised with a [stop] that says why the search was cut short, but kept
   out of the cache (a fresh budget should tune it properly); a task that
   cannot start resolves to [None].  The flag says whether a tune ran. *)
let resolve session ?cache ~seed ~max_measurements ?faults ?journal_dir arch spec algorithm
    =
  let canonical = Core.Search_space.canonical_key arch spec algorithm ~pruned:true in
  let key = Service.Resolver.identity ~canonical ~seed ~budget:max_measurements ~faults in
  match recall cache ~key ~canonical with
  | Some entry ->
    ignore (Core.Supervisor.record_cached session ~key:canonical entry.result);
    (Some entry, false)
  | None ->
    let live source r =
      Option.iter
        (fun cache ->
          Service.Result_cache.put cache
            (Service.Resolver.entry ~canonical ~source arch spec r))
        cache;
      Some (remember ~key ~replayed:false r)
    in
    let entry =
      match
        Service.Resolver.tune session ~canonical ~seed ~budget:max_measurements ?faults
          ?journal_dir ~pruned:true arch spec algorithm
      with
      | Core.Supervisor.Tuned r -> live Service.Protocol.Src_tuned r
      | Core.Supervisor.Replayed r -> live Service.Protocol.Src_replayed r
      | Core.Supervisor.Degraded { reason; config; runtime_us; faults } ->
        let stop =
          match reason with
          | Core.Supervisor.Breaker_open { consecutive; _ } ->
            Core.Tuner.Breaker_tripped consecutive
          | Core.Supervisor.Budget_exhausted _ -> Core.Tuner.Deadline_reached
        in
        Some
          (remember ~key ~replayed:false
             (bare_result ~config ~runtime_us
                ~gflops:(Core.Tuner.nominal_gflops spec ~runtime_us)
                ~measurements:0 ~faults ~stop))
      | Core.Supervisor.Failed _ -> None
    in
    (entry, true)

let tuned_runtime ?(seed = 0) ?(max_measurements = 200) ?faults ?journal_dir arch spec
    algorithm =
  match
    fst
      (resolve (private_session ()) ~seed ~max_measurements ?faults ?journal_dir arch spec
         algorithm)
  with
  | Some entry -> entry.result
  | None -> invalid_arg "Runner.tuned_runtime: empty search space"

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

(* [time_layer] inside a session: the model's, or a private one. *)
let time_layer_in session ?cache ~seed ~max_measurements ~backend ?faults ?journal_dir arch
    (layer : Layer.t) =
  let library = library_timing ~backend arch layer in
  (* Candidates resolve direct first and a later one must be strictly
     faster to win, so ties keep the direct dataflow. *)
  let best, live =
    List.fold_left
      (fun (best, live) algo ->
        let entry, tuned =
          resolve session ?cache ~seed ~max_measurements ?faults ?journal_dir arch
            layer.spec algo
        in
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

let time_layer ?cache ?(seed = 0) ?(max_measurements = 200) ?(backend = Cudnn) ?faults
    ?journal_dir arch layer =
  time_layer_in (private_session ()) ?cache ~seed ~max_measurements ~backend ?faults
    ?journal_dir arch layer

let time_model ?cache ?(seed = 0) ?(max_measurements = 200) ?(backend = Cudnn) ?faults
    ?journal_dir ?supervise arch (model : Models.t) =
  let session =
    match supervise with
    | None -> private_session ()
    | Some policy ->
      let tasks =
        List.fold_left (fun acc l -> acc + List.length (candidates l)) 0 model.layers
      in
      Core.Supervisor.create ~policy ~tasks ()
  in
  let layers =
    List.map
      (time_layer_in session ?cache ~seed ~max_measurements ~backend ?faults ?journal_dir
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
    health = Option.map (fun _ -> Core.Supervisor.report session) supervise;
  }
