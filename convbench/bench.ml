(* The conv-io benchmark: one workload per run, measured for a fixed time,
   every answer checked, one JSON line of metrics at the end.

   Usage (run.py builds this and passes the last two flags):
     bench.exe --workload W --seed N --seconds S --trace 0|1
               --daemon PATH-TO-conv_io --work SCRATCH-DIR

   Workloads:
     cold_tune    closed loop, one client: every TUNE names a shape the
                  daemon has never seen, so each answer is a full tune
     warm_live    open loop of cached asks (100/s) while a second client
                  keeps the daemon tuning fresh shapes
     model_sweep  single conv layers of the gold fleet tuned from scratch
                  in-process and diffed against their gold records

   Every shape is a conv layer of the gold fleet's models, and every tune
   runs at the fleet's budget.  The seed only chooses inputs: they are drawn
   round-robin from strata (model x architecture, gold arch x Winograd
   eligibility), so every seed runs the same mix and medians move only when
   the code does.

   --trace 0 prints the end-to-end metrics; --trace 1 runs the same
   workload with spans around the calls into each layer, then probes the
   tuner's stages one by one on the workload's own shapes, and prints the
   per-layer metrics. *)

let () = Util.Log.set_quiet true

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  work : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --daemon EXE --work DIR";
  exit 2

let parse_args () =
  let opts = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt opts k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = int "trace" = 1;
    daemon = get "daemon";
    work = get "work";
  }

(* --- statistics ----------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median = quantile 0.5

(* --- plans ---------------------------------------------------------- *)

(* Draws inputs round-robin over the strata, each stratum shuffled by the
   seed, so any prefix of a run holds every stratum in equal share.  With
   [cycle] an exhausted stratum starts over; without, the plan ends. *)
let interleave ~rng ~cycle strata =
  let strata = Array.of_list (List.filter (fun s -> s <> [||]) (List.map Array.copy strata)) in
  Array.iter (Util.Rng.shuffle rng) strata;
  let round = ref 0 and i = ref 0 in
  fun () ->
    if !i = Array.length strata then begin
      i := 0;
      incr round
    end;
    let s = strata.(!i) in
    incr i;
    if !round < Array.length s then Some s.(!round)
    else if cycle then Some s.(!round mod Array.length s)
    else None

(* --- outcome -------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  verified : bool;  (** the checks beyond the per-operation ones passed *)
  latencies : float list;  (** seconds, one per successful operation *)
  wall : float;  (** seconds the measured loop ran *)
  setups : float list;  (** seconds, one per set-up repetition *)
}

let setup_reps = 15

(* Times [f] [setup_reps] times (each run undoes the last with [undo]) and
   keeps the last result. *)
let repeat_setup f ~undo =
  let rec go i acc =
    let t0 = Trace.now () in
    let r = f () in
    let dt = Trace.now () -. t0 in
    if i = setup_reps then (r, List.rev (dt :: acc))
    else begin
      undo r;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* Runs [op] until [seconds] have passed (at least once).  [op] returns
   [Some latency] for a correct answer, [None] for a failure, or raises
   [Exit] when the plan ran out. *)
let timed_loop ~seconds op =
  let t0 = Trace.now () in
  let rec go attempted failed lat =
    if attempted > 0 && Trace.now () -. t0 >= seconds then (attempted, failed, lat)
    else
      match op () with
      | Some l -> go (attempted + 1) failed (l :: lat)
      | None -> go (attempted + 1) (failed + 1) lat
      | exception Exit -> (attempted, failed, lat)
  in
  let attempted, failed, latencies = go 0 0 [] in
  (attempted, failed, latencies, Trace.now () -. t0)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* --- service shapes ------------------------------------------------- *)

(* The gold fleet's contract (Regress.Sweep.default_settings): every tune,
   in the daemon and in-process, runs at this budget. *)
let fleet_budget = 120
let fleet_models = Cnn.Models.evaluation_models @ [ Cnn.Models.mobilenet ]

(* The fleet's distinct conv shapes, one list per model; a shape two models
   share stays with the first. *)
let model_shapes =
  let seen = Hashtbl.create 128 in
  List.map
    (fun (m : Cnn.Models.t) ->
      List.filter_map
        (fun (l : Cnn.Layer.t) ->
          let key = Conv.Conv_spec.canonical l.spec in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some l.spec
          end)
        m.layers)
    fleet_models

let tune_request arch spec =
  {
    Service.Protocol.spec;
    arch;
    algorithm = Core.Config.Direct_dataflow;
    pruned = true;
    deadline_ms = None;
  }

(* Distinct (arch, shape) pairs, stratified by model x architecture. *)
let service_plan rng =
  interleave ~rng ~cycle:false
    (List.concat_map
       (fun arch ->
         List.map (fun shapes -> Array.of_list (List.map (fun s -> (arch, s)) shapes)) model_shapes)
       Gpu_sim.Arch.all)

let line_of (arch, spec) = Service.Protocol.render_tune (tune_request arch spec)

(* The client-side check every answer gets: a typed OK for this request's
   content key that re-derives through the auditor (wire policy). *)
let audited_answer target reply =
  let r = tune_request (fst target) (snd target) in
  match Option.bind reply Service.Protocol.parse_response with
  | Some (Service.Protocol.Result p) ->
    let canonical = Service.Protocol.canonical_of_tune r in
    if
      p.key = Verify.Audit.content_key canonical
      && Verify.Audit.check ~policy:Verify.Audit.wire ~key:p.key ~gflops:p.gflops ~canonical
           ~config:p.config ~runtime_us:p.runtime_us ()
         = Verify.Audit.Ok
    then Some p
    else None
  | _ -> None

let is_tuned (p : Service.Protocol.result_payload) =
  p.source = Service.Protocol.Src_tuned && p.trials > 0 && p.trials <= fleet_budget

let same_answer (a : Service.Protocol.result_payload) (b : Service.Protocol.result_payload) =
  b.source = Service.Protocol.Src_cached && b.trials = 0 && a.config = b.config
  && a.runtime_us = b.runtime_us

(* --- tuner probes (trace only) --------------------------------------- *)

(* The stages of one tune, called one by one on a workload's shapes: parse
   the request, build the pruned space, measure [fleet_budget] sampled configs and
   fold them into the cost model, retrain it, propose a batch, then a whole
   tune, its audit, and a cache store plus audited hit.  Returns whether
   every probed answer passed the audit. *)
let probe_tuner ~work targets =
  let path = Filename.concat work "probe.cache" in
  rm path;
  rm (path ^ ".quarantine");
  let cache = Service.Result_cache.load ~audit:true ~generation:"convbench-probe" path in
  let ok =
    List.for_all
      (fun (arch, spec) ->
        let algorithm = Core.Config.Direct_dataflow in
        ignore
          (Trace.span "protocol_parse" (fun () ->
               Service.Protocol.parse_request (line_of (arch, spec))));
        let space =
          Trace.span "space_build" (fun () ->
              Core.Search_space.make ~pruned:true arch spec algorithm)
        in
        let rng = Util.Rng.create 0 in
        let model = Core.Cost_model.create spec in
        for _ = 1 to fleet_budget do
          let c = Core.Search_space.sample space rng in
          match Trace.span "measure" (fun () -> Core.Tuner.measure_config_robust arch spec c) with
          | Ok us, _ -> Trace.span "fold" (fun () -> Core.Cost_model.add_measurement model c us)
          | Error _, _ -> Core.Cost_model.add_failure model c
        done;
        Trace.span "retrain" (fun () -> Core.Cost_model.retrain ~rng model);
        ignore
          (Trace.span "propose" (fun () ->
               Core.Explorer.explore ~space ~model ~rng ~starts:[] ()));
        let r =
          Trace.span_count "tune"
            (fun () -> Core.Tuner.tune ~seed:0 ~max_measurements:fleet_budget ~space ())
            ~work:(fun (r : Core.Tuner.result) -> float_of_int r.measurements)
        in
        let canonical = Core.Search_space.canonical_key arch spec algorithm ~pruned:true in
        let predicted_us = Verify.Audit.predicted_us arch spec r.best_config in
        let verdict =
          Trace.span "audit" (fun () ->
              Verify.Audit.check ~gflops:r.best_gflops ~predicted_us ~canonical
                ~config:r.best_config ~runtime_us:r.best_runtime_us ())
        in
        Service.Result_cache.put cache
          {
            Service.Result_cache.key = Service.Result_cache.key_of_canonical canonical;
            canonical;
            source = Service.Protocol.Src_tuned;
            runtime_us = r.best_runtime_us;
            gflops = r.best_gflops;
            predicted_us;
            trials = r.measurements;
            config = r.best_config;
          };
        let hit = Trace.span "cache_hit" (fun () -> Service.Result_cache.find cache ~canonical) in
        verdict = Verify.Audit.Ok
        && Option.map (fun (e : Service.Result_cache.entry) -> e.config) hit
           = Some r.best_config)
      targets
  in
  rm path;
  ok

let probe_targets = 6

let record_daemon_stats socket =
  let stats = Wire.stats socket in
  List.iter
    (fun (key, name) ->
      match Option.bind (List.assoc_opt key stats) float_of_string_opt with
      | Some v -> Trace.record name v
      | None -> ())
    [ ("tunes_run", "daemon_tunes_run"); ("hits", "daemon_hits") ]

(* --- workload: cold tunes --------------------------------------------- *)

let daemon_paths a =
  ( Filename.concat a.work "d.sock",
    Filename.concat a.work "daemon.log" )

let start_daemon a ~cache =
  let socket, log = daemon_paths a in
  match Wire.spawn ~exe:a.daemon ~socket ~cache ~budget:fleet_budget ~log with
  | Some d -> d
  | None -> failwith "daemon did not become ready"

let cold_tune a =
  let rng = Util.Rng.create a.seed in
  let plan = service_plan rng in
  let cache = Filename.concat a.work "cold.cache" in
  let daemon, setups =
    repeat_setup
      (fun () ->
        rm cache;
        start_daemon a ~cache)
      ~undo:(fun d -> Wire.stop d)
  in
  let answered = ref [] in
  let attempted, failed, latencies, wall =
    timed_loop ~seconds:a.seconds (fun () ->
        match plan () with
        | None -> raise Exit
        | Some target ->
          let t0 = Trace.now () in
          let reply =
            Trace.span "wire_cold" (fun () -> Wire.ask daemon.socket (line_of target))
          in
          let dt = Trace.now () -. t0 in
          match audited_answer target reply with
          | Some p when is_tuned p ->
            answered := (target, p) :: !answered;
            Some dt
          | _ -> None)
  in
  (* Asked again, a tuned shape must come back from the cache unchanged. *)
  let again = List.filteri (fun i _ -> i < 8) !answered in
  let verified =
    List.for_all
      (fun (target, p) ->
        let reply =
          Trace.span "wire_warm" (fun () -> Wire.ask daemon.socket (line_of target))
        in
        match audited_answer target reply with Some q -> same_answer p q | None -> false)
      again
  in
  if !Trace.enabled then record_daemon_stats daemon.socket;
  Wire.stop daemon;
  rm cache;
  let probed =
    (not !Trace.enabled)
    || probe_tuner ~work:a.work
         (List.filteri (fun i _ -> i < probe_targets) (List.rev_map fst !answered))
  in
  { attempted; failed; verified = verified && probed; latencies; wall; setups }

(* --- workload: warm asks beside live tuning ---------------------------- *)

let warm_set_size = 16
let warm_interval = 0.01

type pending = {
  c : Wire.conn;
  target : Gpu_sim.Arch.t * Conv.Conv_spec.t;
  due : float;  (** when the open loop scheduled it *)
  sent : float;
  expect : Service.Protocol.result_payload option option;
      (** [Some] for a warm ask: the answer the primed cache must give *)
}

let warm_live a =
  let rng = Util.Rng.create a.seed in
  let plan = service_plan rng in
  let warm = Array.init warm_set_size (fun _ -> Option.get (plan ())) in
  let cache = Filename.concat a.work "warm.cache" in
  rm cache;
  (* Prime the cache with the warm set, then restart on it: the set-up
     measured is a daemon coming up on a populated cache. *)
  let primer = start_daemon a ~cache in
  let expected =
    Array.map (fun target -> audited_answer target (Wire.ask primer.socket (line_of target))) warm
  in
  Wire.stop primer;
  let primed = Array.for_all (function Some p -> is_tuned p | None -> false) expected in
  let daemon, setups =
    repeat_setup (fun () -> start_daemon a ~cache) ~undo:(fun d -> Wire.stop d)
  in
  let order = Array.init warm_set_size Fun.id in
  Util.Rng.shuffle rng order;
  let t0 = Trace.now () in
  let stop_at = t0 +. a.seconds in
  let inflight = ref [] in
  let attempted = ref 0 and failed = ref 0 and latencies = ref [] in
  let cold_ok = ref true in
  let fail_warm () =
    incr attempted;
    incr failed
  in
  let send target ~due ~expect =
    match Wire.connect daemon.socket with
    | None -> if expect = None then cold_ok := false else fail_warm ()
    | Some fd ->
      let sent = Trace.now () in
      (try Wire.send fd (line_of target) with Unix.Unix_error _ -> ());
      inflight := { c = Wire.conn fd; target; due; sent; expect } :: !inflight
  in
  let send_cold () =
    match plan () with Some target -> send target ~due:(Trace.now ()) ~expect:None | None -> ()
  in
  let finish p reply =
    Unix.close p.c.fd;
    inflight := List.filter (fun q -> q != p) !inflight;
    let now = Trace.now () in
    let answer = audited_answer p.target reply in
    match p.expect with
    | Some expect -> (
      incr attempted;
      match (answer, expect) with
      | Some q, Some e when same_answer e q ->
        latencies := (now -. p.due) :: !latencies;
        Trace.observe "wire_warm" (now -. p.sent)
      | _ -> incr failed)
    | None ->
      Trace.observe "wire_cold" (now -. p.sent);
      (match answer with Some q when is_tuned q -> () | _ -> cold_ok := false);
      if now < stop_at then send_cold ()
  in
  send_cold ();
  let warm_pending () = List.exists (fun p -> p.expect <> None) !inflight in
  let rec loop next_due issued =
    let now = Trace.now () in
    let sending = now < stop_at in
    if sending && now >= next_due then begin
      let i = order.(issued mod warm_set_size) in
      send warm.(i) ~due:next_due ~expect:(Some expected.(i));
      loop (next_due +. warm_interval) (issued + 1)
    end
    else if (not sending) && not (warm_pending ()) then ()
    else if now > stop_at +. 60.0 then
      List.iter (fun p -> if p.expect <> None then finish p None) !inflight
    else begin
      let timeout = if sending then Float.max 0.0 (next_due -. now) else 0.05 in
      let ready, _, _ =
        try Unix.select (List.map (fun p -> p.c.Wire.fd) !inflight) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match List.find_opt (fun p -> p.c.Wire.fd = fd) !inflight with
          | None -> ()
          | Some p -> (
            match Wire.feed p.c with
            | `More -> ()
            | `Line l -> finish p (Some l)
            | `Closed -> finish p None))
        ready;
      loop next_due issued
    end
  in
  loop t0 0;
  let wall = Trace.now () -. t0 in
  (* A cold tune may still be running; the drain finishes it. *)
  List.iter (fun p -> Unix.close p.c.fd) !inflight;
  if !Trace.enabled then record_daemon_stats daemon.socket;
  Wire.stop daemon;
  let probed =
    (not !Trace.enabled)
    || probe_tuner ~work:a.work
         (List.filteri (fun i _ -> i < probe_targets) (Array.to_list warm))
  in
  rm cache;
  {
    attempted = !attempted;
    failed = !failed;
    verified = primed && !cold_ok && probed;
    latencies = !latencies;
    wall;
    setups;
  }

(* --- workload: model sweeps against gold -------------------------------- *)

(* The tolerance a regress run diffs gold costs at. *)
let gold_tolerance = 1e-6

type gold_layer = {
  name : string;
  spec : string;
  algorithm : string;
  config : string;
  ours_us : float;
  predicted_us : float;
  library_us : float;
  library_algorithm : string;
  q_ratio : float;
  stop : string;
  trials : int;
}

type sweep_item = { arch : Gpu_sim.Arch.t; layer : Cnn.Layer.t; gold : gold_layer }

(* The regress library is private to the conv-io project, so gold files are
   read here through Util.Durable; the record layout is Regress.Gold's. *)
let decode_gold payload =
  match String.split_on_char '\t' payload with
  | [ "layer"; name; spec; algorithm; config; ours; predicted; library; library_algorithm;
      q; stop; trials ] -> (
    match
      ( float_of_string_opt ours, float_of_string_opt predicted, float_of_string_opt library,
        float_of_string_opt q, int_of_string_opt trials )
    with
    | Some ours_us, Some predicted_us, Some library_us, Some q_ratio, Some trials ->
      Some
        { name; spec; algorithm; config; ours_us; predicted_us; library_us;
          library_algorithm; q_ratio; stop; trials }
    | _ -> None)
  | _ -> None

(* A gold record's claim, re-derived through the auditor exactly as a gold
   read does (strict policy, no content key). *)
let audit_gold arch (g : gold_layer) =
  g.config = "library"
  ||
  match (Core.Config.of_compact g.config, Verify.Audit.parse_spec_canonical g.spec) with
  | Some config, Some spec ->
    let canonical =
      Core.Search_space.canonical_key arch spec config.Core.Config.algorithm ~pruned:true
    in
    Verify.Audit.check ~predicted_us:g.predicted_us ~q_ratio:g.q_ratio ~canonical ~config
      ~runtime_us:g.ours_us ()
    = Verify.Audit.Ok
  | _ -> false

(* Reads and audits every gold file of the fleet; fails on anything that
   does not decode, audit, or name a known model, layer and architecture. *)
let load_gold () =
  let dir = Filename.concat "regress" "gold" in
  let models = fleet_models in
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.concat_map
    (fun file ->
      let path = Filename.concat dir file in
      match Util.Durable.read ~kind:"regress-gold" path with
      | Util.Durable.Intact (meta :: records) -> (
        match String.split_on_char '\t' meta with
        | [ "meta"; "1"; model; alias; "0"; budget; "cudnn" ]
          when int_of_string_opt budget = Some fleet_budget -> (
          match
            ( List.find_opt (fun (m : Cnn.Models.t) -> m.name = model) models,
              Gpu_sim.Arch.of_alias alias )
          with
          | Some m, Some arch ->
            List.map
              (fun payload ->
                match decode_gold payload with
                | Some g when audit_gold arch g -> (
                  match List.find_opt (fun (l : Cnn.Layer.t) -> l.name = g.name) m.layers with
                  | Some layer -> { arch; layer; gold = g }
                  | None -> failwith ("gold layer not in model: " ^ path))
                | _ -> failwith ("gold record rejected: " ^ path))
              records
          | _ -> failwith ("gold file names an unknown model or arch: " ^ path))
        | _ -> failwith ("gold file has an unexpected meta record: " ^ path))
      | _ -> failwith ("gold file unreadable: " ^ path))
    (List.filter (fun f -> Filename.check_suffix f ".gold") files)

let stop_token = function
  | Core.Tuner.Converged -> "converged"
  | Core.Tuner.Trial_budget -> "trial-budget"
  | Core.Tuner.Deadline_reached -> "deadline"
  | Core.Tuner.Breaker_tripped k -> Printf.sprintf "breaker:%d" k

let close_to gold got =
  gold = got || Float.abs (got -. gold) <= gold_tolerance *. Float.max (Float.abs gold) 1e-12

(* The layer's sweep record, field by field against gold — the same fields
   and tolerance a regress run diffs. *)
let matches_gold item (lt : Cnn.Runner.layer_timing) =
  let g = item.gold in
  let spec = item.layer.spec in
  let config, predicted_us, q_ratio, stop, trials =
    match lt.ours_result with
    | None -> ("library", lt.library_us, 0.0, "library", 0)
    | Some r ->
      ( Core.Config.to_compact r.best_config,
        Verify.Audit.predicted_us item.arch spec r.best_config,
        Verify.Audit.q_ratio item.arch spec r.best_config,
        stop_token r.stop,
        r.measurements )
  in
  g.spec = Conv.Conv_spec.canonical spec
  && g.algorithm = lt.ours_algorithm && g.config = config
  && g.library_algorithm = lt.library_algorithm
  && g.stop = stop && g.trials = trials && close_to g.ours_us lt.ours_us
  && close_to g.predicted_us predicted_us
  && close_to g.library_us lt.library_us && close_to g.q_ratio q_ratio

let candidate_span = function
  | Core.Config.Direct_dataflow -> "sweep_direct"
  | Core.Config.Winograd_dataflow _ -> "sweep_winograd"

let model_sweep a =
  let rng = Util.Rng.create a.seed in
  let items, setups = repeat_setup load_gold ~undo:ignore in
  let strata =
    List.concat_map
      (fun arch ->
        List.map
          (fun eligible ->
            Array.of_list
              (List.filter
                 (fun i -> i.arch == arch && Cnn.Layer.winograd_eligible i.layer = eligible)
                 items))
          [ false; true ])
      Gpu_sim.Arch.all
  in
  let plan = interleave ~rng ~cycle:true strata in
  (* One operation is one candidate algorithm of a layer tuned from scratch
     under the gold contract (the runner's memo is dropped when a layer
     starts).  A layer's last candidate also assembles the layer's timing
     and diffs it against its gold record. *)
  let layer = ref None and todo = ref [] in
  let step () =
    if !todo = [] then begin
      let item = Option.get (plan ()) in
      Cnn.Runner.clear_cache ();
      layer := Some item;
      todo := Cnn.Runner.candidates item.layer
    end;
    let item = Option.get !layer in
    let algo = List.hd !todo in
    todo := List.tl !todo;
    ignore
      (Trace.span (candidate_span algo) (fun () ->
           Cnn.Runner.tuned_runtime ~seed:0 ~max_measurements:fleet_budget item.arch
             item.layer.spec algo));
    !todo <> []
    ||
    let lt =
      Trace.span "sweep_assemble" (fun () ->
          Cnn.Runner.time_layer ~seed:0 ~max_measurements:fleet_budget
            ~backend:Cnn.Runner.Cudnn item.arch item.layer)
    in
    Trace.span "gold_check" (fun () -> matches_gold item lt)
  in
  let attempted, failed, latencies, wall =
    timed_loop ~seconds:a.seconds (fun () ->
        let t0 = Trace.now () in
        let ok = try step () with Failure _ | Invalid_argument _ -> false in
        if ok then Some (Trace.now () -. t0) else None)
  in
  let probed =
    (not !Trace.enabled)
    || probe_tuner ~work:a.work
         (List.init probe_targets (fun _ ->
              let i = Option.get (plan ()) in
              (i.arch, i.layer.spec)))
  in
  { attempted; failed; verified = probed; latencies; wall; setups }

(* --- report ------------------------------------------------------------- *)

let per_layer =
  let t name scale () = Trace.mean_time name ~scale in
  let w name () = Trace.mean_work name in
  [
    ("protocol_parse_us", "us", t "protocol_parse" 1e6);
    ("space_build_us", "us", t "space_build" 1e6);
    ("measure_us", "us", t "measure" 1e6);
    ("fold_us", "us", t "fold" 1e6);
    ("retrain_ms", "ms", t "retrain" 1e3);
    ("propose_ms", "ms", t "propose" 1e3);
    ("tune_ms", "ms", t "tune" 1e3);
    ("tune_trials", "count", w "tune");
    ("audit_us", "us", t "audit" 1e6);
    ("cache_hit_us", "us", t "cache_hit" 1e6);
    ("wire_cold_ms", "ms", t "wire_cold" 1e3);
    ("wire_warm_ms", "ms", t "wire_warm" 1e3);
    ("daemon_tunes_run", "count", w "daemon_tunes_run");
    ("daemon_cache_hits", "count", w "daemon_hits");
    ("sweep_direct_ms", "ms", t "sweep_direct" 1e3);
    ("sweep_winograd_ms", "ms", t "sweep_winograd" 1e3);
    ("sweep_assemble_ms", "ms", t "sweep_assemble" 1e3);
    ("gold_check_us", "us", t "gold_check" 1e6);
  ]

let end_to_end (o : outcome) =
  let ms q = quantile q o.latencies *. 1e3 in
  [
    ("latency_p50_ms", "ms", ms 0.5);
    ("latency_p90_ms", "ms", ms 0.9);
    ("throughput_per_s", "1/s", float_of_int (List.length o.latencies) /. o.wall);
    ("setup_s", "s", median o.setups);
  ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report (o : outcome) metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  let correct = o.verified && o.failed = 0 && o.latencies <> [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct o.attempted o.failed (String.concat ", " fields)

let () =
  let a = parse_args () in
  let run =
    match a.workload with
    | "cold_tune" -> cold_tune
    | "warm_live" -> warm_live
    | "model_sweep" -> model_sweep
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  if not (Sys.file_exists a.work) then Unix.mkdir a.work 0o755;
  rm (snd (daemon_paths a));
  Trace.enabled := a.trace;
  let o = run a in
  Printf.eprintf "%s: %d attempted, %d failed, %d timed, %.2fs measured\n%!" a.workload
    o.attempted o.failed (List.length o.latencies) o.wall;
  report o
    (if a.trace then List.map (fun (n, u, f) -> (n, u, f ())) per_layer else end_to_end o)
