(* Run-level supervision: one place that turns the subsystems' many ways of
   going wrong into a single typed outcome per tuning task, trips a circuit
   breaker on persistently failing backends, degrades to an analytic
   configuration instead of failing, and meters a global virtual-time budget
   across the tasks of a whole-model run. *)

(* ------------------------------------------------------------------ *)
(* Unified cause taxonomy. *)

type cause =
  | Invalid_config of Search_space.invalid
  | Launch_rejected of Gpu_sim.Kernel_cost.launch_error
  | Measurement of Gpu_sim.Measure.failure
  | Storage_corruption of { dropped : int }
  | Pool_degraded of { restarts : int }
  | Empty_domain of string

let cause_to_string = function
  | Invalid_config inv -> "invalid config: " ^ Search_space.invalid_to_string inv
  | Launch_rejected e -> "launch rejected: " ^ Gpu_sim.Kernel_cost.launch_error_to_string e
  | Measurement f -> "measurement: " ^ Gpu_sim.Measure.failure_to_string f
  | Storage_corruption { dropped } ->
    Printf.sprintf "storage corruption: %d journal record(s) dropped" dropped
  | Pool_degraded { restarts } ->
    Printf.sprintf "worker pool degraded after %d crash(es)" restarts
  | Empty_domain msg -> "empty search domain: " ^ msg

(* ------------------------------------------------------------------ *)
(* Outcomes. *)

type degrade_reason =
  | Breaker_open of { consecutive : int; last : cause option }
  | Budget_exhausted of { share_us : float }

let degrade_reason_to_string = function
  | Breaker_open { consecutive; last } ->
    Printf.sprintf "breaker open after %d consecutive failures%s" consecutive
      (match last with None -> "" | Some c -> " (last: " ^ cause_to_string c ^ ")")
  | Budget_exhausted { share_us } ->
    Printf.sprintf "budget exhausted (share %.0fus)" share_us

type outcome =
  | Tuned of Tuner.result
  | Replayed of Tuner.result
  | Degraded of {
      reason : degrade_reason;
      config : Config.t;
      runtime_us : float;
      faults : Tuner.fault_stats;
    }
  | Failed of cause

let outcome_label = function
  | Tuned _ -> "tuned"
  | Replayed _ -> "replayed"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

let outcome_runtime_us = function
  | Tuned r | Replayed r -> Some r.Tuner.best_runtime_us
  | Degraded { runtime_us; _ } -> Some runtime_us
  | Failed _ -> None

let outcome_faults = function
  | Tuned r | Replayed r -> r.Tuner.faults
  | Degraded { faults; _ } -> faults
  | Failed _ -> Tuner.no_faults

(* ------------------------------------------------------------------ *)
(* Policy. *)

type policy = {
  breaker_k : int;
  budget_us : float;
  analytic_candidates : int;
}

let default_policy = { breaker_k = 5; budget_us = infinity; analytic_candidates = 64 }

(* ------------------------------------------------------------------ *)
(* Fair-share budget over virtual time.

   Each task's share is [remaining / tasks_left] at the moment it starts, so
   a task that finishes under budget (or costs nothing because it replays
   from a journal or hits the memo cache) automatically donates its surplus
   to everyone still queued.  Spending past a share is possible only by the
   cooperative overshoot [Tuner.tune_outcome] documents (tasks already in
   flight when the deadline passes), and is charged honestly. *)

module Budget = struct
  type t = {
    total_us : float;
    mutable spent_us : float;
    mutable tasks_left : int;
  }

  let create ~total_us ~tasks =
    if tasks < 0 then invalid_arg "Supervisor.Budget.create: tasks < 0";
    { total_us; spent_us = 0.0; tasks_left = tasks }

  let total_us t = t.total_us
  let spent_us t = t.spent_us
  let remaining_us t = Float.max 0.0 (t.total_us -. t.spent_us)

  let begin_task t =
    let share =
      if t.tasks_left <= 0 then remaining_us t
      else remaining_us t /. float_of_int t.tasks_left
    in
    if t.tasks_left > 0 then t.tasks_left <- t.tasks_left - 1;
    share

  let charge t us = if Float.is_finite us && us > 0.0 then t.spent_us <- t.spent_us +. us
end

(* ------------------------------------------------------------------ *)
(* Analytic graceful degradation: the best configuration the models can
   name without a single measurement.  Tile triples are ranked by the
   dataflow communication volume Q (Section 5's per-tile cost), the top
   few are lowered to their representative configurations, and those are
   ranked by the noise-free analytic kernel runtime.  Everything returned
   passes [Search_space.validate], hence also the per-block shared-memory
   budget ([Faults.block_budget_bytes] uses the same formula). *)

let analytic_best ?(candidates = default_policy.analytic_candidates) space =
  let spec = Search_space.spec space in
  let arch = Search_space.arch space in
  let q (x, y, z) =
    let x = float_of_int x and y = float_of_int y and z = float_of_int z in
    match Search_space.algorithm space with
    | Config.Direct_dataflow -> Dataflow_cost.q_dc_tile spec ~x ~y ~z
    | Config.Winograd_dataflow e -> Dataflow_cost.q_wa_tile ~e spec ~x ~y ~z
  in
  let tiles = Array.copy (Search_space.tile_candidates space) in
  (* Tie-break on the triple itself so the ranking is a total order,
     independent of the candidate array's construction order. *)
  Array.sort
    (fun a b ->
      let c = Float.compare (q a) (q b) in
      if c <> 0 then c else compare a b)
    tiles;
  let n = Int.min (Int.max 1 candidates) (Array.length tiles) in
  let best = ref None in
  for i = 0 to n - 1 do
    let cfg = Search_space.config_for_tile space tiles.(i) in
    match Search_space.validate space cfg with
    | Error _ -> ()
    | Ok () ->
      let kernel = Config.to_kernel arch spec cfg in
      (match Gpu_sim.Kernel_cost.check arch kernel with
      | Error _ -> ()
      | Ok () ->
        let rt = Gpu_sim.Kernel_cost.runtime_us arch kernel in
        (match !best with
        | Some (_, best_rt) when best_rt <= rt -> ()
        | _ -> best := Some (cfg, rt)))
  done;
  match !best with
  | Some (cfg, rt) -> (cfg, rt)
  | None ->
    (* Every ranked candidate failed the launch check — fall back to the
       domain's default member and price it analytically regardless. *)
    let cfg = Search_space.default_config space in
    (cfg, Gpu_sim.Kernel_cost.runtime_us arch (Config.to_kernel arch spec cfg))

(* ------------------------------------------------------------------ *)
(* Sessions and reports. *)

type task_report = {
  key : string;
  outcome : outcome;
  share_us : float;
  spent_us : float;
}

type report = {
  policy : policy;
  tasks : task_report list;  (** completion order *)
  budget_total_us : float;
  budget_spent_us : float;
  faults : Tuner.fault_stats;
  pool_restarts : int;
  pool_degraded : bool;
}

type session = {
  policy : policy;
  budget : Budget.t;
  mutable tasks_rev : task_report list;
  mutable agg_faults : Tuner.fault_stats;
  pool_restarts0 : int;
}

let create ?(policy = default_policy) ~tasks () =
  {
    policy;
    budget = Budget.create ~total_us:policy.budget_us ~tasks;
    tasks_rev = [];
    agg_faults = Tuner.no_faults;
    pool_restarts0 = Util.Pool.restarts (Util.Pool.default ());
  }

let policy t = t.policy
let budget_remaining_us t = Budget.remaining_us t.budget

let add_faults (a : Tuner.fault_stats) (b : Tuner.fault_stats) : Tuner.fault_stats =
  {
    failed = a.failed + b.failed;
    launch_failures = a.launch_failures + b.launch_failures;
    deadlines_exceeded = a.deadlines_exceeded + b.deadlines_exceeded;
    attempts = a.attempts + b.attempts;
    retries = a.retries + b.retries;
    timeouts = a.timeouts + b.timeouts;
    nan_readings = a.nan_readings + b.nan_readings;
    outliers_rejected = a.outliers_rejected + b.outliers_rejected;
    backoff_us = a.backoff_us +. b.backoff_us;
    replayed = a.replayed + b.replayed;
    journal_dropped = a.journal_dropped + b.journal_dropped;
    elapsed_us = a.elapsed_us +. b.elapsed_us;
    pool_restarts = a.pool_restarts + b.pool_restarts;
    last_failure = (match b.last_failure with Some _ -> b.last_failure | None -> a.last_failure);
  }

let record_task t ~key ~share_us ~spent_us outcome =
  Budget.charge t.budget spent_us;
  t.agg_faults <- add_faults t.agg_faults (outcome_faults outcome);
  t.tasks_rev <- { key; outcome; share_us; spent_us } :: t.tasks_rev;
  outcome

let record_failed t ~key cause =
  record_task t ~key ~share_us:0.0 ~spent_us:0.0 (Failed cause)

let report t =
  let pool = Util.Pool.default () in
  let restarts = Util.Pool.restarts pool - t.pool_restarts0 in
  {
    policy = t.policy;
    tasks = List.rev t.tasks_rev;
    budget_total_us = Budget.total_us t.budget;
    budget_spent_us = Budget.spent_us t.budget;
    faults = { t.agg_faults with pool_restarts = restarts };
    pool_restarts = restarts;
    pool_degraded = Util.Pool.is_degraded pool;
  }

(* ------------------------------------------------------------------ *)
(* The supervised tuning task. *)

let last_failure_cause (faults : Tuner.fault_stats) =
  Option.map (fun f -> Measurement f) faults.last_failure

let classify_stop ~share_us (stop : Tuner.stop_reason) (faults : Tuner.fault_stats) =
  match stop with
  | Tuner.Breaker_tripped n ->
    Breaker_open { consecutive = n; last = last_failure_cause faults }
  | Tuner.Deadline_reached -> Budget_exhausted { share_us }
  | Tuner.Converged | Tuner.Trial_budget ->
    (* A run that spent its whole trial budget (or stalled) without one
       success is a persistently failing backend in all but name. *)
    Breaker_open { consecutive = faults.failed; last = last_failure_cause faults }

let tune_task t ~key ?seed ?batch_size ?patience ?max_measurements ?domains ?faults
    ?measure_policy ?journal ~space () =
  let share_us = Budget.begin_task t.budget in
  let breaker = if t.policy.breaker_k > 0 then Some t.policy.breaker_k else None in
  match
    Tuner.tune_outcome ?seed ?batch_size ?patience ?max_measurements ?domains ?faults
      ?measure_policy ?journal ~deadline_us:share_us
      ?max_consecutive_failures:breaker ~space ()
  with
  | Ok r ->
    let outcome =
      match r.stop with
      | Tuner.Breaker_tripped _ ->
        (* Keep the measured best — it is real — but tag the run degraded:
           the search was cut short by a backend that stopped answering. *)
        Degraded
          {
            reason = classify_stop ~share_us r.stop r.faults;
            config = r.best_config;
            runtime_us = r.best_runtime_us;
            faults = r.faults;
          }
      | _ ->
        if r.faults.replayed > 0 && r.faults.attempts = 0 then Replayed r else Tuned r
    in
    record_task t ~key ~share_us ~spent_us:r.faults.elapsed_us outcome
  | Error (e : Tuner.tune_error) ->
    let reason = classify_stop ~share_us e.stop e.faults in
    let config, runtime_us =
      analytic_best ~candidates:t.policy.analytic_candidates space
    in
    record_task t ~key ~share_us ~spent_us:e.faults.elapsed_us
      (Degraded { reason; config; runtime_us; faults = e.faults })

let record_cached t ~key (r : Tuner.result) =
  record_task t ~key ~share_us:(Budget.begin_task t.budget) ~spent_us:0.0 (Replayed r)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let report_to_string (r : report) =
  let b = Buffer.create 512 in
  let f = r.faults in
  Buffer.add_string b
    (Printf.sprintf "run health: %d task(s), budget %s\n" (List.length r.tasks)
       (if Float.is_finite r.budget_total_us then
          Printf.sprintf "%.0f/%.0fus spent" r.budget_spent_us r.budget_total_us
        else Printf.sprintf "unbounded (%.0fus spent)" r.budget_spent_us));
  let count lbl = List.length (List.filter (fun t -> outcome_label t.outcome = lbl) r.tasks) in
  Buffer.add_string b
    (Printf.sprintf "  outcomes: %d tuned, %d replayed, %d degraded, %d failed\n"
       (count "tuned") (count "replayed") (count "degraded") (count "failed"));
  Buffer.add_string b
    (Printf.sprintf
       "  faults: %d failed trials (%d launch, %d deadline), %d retries, %d replayed, %d journal records dropped\n"
       f.failed f.launch_failures f.deadlines_exceeded f.retries f.replayed
       f.journal_dropped);
  if r.pool_restarts > 0 || r.pool_degraded then
    Buffer.add_string b
      (Printf.sprintf "  pool: %d worker crash(es) recovered%s\n" r.pool_restarts
         (if r.pool_degraded then ", DEGRADED (restart budget exhausted)" else ""));
  List.iter
    (fun t ->
      let rt =
        match outcome_runtime_us t.outcome with
        | Some us -> Printf.sprintf "%.1fus" us
        | None -> "-"
      in
      let detail =
        match t.outcome with
        | Degraded { reason; _ } -> " [" ^ degrade_reason_to_string reason ^ "]"
        | Failed c -> " [" ^ cause_to_string c ^ "]"
        | Tuned _ | Replayed _ -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "  %-10s %s  %s%s\n" (outcome_label t.outcome) rt t.key detail))
    r.tasks;
  Buffer.contents b
