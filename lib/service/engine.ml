(* The service core: parse -> admit -> coalesce -> tune -> cache -> answer,
   as a deterministic step machine.  No sockets, no time, no randomness of
   its own — the Sim harness and the real daemon drive the same code.

   Each tune has two halves.  The worker half ([Resolver.tune]: search
   space, supervised tune, journal) runs wherever the injected executor
   puts it and touches only the supervision session; the loop half
   (counters, outcome classification, the audited cache write, answers)
   runs inside [step].  So the cache, its quarantine and the counters have
   a single writer, and the one value crossing between the halves — the
   worker's result — passes under [lock]. *)

type settings = {
  budget_trials : int;
  seed : int;
  policy : Core.Supervisor.policy;
  faults : Gpu_sim.Faults.profile option;
  journal_dir : string option;
  max_pending : int;
  retry_after_s : int;
  audit : bool;
  scrub_per_step : int;
}

let default_settings =
  {
    budget_trials = 300;
    seed = 0;
    policy = Core.Supervisor.default_policy;
    faults = None;
    journal_dir = None;
    max_pending = 8;
    retry_after_s = 1;
    audit = true;
    scrub_per_step = 0;
  }

(* Only settings that change *what a search computes* belong in the
   generation: serving-side knobs (admission bounds, retry hints, fault
   injection, journalling) do not invalidate previously correct answers. *)
let generation_of_settings s =
  Printf.sprintf "trials=%d;seed=%d;breaker=%d" s.budget_trials s.seed s.policy.breaker_k

type client = int

let client_id c = c

type job = {
  key : string;
  canonical : string;
  request : Protocol.tune_request;
  mutable waiters : client list;  (* newest first; delivery reverses *)
  mutable deadline_at : float option;
      (* absolute ms on the engine clock; [Some] only while *every* waiter
         carries a deadline — one patient waiter pins the job runnable *)
}

type counters = {
  cache_hits : int;
  cache_misses : int;
  coalesced : int;
  busy_rejected : int;
  tunes_run : int;
  parse_errors : int;
  domain_errors : int;
  tune_failures : int;
  abandoned : int;
  deadline_shed : int;
}

let zero_counters =
  {
    cache_hits = 0;
    cache_misses = 0;
    coalesced = 0;
    busy_rejected = 0;
    tunes_run = 0;
    parse_errors = 0;
    domain_errors = 0;
    tune_failures = 0;
    abandoned = 0;
    deadline_shed = 0;
  }

type executor = (unit -> unit) -> unit

type running = {
  job : job;
  mutable result : (Core.Supervisor.outcome, string) result option;
      (* the worker half's outcome, or the exception it raised; written by
         the worker, under [lock] *)
}

type t = {
  settings : settings;
  now_ms : unit -> float;
  executor : executor;
  cache : Result_cache.t;
  session : Core.Supervisor.session;
  pending : (client * string) Queue.t;
  jobs : job Queue.t;
  inflight : (string, job) Hashtbl.t;  (* key -> queued or running job *)
  mutable running : running option;
  lock : Mutex.t;
  finished : Condition.t;
  connected : (client, unit) Hashtbl.t;
  mutable next_client : int;
  mutable draining : bool;
  mutable c : counters;
}

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The default clock is the constant zero, NOT wall time: the engine stays
   a deterministic step machine (Sim scripts replay byte-identically), and
   with a frozen clock no deadline ever passes, so shedding is off unless a
   real clock is injected — which the daemon does. *)
let create ?(settings = default_settings) ?(now_ms = fun () -> 0.0)
    ?(executor = fun work -> work ()) ~cache () =
  Option.iter mkdir_p settings.journal_dir;
  {
    settings;
    now_ms;
    executor;
    cache =
      Result_cache.load ~audit:settings.audit
        ~generation:(generation_of_settings settings) cache;
    session =
      Core.Supervisor.create ~policy:settings.policy ~tasks:settings.max_pending ();
    pending = Queue.create ();
    jobs = Queue.create ();
    inflight = Hashtbl.create 16;
    running = None;
    lock = Mutex.create ();
    finished = Condition.create ();
    connected = Hashtbl.create 16;
    next_client = 0;
    draining = false;
    c = zero_counters;
  }

let settings t = t.settings
let cache t = t.cache
let is_draining t = t.draining
let counters t = t.c

let connect t =
  let id = t.next_client in
  t.next_client <- id + 1;
  Hashtbl.replace t.connected id ();
  id

let disconnect t client = Hashtbl.remove t.connected client
let submit t client line = Queue.add (client, line) t.pending

let health t = Core.Supervisor.report t.session

(* The daemon's accept-level load shedding answers BUSY before the engine
   ever sees a line; it still belongs in the one shared ledger. *)
let record_load_shed t = t.c <- { t.c with busy_rejected = t.c.busy_rejected + 1 }

let stats t =
  let c = t.c in
  [
    ("entries", string_of_int (Result_cache.entries t.cache));
    ("hits", string_of_int c.cache_hits);
    ("misses", string_of_int c.cache_misses);
    ("coalesced", string_of_int c.coalesced);
    ("busy", string_of_int c.busy_rejected);
    ("tunes_run", string_of_int c.tunes_run);
    ("parse_errors", string_of_int c.parse_errors);
    ("domain_errors", string_of_int c.domain_errors);
    ("tune_failures", string_of_int c.tune_failures);
    ("abandoned", string_of_int c.abandoned);
    ("deadline_shed", string_of_int c.deadline_shed);
    ("salvage_dropped", string_of_int (Result_cache.dropped t.cache));
    ("stale_dropped", string_of_int (Result_cache.stale t.cache));
    ("audited", string_of_int (Result_cache.audited t.cache));
    ("quarantined", string_of_int (Result_cache.quarantined t.cache));
    ("scrubbed", string_of_int (Result_cache.scrubbed t.cache));
    ("audit_rejected", string_of_int (Result_cache.rejected t.cache));
    ("queued", string_of_int (Queue.length t.jobs));
    ("running", if Option.is_none t.running then "0" else "1");
    ("draining", string_of_bool t.draining);
  ]

(* ------------------------------------------------------------------ *)
(* Responses. *)

let entry_response ~cached (e : Result_cache.entry) =
  Protocol.Result
    {
      key = e.key;
      source = (if cached then Protocol.Src_cached else e.source);
      runtime_us = e.runtime_us;
      gflops = e.gflops;
      (* A cache hit performs zero measurements — the trial counter the
         chaos harness uses to assert "no re-tuning". *)
      trials = (if cached then 0 else e.trials);
      config = e.config;
    }

let deliver t out client response =
  if Hashtbl.mem t.connected client then
    out := (client, Protocol.render_response response) :: !out
  else t.c <- { t.c with abandoned = t.c.abandoned + 1 }

(* ------------------------------------------------------------------ *)
(* Request admission. *)

let handle_tune t out client (req : Protocol.tune_request) =
  let canonical = Protocol.canonical_of_tune req in
  let key = Result_cache.key_of_canonical canonical in
  let deadline_at =
    Option.map (fun d -> t.now_ms () +. float_of_int d) req.Protocol.deadline_ms
  in
  match Result_cache.find t.cache ~canonical with
  | Some e ->
    t.c <- { t.c with cache_hits = t.c.cache_hits + 1 };
    deliver t out client (entry_response ~cached:true e)
  | None ->
    t.c <- { t.c with cache_misses = t.c.cache_misses + 1 };
    (match Hashtbl.find_opt t.inflight key with
    | Some job ->
      t.c <- { t.c with coalesced = t.c.coalesced + 1 };
      job.waiters <- client :: job.waiters;
      (* A joining waiter can only relax the job's deadline: shedding is
         legitimate only once *no* waiter can still be satisfied. *)
      job.deadline_at <-
        (match (job.deadline_at, deadline_at) with
        | Some a, Some b -> Some (Float.max a b)
        | _ -> None)
    | None ->
      if Queue.length t.jobs >= t.settings.max_pending then begin
        t.c <- { t.c with busy_rejected = t.c.busy_rejected + 1 };
        deliver t out client
          (Protocol.Busy { retry_after_s = t.settings.retry_after_s })
      end
      else begin
        let job = { key; canonical; request = req; waiters = [ client ]; deadline_at } in
        Hashtbl.replace t.inflight key job;
        Queue.add job t.jobs
      end)

let handle_line t out (client, line) =
  match Protocol.parse_request line with
  | Error msg ->
    t.c <- { t.c with parse_errors = t.c.parse_errors + 1 };
    deliver t out client (Protocol.Error (Protocol.Parse msg))
  | Ok _ when t.draining -> deliver t out client (Protocol.Error Protocol.Draining)
  | Ok Protocol.Ping -> deliver t out client Protocol.Pong
  | Ok Protocol.Stats -> deliver t out client (Protocol.Stats_reply (stats t))
  | Ok (Protocol.Tune req) -> handle_tune t out client req

(* ------------------------------------------------------------------ *)
(* Running one tuning task. *)

(* The worker half: reads only the job's request and the settings, and
   writes only the supervision session and the tune's journal. *)
let tune_job t job =
  let req = job.request and s = t.settings in
  Resolver.tune t.session ~canonical:job.canonical ~seed:s.seed ~budget:s.budget_trials
    ?faults:s.faults ?journal_dir:s.journal_dir ~pruned:req.Protocol.pruned req.arch
    req.spec req.algorithm

let answer_waiters t out job response =
  (* Every waiter — including ones that joined by coalescing — gets the one
     shared answer; failures propagate to all of them identically. *)
  List.iter (fun client -> deliver t out client response) (List.rev job.waiters)

(* The loop half: count, classify, cache, answer. *)
let complete t out job tuned =
  let failed msg =
    t.c <- { t.c with tune_failures = t.c.tune_failures + 1 };
    Protocol.Error (Protocol.Failed msg)
  in
  let response =
    match tuned with
    | Ok (Core.Supervisor.Failed (Core.Supervisor.Empty_domain msg)) ->
      t.c <- { t.c with domain_errors = t.c.domain_errors + 1 };
      Protocol.Error (Protocol.Domain msg)
    | Error crash ->
      t.c <- { t.c with tunes_run = t.c.tunes_run + 1 };
      failed crash
    | Ok o -> (
      t.c <- { t.c with tunes_run = t.c.tunes_run + 1 };
      let { Protocol.arch; spec; _ } = job.request in
      match o with
      | Core.Supervisor.Tuned r | Core.Supervisor.Replayed r ->
        let source =
          match o with
          | Core.Supervisor.Replayed _ -> Protocol.Src_replayed
          | _ -> Protocol.Src_tuned
        in
        let entry = Resolver.entry ~canonical:job.canonical ~source arch spec r in
        (* An audited cache refuses a result that fails its own invariants;
           the waiters are still served it, as the best truth available. *)
        Result_cache.put t.cache entry;
        entry_response ~cached:false entry
      | Core.Supervisor.Degraded { config; runtime_us; faults; _ } ->
        (* A degraded answer is truthful but below full quality (breaker or
           budget cut the search short): serve it typed, do NOT cache it — a
           restarted daemon with a fresh budget should tune it properly. *)
        Protocol.Result
          {
            key = job.key;
            source = Protocol.Src_degraded;
            runtime_us;
            gflops = Core.Tuner.nominal_gflops spec ~runtime_us;
            trials = faults.Core.Tuner.failed;
            config;
          }
      | Core.Supervisor.Failed cause -> failed (Core.Supervisor.cause_to_string cause))
  in
  answer_waiters t out job response

(* Hands the job's worker half to the executor.  The job stays in
   [inflight] until [finish_running] applies its result, so an identical
   request arriving mid-tune joins it. *)
let launch t job =
  let slot = { job; result = None } in
  t.running <- Some slot;
  t.executor (fun () ->
      let result =
        (* A tune must never take the service down: an unexpected failure
           (journal I/O, journal salvage, ...) becomes a typed error for
           this job's waiters and the daemon keeps serving. *)
        try Ok (tune_job t job) with exn -> Error (Printexc.to_string exn)
      in
      Mutex.protect t.lock (fun () ->
          slot.result <- Some result;
          Condition.broadcast t.finished))

(* Launches the next queued job.  One whose every waiter's deadline has
   already passed is shed instead: tuning now would burn budget answering
   connections that stopped listening.  A patient waiter (no deadline)
   keeps the job runnable via [deadline_at = None]. *)
let rec start_next t out =
  match Queue.take_opt t.jobs with
  | None -> ()
  | Some ({ deadline_at = Some d; _ } as job) when t.now_ms () > d ->
    Hashtbl.remove t.inflight job.key;
    t.c <- { t.c with deadline_shed = t.c.deadline_shed + 1 };
    answer_waiters t out job (Protocol.Error Protocol.Deadline);
    start_next t out
  | Some job -> launch t job

(* Applies the running tune's result once its worker half has finished. *)
let finish_running t out =
  match t.running with
  | None -> ()
  | Some slot -> (
    match Mutex.protect t.lock (fun () -> slot.result) with
    | None -> ()
    | Some tuned ->
      t.running <- None;
      Hashtbl.remove t.inflight slot.job.key;
      complete t out slot.job tuned)

(* ------------------------------------------------------------------ *)
(* Stepping. *)

let step t =
  let out = ref [] in
  finish_running t out;
  let lines = Queue.fold (fun acc x -> x :: acc) [] t.pending |> List.rev in
  Queue.clear t.pending;
  List.iter (handle_line t out) lines;
  if Option.is_none t.running then start_next t out;
  (* The inline executor has already finished the tune just launched. *)
  finish_running t out;
  (* Background scrubbing: a bounded slice of the cache re-audited per tick,
     so a long-lived daemon sweeps its whole cache without ever pausing. *)
  if t.settings.scrub_per_step > 0 then
    ignore (Result_cache.scrub_step t.cache ~n:t.settings.scrub_per_step);
  List.rev !out

(* Blocks until the running tune's worker half has finished. *)
let await_running t =
  Option.iter
    (fun slot ->
      Mutex.protect t.lock (fun () ->
          while Option.is_none slot.result do
            Condition.wait t.finished t.lock
          done))
    t.running

let rec run_until_idle t =
  let responses = step t in
  if Queue.is_empty t.pending && Queue.is_empty t.jobs && Option.is_none t.running then
    responses
  else begin
    await_running t;
    responses @ run_until_idle t
  end

let drain t =
  (* Requests already received were accepted: serve them (finishing every
     queued tune) before refusing anything.  Only lines submitted after
     this point see [ERR draining]. *)
  let responses = run_until_idle t in
  t.draining <- true;
  Result_cache.flush t.cache;
  responses
