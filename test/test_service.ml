(* Service-layer suite — backs the [@service-smoke] dune alias.

   The tuning daemon's three robustness pillars, exercised through the
   deterministic in-process harness (Service.Sim drives the same Engine the
   socket daemon does):

   - the crash-safe content-addressed result cache: kill -9 (a script that
     ends without Drain) plus injected file corruption still leaves a
     restartable cache, and previously tuned shapes answer with zero
     re-tuning (trials=0, tunes_run unchanged);
   - coalescing + admission: N identical concurrent requests run exactly
     one tuning task and all waiters get the one answer; distinct requests
     beyond max_pending get a typed BUSY;
   - protocol fault handling: every byte the engine emits is a typed
     response line, malformed input never crashes, draining rejects new
     work but finishes queued tunes;
   - answer integrity: semantic corruption the framing CRC endorses
     (mutate-and-reframe) is caught by the Verify.Audit trust boundaries —
     load, hit, post-tune, background scrub — quarantined with typed
     reasons, and the poisoned shapes fall through to fresh tunes;
   - tunes off the serving loop: a qcheck state machine drives the engine
     through an executor that holds each tune until released, against a
     pure model of answers, cache, running and queued tunes and ledger.

   A real-socket daemon smoke (spawned domain, live Unix socket, idle
   deadline, SIGTERM-equivalent stop/drain, warm restart) runs too.
   SERVICE_DEEP=1 widens the chaos campaign seed sweep. *)

let deep = Sys.getenv_opt "SERVICE_DEEP" <> None
let campaign_seeds = List.init (if deep then 16 else 4) (fun i -> i)

(* Salvage warnings from deliberately corrupted caches are expected noise. *)
let () = Util.Log.set_quiet true

(* Small shapes keep a full tune at a few hundred microseconds of model
   evaluation; the smoke suite stays well under the 5s gate. *)
let line_a = "TUNE cin=4 size=8 cout=4 k=3"
let line_b = "TUNE cin=8 size=8 cout=4 k=1"
let line_c = "TUNE cin=4 size=10 cout=8 k=3 arch=1080ti"

let spec_of_line line =
  match Service.Protocol.parse_request line with
  | Ok (Service.Protocol.Tune r) -> r
  | _ -> Alcotest.failf "helper line does not parse: %s" line

let fast =
  {
    Service.Engine.default_settings with
    budget_trials = 16;
    max_pending = 4;
  }

let temp_cache () =
  let path = Filename.temp_file "service" ".cache" in
  Sys.remove path;
  path

(* A run that never tunes never creates the cache file. *)
let cleanup path = if Sys.file_exists path then Sys.remove path

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let parse_ok line =
  match Service.Protocol.parse_response line with
  | Some (Service.Protocol.Result p) -> p
  | _ -> Alcotest.failf "expected an OK response, got: %s" line

(* Rebuild the request's search space and check the answered config is a
   member — the "validated config" half of the chaos property. *)
let assert_config_valid line (r : Service.Protocol.tune_request) =
  let p = parse_ok line in
  match
    Core.Search_space.make ~pruned:r.pruned r.arch r.spec r.algorithm
  with
  | exception Invalid_argument _ -> Alcotest.failf "spec lost its domain: %s" line
  | space ->
    Alcotest.(check bool)
      ("config validates: " ^ line)
      true
      (Core.Search_space.validate space p.config = Ok ())

(* ------------------------------------------------------------------ *)
(* Protocol. *)

let test_request_roundtrip () =
  let r = spec_of_line "TUNE cin=64 cout=32 hin=28 win=28 kh=3 kw=3 stride=2 padh=1 padw=0 batch=2 groups=2 arch=1080ti algo=winograd e=2 pruned=false" in
  let rendered = Service.Protocol.render_tune r in
  (match Service.Protocol.parse_request rendered with
  | Ok (Service.Protocol.Tune r') ->
    Alcotest.(check string) "round-trip preserves the canonical request"
      (Service.Protocol.canonical_of_tune r)
      (Service.Protocol.canonical_of_tune r')
  | _ -> Alcotest.fail "rendered request did not parse back");
  (* Field order is free and elidable defaults do not change the address. *)
  let permuted = spec_of_line "TUNE k=3 size=8 cout=4 cin=4 arch=v100 algo=direct pruned=true" in
  Alcotest.(check string) "permuted + explicit defaults address the same entry"
    (Service.Protocol.canonical_of_tune (spec_of_line line_a))
    (Service.Protocol.canonical_of_tune permuted)

let test_parse_rejects_malformed () =
  let reject line =
    match Service.Protocol.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for: %s" line
  in
  List.iter reject
    [
      "";
      "FROBNICATE";
      "TUNE";
      "TUNE cin=4";  (* missing cout/size/k *)
      "TUNE cin=4 size=8 cout=4 k=3 cin=5";  (* duplicate field *)
      "TUNE cin=banana size=8 cout=4 k=3";
      "TUNE cin=4 size=8 cout=4 k=3 deadline-ms=-5";  (* bad known value *)
      "TUNE cin=-4 size=8 cout=4 k=3";  (* spec-level rejection *)
      "TUNE cin=4 size=8 cout=4 k=3 algo=quantum";
      "TUNE cin=4 size=8 cout=4 k=3 arch=abacus";
      "TUNE cin=4 size=8\tcout=4 k=3";  (* control char *)
      "TUNE cin=4 size=8 cout=4 k=3 " ^ String.make Service.Protocol.max_line_bytes 'x';
    ];
  Alcotest.(check bool) "garbage is not a typed response line" false
    (Service.Protocol.is_typed_line "how about no")

(* The forward-compatibility rule: unknown key=value fields are ignored (the
   mechanism that let deadline-ms ship without breaking older daemons), and
   the ignored fields never perturb the cache address. *)
let test_parse_ignores_unknown_fields () =
  let with_unknown = spec_of_line (line_a ^ " mystery=1 future-proof=yes") in
  Alcotest.(check string) "unknown fields do not change the address"
    (Service.Protocol.canonical_of_tune (spec_of_line line_a))
    (Service.Protocol.canonical_of_tune with_unknown);
  (* deadline-ms is a known serving-side field: parsed, never addressed. *)
  let with_deadline = spec_of_line (line_a ^ " deadline-ms=5000") in
  Alcotest.(check (option int)) "deadline-ms parsed"
    (Some 5000) with_deadline.deadline_ms;
  Alcotest.(check string) "deadline-ms does not change the address"
    (Service.Protocol.canonical_of_tune (spec_of_line line_a))
    (Service.Protocol.canonical_of_tune with_deadline)

let test_response_roundtrip () =
  let space =
    let r = spec_of_line line_a in
    Core.Search_space.make r.arch r.spec r.algorithm
  in
  let config, _ = Core.Supervisor.analytic_best space in
  let payload =
    {
      Service.Protocol.key = Service.Result_cache.key_of_canonical "x";
      source = Service.Protocol.Src_tuned;
      runtime_us = 123.456789;
      gflops = 7.25;
      trials = 42;
      config;
    }
  in
  let roundtrip resp =
    let line = Service.Protocol.render_response resp in
    Alcotest.(check bool) ("typed: " ^ line) true (Service.Protocol.is_typed_line line);
    match Service.Protocol.parse_response line with
    | Some resp' ->
      Alcotest.(check string) ("round-trip: " ^ line) line
        (Service.Protocol.render_response resp')
    | None -> Alcotest.failf "rendered response did not parse back: %s" line
  in
  List.iter roundtrip
    [
      Service.Protocol.Result payload;
      Service.Protocol.Result
        { payload with source = Service.Protocol.Src_cached; trials = 0 };
      Service.Protocol.Busy { retry_after_s = 3 };
      Service.Protocol.Pong;
      Service.Protocol.Stats_reply [ ("hits", "4"); ("draining", "false") ];
      Service.Protocol.Error (Service.Protocol.Parse "unknown field 'mystery'");
      Service.Protocol.Error (Service.Protocol.Domain "winograd unsupported");
      Service.Protocol.Error (Service.Protocol.Failed "breaker open");
      Service.Protocol.Error (Service.Protocol.Parse "");  (* empty payload *)
      Service.Protocol.Error Service.Protocol.Draining;
      Service.Protocol.Error Service.Protocol.Timeout;
      Service.Protocol.Error Service.Protocol.Deadline;
      Service.Protocol.Busy { retry_after_s = 0 };
    ]

(* ------------------------------------------------------------------ *)
(* Result cache. *)

let sample_entry canonical =
  let r = spec_of_line line_a in
  let space = Core.Search_space.make r.arch r.spec r.algorithm in
  let config, runtime_us = Core.Supervisor.analytic_best space in
  {
    Service.Result_cache.key = Service.Result_cache.key_of_canonical canonical;
    canonical;
    source = Service.Protocol.Src_tuned;
    runtime_us;
    gflops = 3.25;
    predicted_us = runtime_us;
    trials = 16;
    config;
  }

let test_cache_roundtrip_persists () =
  let path = temp_cache () in
  let cache = Service.Result_cache.load ~generation:"g1" path in
  Alcotest.(check int) "fresh cache empty" 0 (Service.Result_cache.entries cache);
  let e = sample_entry "spec-one" in
  Service.Result_cache.put cache e;
  (* A second process (or a restart after kill -9) sees the append. *)
  let cache' = Service.Result_cache.load ~generation:"g1" path in
  (match Service.Result_cache.find cache' ~canonical:"spec-one" with
  | Some e' ->
    Alcotest.(check string) "key survives" e.key e'.key;
    Alcotest.(check bool) "runtime bit-identical" true (e.runtime_us = e'.runtime_us);
    Alcotest.(check string) "config survives"
      (Core.Config.to_compact e.config)
      (Core.Config.to_compact e'.config)
  | None -> Alcotest.fail "entry lost across reload");
  Alcotest.(check bool) "unknown canonical misses" true
    (Service.Result_cache.find cache' ~canonical:"spec-two" = None);
  Service.Result_cache.flush cache';
  let cache'' = Service.Result_cache.load ~generation:"g1" path in
  Alcotest.(check int) "flush keeps the live entry" 1
    (Service.Result_cache.entries cache'');
  Sys.remove path

let test_cache_generation_invalidation () =
  let path = temp_cache () in
  let old = Service.Result_cache.load ~generation:"trials=16;seed=0" path in
  Service.Result_cache.put old (sample_entry "spec-one");
  (* The operator changed the search settings: old answers are stale. *)
  let fresh = Service.Result_cache.load ~generation:"trials=64;seed=0" path in
  Alcotest.(check int) "stale records counted" 1 (Service.Result_cache.stale fresh);
  Alcotest.(check int) "no live entries" 0 (Service.Result_cache.entries fresh);
  Alcotest.(check bool) "stale entry not served" true
    (Service.Result_cache.find fresh ~canonical:"spec-one" = None);
  Service.Result_cache.flush fresh;
  (* The compaction removed the stale generation for good. *)
  let back = Service.Result_cache.load ~generation:"trials=16;seed=0" path in
  Alcotest.(check int) "flush dropped the stale record" 0
    (Service.Result_cache.stale back + Service.Result_cache.entries back);
  Sys.remove path

let test_cache_rejects_forged_key () =
  (* A record whose key does not hash its canonical (disk tampering, or a
     genuine FNV collision) must be ignored, never served. *)
  let path = temp_cache () in
  let cache = Service.Result_cache.load ~generation:"g1" path in
  let e = sample_entry "spec-one" in
  Service.Result_cache.put cache e;
  let forged =
    Printf.sprintf "v2\tg1\t%s\t%s\t%h\t%h\t%h\t%d\t%s\t%s"
      (Service.Result_cache.key_of_canonical "some-other-spec")
      "tuned" 1.0 1.0 1.0 5
      (Core.Config.to_compact e.config)
      "spec-forged"
  in
  Util.Durable.append ~kind:"service-cache" path forged;
  let cache' = Service.Result_cache.load ~generation:"g1" path in
  Alcotest.(check int) "only the honest entry is live" 1
    (Service.Result_cache.entries cache');
  Alcotest.(check bool) "forged canonical not served" true
    (Service.Result_cache.find cache' ~canonical:"spec-forged" = None);
  Sys.remove path

(* The audit at the cache boundary: an audited cache refuses a fresh entry
   that fails its invariants ("spec-one" is no canonical key, so its domain
   cannot be rebuilt) — nothing stored, nothing appended, nothing
   quarantined, since the bytes never reached the cache — while a plain
   cache stores it. *)
let test_cache_audited_put_refuses_suspect () =
  let path = temp_cache () in
  let audited = Service.Result_cache.load ~audit:true ~generation:"g1" path in
  Service.Result_cache.put audited (sample_entry "spec-one");
  Alcotest.(check bool) "refused entry misses" true
    (Service.Result_cache.find audited ~canonical:"spec-one" = None);
  Alcotest.(check int) "nothing appended" 0
    (Service.Result_cache.entries (Service.Result_cache.load ~generation:"g1" path));
  Alcotest.(check bool) "no quarantine sidecar" false
    (Sys.file_exists (Service.Result_cache.quarantine_path audited));
  Alcotest.(check int) "counted as rejected" 1 (Service.Result_cache.rejected audited);
  let plain = Service.Result_cache.load ~generation:"g1" path in
  Service.Result_cache.put plain (sample_entry "spec-one");
  Alcotest.(check bool) "a plain cache stores it" true
    (Service.Result_cache.find plain ~canonical:"spec-one" <> None);
  cleanup path

let test_cache_corruption_salvage () =
  let rounds = if deep then 200 else 25 in
  let canonicals = [ "alpha"; "beta"; "gamma" ] in
  for seed = 0 to rounds - 1 do
    let path = temp_cache () in
    let cache = Service.Result_cache.load ~generation:"g1" path in
    let originals =
      List.map
        (fun c ->
          let e = { (sample_entry c) with runtime_us = float_of_int (String.length c) } in
          Service.Result_cache.put cache e;
          e)
        canonicals
    in
    let rng = Util.Rng.create seed in
    for _ = 0 to Util.Rng.int rng 3 do
      ignore (Util.Fs_faults.inject rng path)
    done;
    (* Salvage must never raise, never serve a damaged record, and every
       record it does serve must be bit-identical to what was written. *)
    let salvaged = Service.Result_cache.load ~generation:"g1" path in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: entries within bounds" seed)
      true
      (Service.Result_cache.entries salvaged <= List.length canonicals);
    List.iter
      (fun (e : Service.Result_cache.entry) ->
        match Service.Result_cache.find salvaged ~canonical:e.canonical with
        | None -> () (* lost to corruption: reported via [dropped]/[stale] *)
        | Some e' ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s survives bit-identically" seed e.canonical)
            true
            (e'.runtime_us = e.runtime_us && e'.key = e.key
            && Core.Config.to_compact e'.config = Core.Config.to_compact e.config))
      originals;
    (* The salvage repaired the file in place: a second load is clean. *)
    let again = Service.Result_cache.load ~generation:"g1" path in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: repair leaves nothing more to drop" seed)
      0
      (Service.Result_cache.dropped again);
    Sys.remove path
  done

(* ------------------------------------------------------------------ *)
(* Engine (through the Sim harness). *)

let run_sim ?(settings = fast) ~cache events = Service.Sim.run ~settings ~cache events

let counters outcome = Service.Engine.counters outcome.Service.Sim.engine

let test_tune_then_cached () =
  let cache = temp_cache () in
  let outcome =
    run_sim ~cache
      Service.Sim.
        [ Connect 1; Send (1, line_a); Run_until_idle; Send (1, line_a); Run_until_idle ]
  in
  (match Service.Sim.transcript_of 1 outcome with
  | [ first; second ] ->
    let p1 = parse_ok first and p2 = parse_ok second in
    Alcotest.(check string) "first answer is a live tune" "tuned"
      (Service.Protocol.source_to_string p1.source);
    Alcotest.(check bool) "live tune measured" true (p1.trials > 0);
    Alcotest.(check string) "repeat served from cache" "cached"
      (Service.Protocol.source_to_string p2.source);
    Alcotest.(check int) "cache hit measures nothing" 0 p2.trials;
    Alcotest.(check string) "same key" p1.key p2.key;
    Alcotest.(check string) "same config"
      (Core.Config.to_compact p1.config)
      (Core.Config.to_compact p2.config);
    assert_config_valid first (spec_of_line line_a)
  | t -> Alcotest.failf "expected two responses, got %d" (List.length t));
  let c = counters outcome in
  Alcotest.(check int) "one tune ran" 1 c.tunes_run;
  Alcotest.(check int) "one hit" 1 c.cache_hits;
  Alcotest.(check int) "one miss" 1 c.cache_misses;
  cleanup cache

let test_identical_requests_coalesce () =
  let cache = temp_cache () in
  let n = 4 in
  let connects = List.init n (fun i -> Service.Sim.Connect i) in
  let sends = List.init n (fun i -> Service.Sim.Send (i, line_a)) in
  let outcome = run_sim ~cache (connects @ sends @ [ Service.Sim.Run_until_idle ]) in
  let c = counters outcome in
  Alcotest.(check int) "exactly one tuning task for N identical requests" 1 c.tunes_run;
  Alcotest.(check int) "the other N-1 joined it" (n - 1) c.coalesced;
  Alcotest.(check int) "nobody bounced" 0 c.busy_rejected;
  let lines =
    List.init n (fun i ->
        match Service.Sim.transcript_of i outcome with
        | [ line ] -> line
        | t -> Alcotest.failf "client %d: expected one response, got %d" i (List.length t))
  in
  (* One shared answer, delivered to every waiter. *)
  List.iter
    (fun line -> Alcotest.(check string) "shared answer" (List.hd lines) line)
    lines;
  assert_config_valid (List.hd lines) (spec_of_line line_a);
  cleanup cache

let test_admission_control_busy () =
  let cache = temp_cache () in
  let settings = { fast with max_pending = 1; retry_after_s = 7 } in
  let outcome =
    run_sim ~settings ~cache
      Service.Sim.
        [
          Connect 1; Connect 2; Connect 3;
          Send (1, line_a); Send (2, line_b); Send (3, line_c);
          Run_until_idle;
        ]
  in
  let c = counters outcome in
  Alcotest.(check int) "beyond max_pending rejected" 2 c.busy_rejected;
  Alcotest.(check int) "admitted tune ran" 1 c.tunes_run;
  ignore (parse_ok (List.hd (Service.Sim.transcript_of 1 outcome)));
  List.iter
    (fun i ->
      match Service.Sim.transcript_of i outcome with
      | [ line ] -> (
        match Service.Protocol.parse_response line with
        | Some (Service.Protocol.Busy { retry_after_s }) ->
          Alcotest.(check int) "retry hint from settings" 7 retry_after_s
        | _ -> Alcotest.failf "client %d: expected BUSY, got %s" i line)
      | t -> Alcotest.failf "client %d: expected one response, got %d" i (List.length t))
    [ 2; 3 ];
  cleanup cache

let test_disconnect_still_tunes_and_caches () =
  let cache = temp_cache () in
  let outcome =
    run_sim ~cache
      Service.Sim.
        [
          Connect 1; Send (1, line_a); Disconnect 1; Run_until_idle;
          Connect 2; Send (2, line_a); Run_until_idle;
        ]
  in
  Alcotest.(check (list string)) "the vanished client hears nothing" []
    (Service.Sim.transcript_of 1 outcome);
  let c = counters outcome in
  Alcotest.(check int) "its response counted abandoned" 1 c.abandoned;
  Alcotest.(check int) "the tune still ran once" 1 c.tunes_run;
  (* The abandoned tune's work was cached, so the next client hits. *)
  let p = parse_ok (List.hd (Service.Sim.transcript_of 2 outcome)) in
  Alcotest.(check string) "second client served from cache" "cached"
    (Service.Protocol.source_to_string p.source);
  cleanup cache

let test_drain_finishes_then_rejects () =
  let cache = temp_cache () in
  let outcome =
    run_sim ~cache
      Service.Sim.
        [
          Connect 1; Send (1, line_a);
          Drain;  (* queued tune finishes and answers *)
          Send (1, line_b); Run_until_idle;  (* new work after drain: rejected *)
          Drain;  (* idempotent *)
        ]
  in
  (match Service.Sim.transcript_of 1 outcome with
  | [ first; second ] ->
    ignore (parse_ok first);
    (match Service.Protocol.parse_response second with
    | Some (Service.Protocol.Error Service.Protocol.Draining) -> ()
    | _ -> Alcotest.failf "expected ERR draining, got %s" second)
  | t -> Alcotest.failf "expected two responses, got %d" (List.length t));
  Alcotest.(check bool) "engine reports draining" true
    (Service.Engine.is_draining outcome.engine);
  (* Drain flushed atomically: the file reloads clean with the tuned entry. *)
  let reloaded =
    Service.Result_cache.load
      ~generation:(Service.Engine.generation_of_settings fast)
      cache
  in
  Alcotest.(check int) "drained cache holds the finished tune" 1
    (Service.Result_cache.entries reloaded);
  Alcotest.(check int) "compacted: no salvage loss" 0
    (Service.Result_cache.dropped reloaded);
  cleanup cache

let test_protocol_lines_through_engine () =
  let cache = temp_cache () in
  let outcome =
    run_sim ~cache
      Service.Sim.
        [
          Connect 1;
          Send (1, "PING");
          Send (1, "TUNE cin=banana");
          Send (1, "STATS");
          Run_until_idle;
        ]
  in
  (match Service.Sim.transcript_of 1 outcome with
  | [ pong; err; stats ] ->
    Alcotest.(check string) "ping" "PONG" pong;
    (match Service.Protocol.parse_response err with
    | Some (Service.Protocol.Error (Service.Protocol.Parse _)) -> ()
    | _ -> Alcotest.failf "expected ERR parse, got %s" err);
    (match Service.Protocol.parse_response stats with
    | Some (Service.Protocol.Stats_reply kvs) ->
      Alcotest.(check (option string)) "stats count the parse error" (Some "1")
        (List.assoc_opt "parse_errors" kvs)
    | _ -> Alcotest.failf "expected STATS, got %s" stats)
  | t -> Alcotest.failf "expected three responses, got %d" (List.length t));
  Alcotest.(check int) "parse error counted" 1 (counters outcome).parse_errors;
  cleanup cache

(* The wire answers, pinned: tuned, coalesced, PING and STATS (its audit
   ledger included) must stay byte-identical across refactors of the
   engine, not only between two runs of one build. *)
let test_sim_deterministic () =
  let script =
    Service.Sim.
      [
        Connect 1; Connect 2;
        Send (1, line_a); Send (2, line_a); Send (2, "PING");
        Step; Send (1, line_b); Run_until_idle; Send (1, "STATS"); Drain;
      ]
  in
  let c1 = temp_cache () and c2 = temp_cache () in
  let o1 = run_sim ~cache:c1 script and o2 = run_sim ~cache:c2 script in
  Alcotest.(check (list (pair int string))) "scripted runs are byte-identical"
    o1.responses o2.responses;
  Alcotest.(check (list (pair int string))) "the pinned transcript"
    [
      (2, "PONG");
      (1, "OK key=415dbe0c8f2fc07f source=tuned runtime_us=3.961261 gflops=2.62 trials=16 config=d|CHW|3,2,1|3,2,1|2|4|1");
      (2, "OK key=415dbe0c8f2fc07f source=tuned runtime_us=3.961261 gflops=2.62 trials=16 config=d|CHW|3,2,1|3,2,1|2|4|1");
      (1, "OK key=8dfe25a0c58dd813 source=tuned runtime_us=3.937455 gflops=1.04 trials=16 config=d|CHW|1,2,4|1,2,4|1|2|0");
      (1, "STATS entries=2 hits=0 misses=3 coalesced=1 busy=0 tunes_run=2 parse_errors=0 domain_errors=0 tune_failures=0 abandoned=0 deadline_shed=0 salvage_dropped=0 stale_dropped=0 audited=2 quarantined=0 scrubbed=0 audit_rejected=0 queued=0 running=0 draining=false");
    ]
    o1.responses;
  Sys.remove c1;
  Sys.remove c2

(* The tentpole crash property: a daemon killed without drain (script ends,
   no Drain event), its cache then corrupted on disk, restarts into a
   salvaged cache and serves every shape it had already tuned with zero
   re-tuning. *)
let test_kill9_corrupt_restart_warm () =
  let cache = temp_cache () in
  let first =
    run_sim ~cache
      Service.Sim.
        [
          Connect 1;
          Send (1, line_a); Run_until_idle;
          Send (1, line_b); Run_until_idle;
          (* no Drain: kill -9 *)
        ]
  in
  Alcotest.(check int) "two tunes before the crash" 2 (counters first).tunes_run;
  (* Half-finished foreign writer scribbles on the file. *)
  Util.Fs_faults.apply cache (Util.Fs_faults.Garbage_append "partial write \x01\x02");
  let second =
    run_sim ~cache
      Service.Sim.
        [
          Connect 1;
          Send (1, line_a); Send (1, line_b);
          Run_until_idle;
        ]
  in
  let c = counters second in
  Alcotest.(check int) "restart re-tunes nothing" 0 c.tunes_run;
  Alcotest.(check int) "both answered from the salvaged cache" 2 c.cache_hits;
  List.iter
    (fun line ->
      let p = parse_ok line in
      Alcotest.(check string) "served from cache" "cached"
        (Service.Protocol.source_to_string p.source);
      Alcotest.(check int) "zero trials" 0 p.trials)
    (Service.Sim.transcript_of 1 second);
  cleanup cache

let test_settings_change_invalidates_cache () =
  let cache = temp_cache () in
  let first =
    run_sim ~cache Service.Sim.[ Connect 1; Send (1, line_a); Run_until_idle; Drain ]
  in
  Alcotest.(check int) "tuned once" 1 (counters first).tunes_run;
  (* A bigger trial budget means better answers: stale cache must not mask
     them. *)
  let second =
    run_sim
      ~settings:{ fast with budget_trials = 24 }
      ~cache
      Service.Sim.[ Connect 1; Send (1, line_a); Run_until_idle ]
  in
  let c = counters second in
  Alcotest.(check int) "changed settings force a fresh tune" 1 c.tunes_run;
  Alcotest.(check int) "no hit from the stale generation" 0 c.cache_hits;
  Alcotest.(check int) "the stale record was recognized" 1
    (Service.Result_cache.stale (Service.Engine.cache second.engine));
  let p = parse_ok (List.hd (Service.Sim.transcript_of 1 second)) in
  Alcotest.(check string) "fresh live tune" "tuned"
    (Service.Protocol.source_to_string p.source);
  cleanup cache

let test_degraded_not_cached () =
  let cache = temp_cache () in
  (* Zero virtual-time budget: the supervisor degrades every tune to the
     analytic answer.  Degraded answers are served typed but never cached —
     a restarted daemon with a fresh budget must tune properly. *)
  let settings =
    {
      fast with
      policy = { Core.Supervisor.default_policy with budget_us = 0.0 };
    }
  in
  let outcome =
    run_sim ~settings ~cache
      Service.Sim.
        [ Connect 1; Send (1, line_a); Run_until_idle; Send (1, line_a); Run_until_idle ]
  in
  (match Service.Sim.transcript_of 1 outcome with
  | [ first; second ] ->
    List.iter
      (fun line ->
        let p = parse_ok line in
        Alcotest.(check string) "typed as degraded" "degraded"
          (Service.Protocol.source_to_string p.source);
        assert_config_valid line (spec_of_line line_a))
      [ first; second ]
  | t -> Alcotest.failf "expected two responses, got %d" (List.length t));
  let degraded =
    "OK key=415dbe0c8f2fc07f source=degraded runtime_us=4.053719 gflops=2.56 trials=0 config=d|CHW|4,2,1|4,2,1|4|2|0"
  in
  Alcotest.(check (list (pair int string))) "the pinned transcript"
    [ (1, degraded); (1, degraded) ]
    outcome.responses;
  Alcotest.(check int) "degraded answers never enter the cache" 0
    (Service.Result_cache.entries (Service.Engine.cache outcome.engine));
  Alcotest.(check int) "so the repeat tuned again" 2 (counters outcome).tunes_run;
  cleanup cache

let test_domain_error_typed () =
  let cache = temp_cache () in
  (* Winograd on a strided layer: Search_space.make rejects the domain. *)
  let line = "TUNE cin=4 size=8 cout=4 k=3 stride=2 algo=winograd e=2" in
  let outcome =
    run_sim ~cache Service.Sim.[ Connect 1; Send (1, line); Run_until_idle ]
  in
  (match Service.Sim.transcript_of 1 outcome with
  | [ line ] -> (
    match Service.Protocol.parse_response line with
    | Some (Service.Protocol.Error (Service.Protocol.Domain _)) -> ()
    | _ -> Alcotest.failf "expected ERR domain, got %s" line)
  | t -> Alcotest.failf "expected one response, got %d" (List.length t));
  Alcotest.(check int) "counted" 1 (counters outcome).domain_errors;
  (* The dead-end surfaces in the supervision health report too. *)
  let report = Service.Engine.health outcome.engine in
  (match report.Core.Supervisor.tasks with
  | [ task ] ->
    Alcotest.(check string) "named by its canonical request"
      (Service.Protocol.canonical_of_tune (spec_of_line line))
      task.key
  | t -> Alcotest.failf "expected one supervised task, got %d" (List.length t));
  cleanup cache

(* A journal records only config -> outcome, so it must be named by every
   input that decides the search.  A seed-1 engine pointed at a journal
   directory a seed-0 engine used answers exactly what a seed-1 engine on a
   fresh directory answers, and keeps its own journal. *)
let test_journal_named_by_identity () =
  let shared = temp_dir "service-journals" and fresh = temp_dir "service-journals" in
  let tune ~seed ~dir =
    let cache = temp_cache () in
    let settings = { fast with seed; budget_trials = 24; journal_dir = Some dir } in
    let outcome =
      run_sim ~settings ~cache Service.Sim.[ Connect 1; Send (1, line_a); Run_until_idle ]
    in
    cleanup cache;
    match Service.Sim.transcript_of 1 outcome with
    | [ line ] -> line
    | t -> Alcotest.failf "expected one response, got %d" (List.length t)
  in
  ignore (tune ~seed:0 ~dir:shared);
  let after_foreign = tune ~seed:1 ~dir:shared in
  Alcotest.(check string) "a foreign journal does not change the answer"
    (tune ~seed:1 ~dir:fresh) after_foreign;
  Alcotest.(check string) "the answer is a fresh tune" "tuned"
    (Service.Protocol.source_to_string (parse_ok after_foreign).source);
  Alcotest.(check int) "one journal per identity" 2
    (Sys.readdir shared |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".journal")
    |> List.length);
  rm_rf shared;
  rm_rf fresh

(* ------------------------------------------------------------------ *)
(* The engine against a pure model.  Tunes go through an executor that
   holds each one until the script releases it, so random scripts reach
   every interleaving of arrivals, coalescing, BUSY, disconnects, drains
   and restarts around a running tune.  After every operation the engine's
   responses, counters, cache size and launches must equal the model's. *)

let model_shapes = [| line_a; line_b; line_c; "TUNE cin=8 size=8 cout=8 k=3 arch=titanx" |]
let model_settings = { fast with max_pending = 2 }

(* Each shape's answers from an inline engine: the fresh tune, then the
   cache hit. *)
let model_answers =
  lazy
    (Array.map
       (fun line ->
         let cache = temp_cache () in
         let outcome =
           run_sim ~settings:model_settings ~cache
             Service.Sim.
               [ Connect 1; Send (1, line); Run_until_idle; Send (1, line); Run_until_idle ]
         in
         cleanup cache;
         match Service.Sim.transcript_of 1 outcome with
         | [ tuned; hit ] -> (tuned, hit)
         | _ -> Alcotest.fail "reference engine did not answer twice")
       model_shapes)

type model_op =
  | M_connect
  | M_submit of int * int  (* nth connected client; shape index, or 4 PING, 5 STATS *)
  | M_step
  | M_release
  | M_disconnect of int
  | M_drain
  | M_restart

let show_model_op = function
  | M_connect -> "connect"
  | M_submit (c, r) -> Printf.sprintf "submit(%d,%d)" c r
  | M_step -> "step"
  | M_release -> "release"
  | M_disconnect c -> Printf.sprintf "disconnect(%d)" c
  | M_drain -> "drain"
  | M_restart -> "restart"

type model = {
  mutable cached : int list;
  mutable running : (int * bool) option;  (* shape, released *)
  mutable queued : int list;  (* oldest first *)
  mutable waiters : (int * int list) list;  (* shape -> clients, newest first *)
  mutable connected : int list;
  mutable pending : (int * int) list;  (* client, request; oldest first *)
  mutable draining : bool;
  mutable launches : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable busy : int;
  mutable tunes_run : int;
  mutable abandoned : int;
}

let fresh_model cached =
  {
    cached;
    running = None;
    queued = [];
    waiters = [];
    connected = [];
    pending = [];
    draining = false;
    launches = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    busy = 0;
    tunes_run = 0;
    abandoned = 0;
  }

type expected = Line of string | Stats of (string * string) list

let model_stats m =
  [
    ("entries", string_of_int (List.length m.cached));
    ("hits", string_of_int m.hits);
    ("misses", string_of_int m.misses);
    ("coalesced", string_of_int m.coalesced);
    ("busy", string_of_int m.busy);
    ("tunes_run", string_of_int m.tunes_run);
    ("abandoned", string_of_int m.abandoned);
    ("queued", string_of_int (List.length m.queued));
    ("running", if m.running = None then "0" else "1");
    ("draining", string_of_bool m.draining);
  ]

(* One engine step, as the model sees it.  [inline]: a launched tune
   finishes at once (the executor runs it before returning). *)
let model_step m ~inline =
  let answers = Lazy.force model_answers in
  let out = ref [] in
  let deliver c e =
    if List.mem c m.connected then out := (c, e) :: !out
    else m.abandoned <- m.abandoned + 1
  in
  let finish () =
    match m.running with
    | Some (k, true) ->
      m.running <- None;
      m.tunes_run <- m.tunes_run + 1;
      m.cached <- k :: m.cached;
      List.iter
        (fun c -> deliver c (Line (fst answers.(k))))
        (List.rev (List.assoc k m.waiters));
      m.waiters <- List.remove_assoc k m.waiters
    | _ -> ()
  in
  let handle (c, r) =
    if m.draining then
      deliver c (Line (Service.Protocol.render_response (Service.Protocol.Error Draining)))
    else if r = 4 then deliver c (Line "PONG")
    else if r = 5 then deliver c (Stats (model_stats m))
    else if List.mem r m.cached then begin
      m.hits <- m.hits + 1;
      deliver c (Line (snd answers.(r)))
    end
    else begin
      m.misses <- m.misses + 1;
      match List.assoc_opt r m.waiters with
      | Some ws ->
        m.coalesced <- m.coalesced + 1;
        m.waiters <- (r, c :: ws) :: List.remove_assoc r m.waiters
      | None ->
        if List.length m.queued >= model_settings.max_pending then begin
          m.busy <- m.busy + 1;
          deliver c
            (Line
               (Service.Protocol.render_response
                  (Service.Protocol.Busy { retry_after_s = model_settings.retry_after_s })))
        end
        else begin
          m.queued <- m.queued @ [ r ];
          m.waiters <- (r, [ c ]) :: m.waiters
        end
    end
  in
  finish ();
  List.iter handle m.pending;
  m.pending <- [];
  (match (m.running, m.queued) with
  | None, k :: rest ->
    m.queued <- rest;
    m.running <- Some (k, inline);
    m.launches <- m.launches + 1
  | _ -> ());
  finish ();
  List.rev !out

let run_model_script ops =
  let cache = temp_cache () in
  let held = ref None and auto = ref false and launches = ref 0 in
  let executor work =
    incr launches;
    if !auto then work ()
    else begin
      if !held <> None then failwith "a second tune launched while one runs";
      held := Some work
    end
  in
  let release () =
    match !held with
    | Some work ->
      held := None;
      work ()
    | None -> ()
  in
  let start () =
    launches := 0;
    Service.Engine.create ~settings:model_settings ~executor ~cache ()
  in
  let e = ref (start ()) in
  let clients = Hashtbl.create 8 in
  let m = ref (fresh_model []) in
  let check_responses label got want =
    let got = List.map (fun (c, l) -> (Service.Engine.client_id c, l)) got in
    if List.length got <> List.length want then
      failwith
        (Printf.sprintf "%s: %d responses, model %d" label (List.length got)
           (List.length want));
    List.iter2
      (fun (c, line) (c', e) ->
        if c <> c' then
          failwith (Printf.sprintf "%s: answer to client %d, model %d" label c c');
        (match Service.Protocol.parse_response line with
        | Some (Service.Protocol.Result p) when p.source = Service.Protocol.Src_cached ->
          if p.trials <> 0 then failwith ("cache hit measured: " ^ line)
        | _ -> ());
        match e with
        | Line want ->
          if line <> want then failwith (Printf.sprintf "%s: %s, model %s" label line want)
        | Stats kvs -> (
          match Service.Protocol.parse_response line with
          | Some (Service.Protocol.Stats_reply got) ->
            List.iter
              (fun (k, v) ->
                if List.assoc_opt k got <> Some v then
                  failwith (Printf.sprintf "%s: STATS %s, model %s=%s" label line k v))
              kvs
          | _ -> failwith (label ^ ": expected STATS, got " ^ line)))
      got want
  in
  let check_state label =
    let m = !m and c = Service.Engine.counters !e in
    List.iter
      (fun (name, got, want) ->
        if got <> want then
          failwith (Printf.sprintf "%s: %s=%d, model %d" label name got want))
      [
        ("hits", c.cache_hits, m.hits);
        ("misses", c.cache_misses, m.misses);
        ("coalesced", c.coalesced, m.coalesced);
        ("busy", c.busy_rejected, m.busy);
        ("tunes_run", c.tunes_run, m.tunes_run);
        ("abandoned", c.abandoned, m.abandoned);
        ("launches", !launches, m.launches);
        ( "entries",
          Service.Result_cache.entries (Service.Engine.cache !e),
          List.length m.cached );
        ( "held",
          Bool.to_int (!held <> None),
          Bool.to_int (match m.running with Some (_, false) -> true | _ -> false) );
      ]
  in
  let nth_connected n =
    match !m.connected with
    | [] -> None
    | l -> Some (List.nth l (n mod List.length l))
  in
  Fun.protect
    ~finally:(fun () ->
      cleanup cache;
      cleanup (cache ^ ".quarantine"))
    (fun () ->
      List.iteri
        (fun i op ->
          let label = Printf.sprintf "op %d (%s)" i (show_model_op op) in
          (match op with
          | M_connect ->
            let c = Service.Engine.connect !e in
            Hashtbl.replace clients (Service.Engine.client_id c) c;
            !m.connected <- !m.connected @ [ Service.Engine.client_id c ]
          | M_submit (n, r) ->
            Option.iter
              (fun id ->
                let line =
                  if r < Array.length model_shapes then model_shapes.(r)
                  else if r = 4 then "PING"
                  else "STATS"
                in
                Service.Engine.submit !e (Hashtbl.find clients id) line;
                !m.pending <- !m.pending @ [ (id, r) ])
              (nth_connected n)
          | M_step ->
            let got = Service.Engine.step !e in
            check_responses label got (model_step !m ~inline:false)
          | M_release ->
            release ();
            !m.running <-
              Option.map (fun (k, _) -> (k, true)) !m.running
          | M_disconnect n ->
            Option.iter
              (fun id ->
                Service.Engine.disconnect !e (Hashtbl.find clients id);
                !m.connected <- List.filter (( <> ) id) !m.connected)
              (nth_connected n)
          | M_drain ->
            auto := true;
            release ();
            let got = Service.Engine.drain !e in
            auto := false;
            let mm = !m in
            mm.running <- Option.map (fun (k, _) -> (k, true)) mm.running;
            let rec idle acc =
              let acc = acc @ model_step mm ~inline:true in
              if mm.pending = [] && mm.queued = [] && mm.running = None then acc
              else idle acc
            in
            let want = idle [] in
            mm.draining <- true;
            check_responses label got want
          | M_restart ->
            (* kill -9: a held tune never runs, an unapplied one is lost. *)
            held := None;
            Hashtbl.reset clients;
            e := start ();
            m := fresh_model !m.cached);
          check_state label)
        ops);
  true

let qcheck_engine_model =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (2, Gen.return M_connect);
        (8, Gen.map2 (fun c r -> M_submit (c, r)) (Gen.int_bound 7) (Gen.int_bound 5));
        (4, Gen.return M_step);
        (3, Gen.return M_release);
        (1, Gen.map (fun c -> M_disconnect c) (Gen.int_bound 7));
        (1, Gen.return M_drain);
        (1, Gen.return M_restart);
      ]
  in
  let script = Gen.(list_size (int_range 1 40) op) in
  Test.make ~name:"engine matches its model under a held-tune executor"
    ~count:(if deep then 1000 else 100)
    (make
       ~print:(fun ops -> String.concat " " (List.map show_model_op ops))
       ~shrink:Shrink.list script)
    run_model_script

(* ------------------------------------------------------------------ *)
(* Seeded chaos campaign: scripted clients, injected GPU faults, kill -9,
   file corruption, restart.  The contract, per seed:
   - every emitted line is a typed response;
   - every OK response carries a config valid for its request's space;
   - after the crash + corruption + restart, shapes still present in the
     salvaged cache answer with zero re-tuning (trials=0), and the restart
     runs exactly one tune per shape the salvage lost. *)

let chaos_campaign seed =
  let cache = temp_cache () in
  let journals = temp_dir "service-journals" in
  let rng = Util.Rng.create (1000 + seed) in
  let settings =
    {
      fast with
      seed;
      journal_dir = Some journals;
      max_pending = 2 + Util.Rng.int rng 3;
      faults = (if seed mod 2 = 1 then Some Gpu_sim.Faults.default else None);
    }
  in
  let lines = [| line_a; line_b; line_c |] in
  let requests = Array.map spec_of_line lines in
  (* Phase 1: three clients, randomized interleaving of good requests,
     garbage, PING, a disconnect; ends without drain (kill -9). *)
  let script = ref Service.Sim.[ Connect 0; Connect 1; Connect 2 ] in
  let add e = script := !script @ [ e ] in
  for _ = 1 to 8 + Util.Rng.int rng 8 do
    let client = Util.Rng.int rng 3 in
    match Util.Rng.int rng 6 with
    | 0 -> add (Service.Sim.Send (client, "PING"))
    | 1 -> add (Service.Sim.Send (client, "definitely not a request"))
    | 2 | 3 -> add (Service.Sim.Send (client, lines.(Util.Rng.int rng 3)))
    | 4 -> add Service.Sim.Step
    | _ -> add Service.Sim.Run_until_idle
  done;
  add (Service.Sim.Send (2, lines.(Util.Rng.int rng 3)));
  add (Service.Sim.Disconnect 2);
  add Service.Sim.Run_until_idle;
  let phase1 = run_sim ~settings ~cache !script in
  List.iter
    (fun (_, line) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: typed line %s" seed line)
        true
        (Service.Protocol.is_typed_line line))
    phase1.responses;
  let c1 = counters phase1 in
  (* Coalescing bound: without GPU faults every tuned shape is cached, so
     repeats never re-tune.  (Under faults a breaker-degraded answer is
     deliberately not cached, so a later repeat may legitimately tune
     again.) *)
  if settings.faults = None then
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: at most one tune per distinct shape" seed)
      true
      (c1.tunes_run <= Array.length lines);
  (* kill -9, then the disk takes damage. *)
  for _ = 0 to Util.Rng.int rng 2 do
    ignore (Util.Fs_faults.inject rng cache)
  done;
  (* What did the salvage keep?  (Inspect with an independent load so the
     restart assertions below are exact, not probabilistic.) *)
  let generation = Service.Engine.generation_of_settings settings in
  let salvaged = Service.Result_cache.load ~generation cache in
  let kept r =
    Service.Result_cache.find salvaged
      ~canonical:(Service.Protocol.canonical_of_tune r)
    <> None
  in
  let n_kept = Array.to_list requests |> List.filter kept |> List.length in
  (* Phase 2: restart, one client re-asks every shape, graceful drain.
     Admission bounds are a serving-side knob — raising max_pending across
     the restart must NOT invalidate the cache (same generation). *)
  let settings = { settings with max_pending = Array.length lines } in
  let phase2 =
    run_sim ~settings ~cache
      (Service.Sim.Connect 0
      :: (Array.to_list lines |> List.map (fun l -> Service.Sim.Send (0, l)))
      @ [ Service.Sim.Run_until_idle; Service.Sim.Drain ])
  in
  let c2 = counters phase2 in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: salvaged shapes answer without re-tuning" seed)
    n_kept c2.cache_hits;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: exactly one tune per lost shape" seed)
    (Array.length lines - n_kept)
    c2.tunes_run;
  (* Responses arrive hits-first, then one tune per step — not in request
     order.  Match each response back to its request by content hash. *)
  let by_key =
    Array.to_list requests
    |> List.map (fun r ->
           ( Service.Result_cache.key_of_canonical
               (Service.Protocol.canonical_of_tune r),
             r ))
  in
  let cacheable = ref 0 in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: restart line typed" seed)
        true
        (Service.Protocol.is_typed_line line);
      let p = parse_ok line in
      let r =
        match List.assoc_opt p.Service.Protocol.key by_key with
        | Some r -> r
        | None -> Alcotest.failf "seed %d: unknown key in %s" seed line
      in
      (match p.source with
      | Service.Protocol.Src_cached ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: cache hit was salvaged" seed)
          true (kept r);
        Alcotest.(check int)
          (Printf.sprintf "seed %d: cache hit measured nothing" seed)
          0 p.trials
      | Service.Protocol.Src_tuned | Service.Protocol.Src_replayed ->
        incr cacheable
      | Service.Protocol.Src_degraded -> () (* typed, truthful, not cached *));
      assert_config_valid line r)
    (Service.Sim.transcript_of 0 phase2);
  (* The drain compacted the cache: a final load is clean and holds exactly
     the salvaged entries plus the restart's cacheable tunes. *)
  let final = Service.Result_cache.load ~generation cache in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: drained cache clean" seed)
    0
    (Service.Result_cache.dropped final + Service.Result_cache.stale final);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: drained cache complete" seed)
    (n_kept + !cacheable)
    (Service.Result_cache.entries final);
  cleanup cache;
  rm_rf journals

let test_chaos_campaign () = List.iter chaos_campaign campaign_seeds

(* ------------------------------------------------------------------ *)
(* Semantic-corruption campaign (the audit tentpole): poisoned records
   whose framing CRC is VALID — [Util.Fs_faults.Semantic_flip] mutates the
   payload and re-frames it, the lie [Util.Durable] cannot see.  The
   contract, per seed:
   - the poisoned file still reads [Intact] (the checksum endorses it);
   - the restarted daemon serves ZERO corrupt answers — every answer is
     bit-identical to the honest pre-corruption tune for its key;
   - every poisoned record lands in the quarantine ledger with its typed
     reason, and STATS reports the exact ledger;
   - the shapes the audit condemned fall through to fresh tunes;
   - after the dust settles the file on disk reloads clean and a full
     scrub pass finds nothing further. *)

let semantic_campaign seed =
  let cache = temp_cache () in
  let rng = Util.Rng.create (2000 + seed) in
  let settings = { fast with seed } in
  let generation = Service.Engine.generation_of_settings settings in
  let lines = [| line_a; line_b; line_c |] in
  let ask_all =
    Service.Sim.Connect 0
    :: (Array.to_list lines |> List.map (fun l -> Service.Sim.Send (0, l)))
  in
  (* Phase 1: tune every shape, graceful drain -> compacted snapshot. *)
  let phase1 =
    run_sim ~settings ~cache
      (ask_all @ [ Service.Sim.Run_until_idle; Service.Sim.Drain ])
  in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: every shape tuned live" seed)
    (Array.length lines)
    (counters phase1).tunes_run;
  (* The honest answers, by content key: the ground truth the restart must
     reproduce bit for bit. *)
  let honest =
    List.map
      (fun line ->
        let p = parse_ok line in
        (p.Service.Protocol.key, p))
      (Service.Sim.transcript_of 0 phase1)
  in
  (* Poison >= 10% (here 33-100%) of the entries: flip one bit inside the
     content-key field of [n_corrupt] records and re-frame each with a
     fresh, VALID checksum.  A hex digit can never bit-flip into a field
     separator, so the record still decodes — into a lie only the auditor's
     key = hash(canonical) invariant can catch. *)
  let n_corrupt = 1 + (seed mod Array.length lines) in
  for record = 0 to n_corrupt - 1 do
    let offset = 4 + String.length generation + Util.Rng.int rng 16 in
    let bit = Util.Rng.int rng 8 in
    Util.Fs_faults.apply cache
      (Util.Fs_faults.Semantic_flip { record; offset; bit })
  done;
  (match Util.Durable.read ~kind:"service-cache" cache with
  | Util.Durable.Intact payloads ->
    Alcotest.(check int)
      (Printf.sprintf "seed %d: the CRC blesses the poisoned file" seed)
      (Array.length lines) (List.length payloads)
  | _ ->
    Alcotest.failf "seed %d: semantic corruption tripped the framing CRC" seed);
  (* Phase 2: warm restart with auditing on (the default), re-ask every
     shape, then pull STATS. *)
  let phase2 =
    run_sim ~settings ~cache
      (ask_all
      @ [
          Service.Sim.Run_until_idle;
          Service.Sim.Send (0, "STATS");
          Service.Sim.Run_until_idle;
          Service.Sim.Drain;
        ])
  in
  let c2 = counters phase2 in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: surviving shapes answer from cache" seed)
    (Array.length lines - n_corrupt)
    c2.cache_hits;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: one fresh tune per poisoned shape" seed)
    n_corrupt c2.tunes_run;
  let answers, stats_line =
    match List.rev (Service.Sim.transcript_of 0 phase2) with
    | stats :: rev_answers -> (List.rev rev_answers, stats)
    | [] -> Alcotest.failf "seed %d: empty restart transcript" seed
  in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: every shape answered" seed)
    (Array.length lines) (List.length answers);
  (* Zero corrupt answers: whether it hit or re-tuned, every served line is
     bit-identical to the honest pre-corruption result for its key. *)
  List.iter
    (fun line ->
      let p = parse_ok line in
      let h =
        match List.assoc_opt p.Service.Protocol.key honest with
        | Some h -> h
        | None -> Alcotest.failf "seed %d: unknown key in %s" seed line
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: runtime matches the honest tune" seed)
        true
        (p.Service.Protocol.runtime_us = h.Service.Protocol.runtime_us);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: config matches the honest tune" seed)
        (Core.Config.to_compact h.Service.Protocol.config)
        (Core.Config.to_compact p.Service.Protocol.config))
    answers;
  (* The ledger holds exactly the poisoned records, each with the typed
     reason the key invariant produces. *)
  let ledger = Service.Quarantine.read (Service.Quarantine.path_for cache) in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: exact quarantine ledger" seed)
    n_corrupt (List.length ledger);
  List.iter
    (fun (r : Service.Quarantine.record) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: typed quarantine reason" seed)
        "key-mismatch" r.reason)
    ledger;
  (* STATS exposes the same ledger (and the reply round-trips). *)
  (match Service.Protocol.parse_response stats_line with
  | Some (Service.Protocol.Stats_reply kvs as resp) ->
    Alcotest.(check string)
      (Printf.sprintf "seed %d: stats reply round-trips" seed)
      stats_line
      (Service.Protocol.render_response resp);
    Alcotest.(check (option string))
      (Printf.sprintf "seed %d: stats count the quarantined records" seed)
      (Some (string_of_int n_corrupt))
      (List.assoc_opt "quarantined" kvs);
    Alcotest.(check (option string))
      (Printf.sprintf "seed %d: no post-tune rejects" seed)
      (Some "0")
      (List.assoc_opt "audit_rejected" kvs);
    let audited =
      match Option.bind (List.assoc_opt "audited" kvs) int_of_string_opt with
      | Some n -> n
      | None -> Alcotest.failf "seed %d: STATS lacks audited: %s" seed stats_line
    in
    (* Load admits 3 - n_corrupt live records (each audited), every hit
       re-audits, and every fresh tune is audited before caching. *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: audits at every trust boundary" seed)
      true
      (audited >= (2 * (Array.length lines - n_corrupt)) + n_corrupt)
  | _ -> Alcotest.failf "seed %d: expected STATS, got %s" seed stats_line);
  (* The daemon healed the cache: a fresh audited load is clean and at full
     strength, and a full scrub pass condemns nothing further, leaving an
     [Intact] snapshot on disk. *)
  let final = Service.Result_cache.load ~audit:true ~generation cache in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: cache healed to full strength" seed)
    (Array.length lines)
    (Service.Result_cache.entries final);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: nothing further quarantined" seed)
    0
    (Service.Result_cache.quarantined final);
  let report = Service.Result_cache.scrub final in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: scrub examined everything" seed)
    (Array.length lines)
    report.Service.Result_cache.examined;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: scrub pass finds nothing" seed)
    0 report.Service.Result_cache.quarantined;
  (match Util.Durable.read ~kind:"service-cache" cache with
  | Util.Durable.Intact _ -> ()
  | _ -> Alcotest.failf "seed %d: post-scrub file not Intact" seed);
  cleanup (Service.Quarantine.path_for cache);
  cleanup cache

let test_semantic_campaign () = List.iter semantic_campaign campaign_seeds

(* The background scrubber: a daemon whose operator disabled load/hit
   auditing still sweeps its cache one entry per tick, condemns a poisoned
   record mid-flight, and the next request for that shape tunes fresh
   instead of serving the lie. *)
let test_background_scrub () =
  let cache = temp_cache () in
  let settings = { fast with audit = false } in
  let generation = Service.Engine.generation_of_settings settings in
  let first =
    run_sim ~settings ~cache
      Service.Sim.
        [ Connect 1; Send (1, line_a); Send (1, line_b); Run_until_idle; Drain ]
  in
  Alcotest.(check int) "two honest tunes" 2 (counters first).tunes_run;
  let honest =
    (parse_ok (List.hd (Service.Sim.transcript_of 1 first)))
      .Service.Protocol.runtime_us
  in
  (* Poison line_a's record in place: same key, runtime inflated 8x.  The
     un-audited load admits it without complaint. *)
  let plain = Service.Result_cache.load ~generation cache in
  let canonical = Service.Protocol.canonical_of_tune (spec_of_line line_a) in
  (match Service.Result_cache.find plain ~canonical with
  | Some e ->
    Service.Result_cache.put plain
      { e with Service.Result_cache.runtime_us = e.runtime_us *. 8.0 }
  | None -> Alcotest.fail "tuned entry missing from the drained cache");
  let second =
    run_sim
      ~settings:{ settings with scrub_per_step = 1 }
      ~cache
      Service.Sim.[ Connect 1; Step; Step; Send (1, line_a); Run_until_idle ]
  in
  let c = counters second in
  Alcotest.(check int) "poisoned shape re-tuned" 1 c.tunes_run;
  Alcotest.(check int) "the lie never served" 0 c.cache_hits;
  let sc = Service.Engine.cache second.engine in
  Alcotest.(check bool) "sweep covered the cache" true
    (Service.Result_cache.scrubbed sc >= 2);
  Alcotest.(check int) "one record condemned" 1
    (Service.Result_cache.quarantined sc);
  (match Service.Quarantine.read (Service.Result_cache.quarantine_path sc) with
  | [ r ] ->
    Alcotest.(check bool) "typed runtime reason" true
      (String.split_on_char ',' r.Service.Quarantine.reason
      |> List.mem "runtime-implausible")
  | l -> Alcotest.failf "expected one ledger record, got %d" (List.length l));
  let p = parse_ok (List.hd (Service.Sim.transcript_of 1 second)) in
  Alcotest.(check string) "fresh live tune" "tuned"
    (Service.Protocol.source_to_string p.source);
  Alcotest.(check bool) "honest runtime restored" true
    (p.Service.Protocol.runtime_us = honest);
  cleanup (Service.Result_cache.quarantine_path sc);
  cleanup cache

(* ------------------------------------------------------------------ *)
(* Real socket smoke: the daemon in a spawned domain, live Unix-domain
   socket, idle deadline, stop/drain, warm restart.  The select loop runs
   on a domain of its own and tunes run off it, which only this path
   exercises. *)

let connect_client socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec attempt tries =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.05;
      attempt (tries - 1)
  in
  attempt 100;
  fd

let send_line fd line =
  let msg = line ^ "\n" in
  ignore (Unix.write_substring fd msg 0 (String.length msg))

let read_line_fd fd =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Alcotest.fail "daemon closed the connection before answering"
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
  in
  go ()

let test_socket_daemon () =
  let dir = temp_dir "service-socket" in
  let socket = Filename.concat dir "tuned.sock" in
  let cache = Filename.concat dir "cache.durable" in
  let start () =
    let stop = Atomic.make false in
    let daemon =
      Domain.spawn (fun () ->
          Service.Daemon.serve ~socket ~cache ~settings:fast ~stop
            ~read_deadline_s:1.0 ~install_signal_handlers:false ())
    in
    (stop, daemon)
  in
  let stop, daemon = start () in
  let fd = connect_client socket in
  send_line fd "PING";
  Alcotest.(check string) "ping" "PONG" (read_line_fd fd);
  send_line fd line_a;
  let first = parse_ok (read_line_fd fd) in
  Alcotest.(check string) "live tune over the wire" "tuned"
    (Service.Protocol.source_to_string first.source);
  (* A second connection shares the cache. *)
  let fd2 = connect_client socket in
  send_line fd2 line_a;
  let hit = parse_ok (read_line_fd fd2) in
  Alcotest.(check string) "second client hits the cache" "cached"
    (Service.Protocol.source_to_string hit.source);
  Unix.close fd2;
  (* Malformed wire input earns a typed line, not a dead daemon. *)
  send_line fd "TUNE cin=banana";
  (match Service.Protocol.parse_response (read_line_fd fd) with
  | Some (Service.Protocol.Error (Service.Protocol.Parse _)) -> ()
  | _ -> Alcotest.fail "expected ERR parse over the wire");
  (* An idle connection trips the read deadline. *)
  let idle = connect_client socket in
  (match Service.Protocol.parse_response (read_line_fd idle) with
  | Some (Service.Protocol.Error Service.Protocol.Timeout) -> ()
  | _ -> Alcotest.fail "expected ERR timeout for the idle connection");
  Unix.close idle;
  Unix.close fd;
  (* SIGTERM-equivalent: stop, drain, return the engine for health. *)
  Atomic.set stop true;
  let engine = Domain.join daemon in
  Alcotest.(check int) "daemon ran one tune" 1
    (Service.Engine.counters engine).tunes_run;
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists socket);
  (* Warm restart: the drained cache answers without tuning. *)
  let stop2, daemon2 = start () in
  let fd3 = connect_client socket in
  send_line fd3 line_a;
  let warm = parse_ok (read_line_fd fd3) in
  Alcotest.(check string) "restarted daemon serves from disk" "cached"
    (Service.Protocol.source_to_string warm.source);
  Alcotest.(check int) "zero trials after restart" 0 warm.trials;
  Unix.close fd3;
  Atomic.set stop2 true;
  let engine2 = Domain.join daemon2 in
  Alcotest.(check int) "restart tuned nothing" 0
    (Service.Engine.counters engine2).tunes_run

(* A tune long enough (about 0.3s at 120 trials) that a client can do
   several round trips while it runs. *)
let line_slow = "TUNE cin=64 cout=64 size=56 k=3 pad=1 arch=v100"

(* The idle deadline spares a client still owed an answer.  The clock is
   stepped past the deadline while the tune runs: the connection waiting on
   it gets its tuned answer, and a truly idle one still times out. *)
let test_idle_deadline_spares_waiting_client () =
  let dir = temp_dir "service-owed" in
  let socket = Filename.concat dir "tuned.sock" in
  let now = Atomic.make 0.0 in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Service.Daemon.serve ~socket ~cache:(Filename.concat dir "cache")
          ~settings:{ fast with budget_trials = 120 }
          ~stop ~read_deadline_s:1.0
          ~clock:(fun () -> Atomic.get now)
          ~install_signal_handlers:false ())
  in
  let waiting = connect_client socket in
  send_line waiting line_slow;
  let idle = connect_client socket in
  send_line idle "PING";
  Alcotest.(check string) "idle client registered" "PONG" (read_line_fd idle);
  Atomic.set now 10.0;
  (* Any activity wakes the loop, which then enforces the deadlines. *)
  let waker = connect_client socket in
  send_line waker "PING";
  Alcotest.(check string) "loop awake" "PONG" (read_line_fd waker);
  (match Service.Protocol.parse_response (read_line_fd idle) with
  | Some (Service.Protocol.Error Service.Protocol.Timeout) -> ()
  | _ -> Alcotest.fail "expected ERR timeout for the idle connection");
  let p = parse_ok (read_line_fd waiting) in
  Alcotest.(check string) "the waiting client gets its tune" "tuned"
    (Service.Protocol.source_to_string p.source);
  List.iter Unix.close [ waiting; idle; waker ];
  Atomic.set stop true;
  ignore (Domain.join daemon);
  rm_rf dir

(* --- arch alias mapping: how the wire (and the gold fleet) addresses GPUs --- *)

let test_alias_known_names () =
  List.iter
    (fun (alias, (arch : Gpu_sim.Arch.t)) ->
      Alcotest.(check string) ("alias of " ^ arch.name) alias
        (Service.Protocol.alias_of_arch arch);
      match Service.Protocol.arch_of_alias alias with
      | Some a -> Alcotest.(check string) ("arch of " ^ alias) arch.name a.Gpu_sim.Arch.name
      | None -> Alcotest.failf "alias %s unmapped" alias)
    [
      ("1080ti", Gpu_sim.Arch.gtx_1080_ti);
      ("v100", Gpu_sim.Arch.v100);
      ("titanx", Gpu_sim.Arch.titan_x);
      ("gfx906", Gpu_sim.Arch.gfx906);
    ];
  Alcotest.(check bool) "case-insensitive" true
    (Service.Protocol.arch_of_alias "V100" = Some Gpu_sim.Arch.v100);
  Alcotest.(check bool) "unknown alias rejected" true
    (Service.Protocol.arch_of_alias "tpu" = None)

let test_alias_distinct () =
  let aliases = List.map Service.Protocol.alias_of_arch Gpu_sim.Arch.all in
  Alcotest.(check int) "aliases pairwise distinct"
    (List.length Gpu_sim.Arch.all)
    (List.length (List.sort_uniq compare aliases))

(* Totality + injectivity over [Arch.all], and the wire-format constraint
   (non-empty lowercase alphanumerics): together with [test_alias_distinct]
   this is the bijection the protocol doc promises — no preset can silently
   become unaddressable from the wire or the gold fleet. *)
(* Satellite of the wire-chaos PR: render/parse round-trip over EVERY
   response constructor with generated payloads, not just the handful of
   deterministic cases above.  The property is idempotence of one
   normalization pass: render, parse, re-render reproduces the line byte
   for byte.  Messages are generated pre-normalized (single-space-separated
   lowercase words, possibly empty) because the line format cannot
   represent other whitespace — that lossiness is deliberate and tested by
   [test_parse_rejects_malformed]'s control-character case. *)
let qcheck_response_roundtrip =
  let config_pool =
    List.map
      (fun line ->
        let r = spec_of_line line in
        let space =
          Core.Search_space.make ~pruned:r.pruned r.arch r.spec r.algorithm
        in
        fst (Core.Supervisor.analytic_best space))
      [ line_a; line_b; line_c ]
  in
  let open QCheck in
  let word =
    Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 8)
  in
  let message =
    Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 0 4) word)
  in
  let payload =
    Gen.map
      (fun ((canon, config), (runtime_us, gflops), (source, trials)) ->
        {
          Service.Protocol.key = Service.Result_cache.key_of_canonical canon;
          source;
          runtime_us;
          gflops;
          trials;
          config;
        })
      (Gen.triple
         (Gen.pair word (Gen.oneofl config_pool))
         (Gen.pair
            (Gen.float_bound_inclusive 1e7)
            (Gen.float_bound_inclusive 1e4))
         (Gen.pair
            (Gen.oneofl
               [
                 Service.Protocol.Src_tuned;
                 Service.Protocol.Src_replayed;
                 Service.Protocol.Src_degraded;
                 Service.Protocol.Src_cached;
               ])
            (Gen.int_range 0 100_000)))
  in
  let stats =
    Gen.list_size (Gen.int_range 0 6) (Gen.pair word word)
  in
  let response =
    Gen.oneof
      [
        Gen.map (fun p -> Service.Protocol.Result p) payload;
        Gen.map
          (fun n -> Service.Protocol.Busy { retry_after_s = n })
          (Gen.int_range 0 3600);
        Gen.return Service.Protocol.Pong;
        Gen.map (fun kvs -> Service.Protocol.Stats_reply kvs) stats;
        Gen.map (fun m -> Service.Protocol.Error (Service.Protocol.Parse m)) message;
        Gen.map (fun m -> Service.Protocol.Error (Service.Protocol.Domain m)) message;
        Gen.map (fun m -> Service.Protocol.Error (Service.Protocol.Failed m)) message;
        Gen.return (Service.Protocol.Error Service.Protocol.Draining);
        Gen.return (Service.Protocol.Error Service.Protocol.Timeout);
        Gen.return (Service.Protocol.Error Service.Protocol.Deadline);
      ]
  in
  Test.make ~name:"every response constructor round-trips" ~count:500
    (make response) (fun resp ->
      let line = Service.Protocol.render_response resp in
      Service.Protocol.is_typed_line line
      &&
      match Service.Protocol.parse_response line with
      | Some resp' -> String.equal line (Service.Protocol.render_response resp')
      | None -> false)

let qcheck_alias_bijection =
  QCheck.Test.make ~name:"arch alias round-trips over Arch.all" ~count:200
    (QCheck.make (QCheck.Gen.oneofl Gpu_sim.Arch.all))
    (fun a ->
      let alias = Service.Protocol.alias_of_arch a in
      alias <> ""
      && String.for_all (function 'a' .. 'z' | '0' .. '9' -> true | _ -> false) alias
      && (match Service.Protocol.arch_of_alias alias with
         | Some b -> b.Gpu_sim.Arch.name = a.Gpu_sim.Arch.name
         | None -> false))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip + canonical addressing" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_parse_rejects_malformed;
          Alcotest.test_case "unknown fields ignored (forward compat)" `Quick
            test_parse_ignores_unknown_fields;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
          Alcotest.test_case "arch aliases map both ways" `Quick test_alias_known_names;
          Alcotest.test_case "arch aliases distinct" `Quick test_alias_distinct;
          QCheck_alcotest.to_alcotest qcheck_alias_bijection;
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip persists across reload" `Quick
            test_cache_roundtrip_persists;
          Alcotest.test_case "generation change invalidates" `Quick
            test_cache_generation_invalidation;
          Alcotest.test_case "forged keys ignored" `Quick test_cache_rejects_forged_key;
          Alcotest.test_case "corruption salvages, never lies" `Quick
            test_cache_corruption_salvage;
          Alcotest.test_case "audited put refuses a suspect entry" `Quick
            test_cache_audited_put_refuses_suspect;
        ] );
      ( "engine",
        [
          Alcotest.test_case "tune then cached" `Quick test_tune_then_cached;
          Alcotest.test_case "identical requests coalesce to one tune" `Quick
            test_identical_requests_coalesce;
          Alcotest.test_case "admission control answers BUSY" `Quick
            test_admission_control_busy;
          Alcotest.test_case "disconnect still tunes and caches" `Quick
            test_disconnect_still_tunes_and_caches;
          Alcotest.test_case "drain finishes then rejects" `Quick
            test_drain_finishes_then_rejects;
          Alcotest.test_case "ping/stats/parse errors typed" `Quick
            test_protocol_lines_through_engine;
          Alcotest.test_case "scripted runs deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "degraded answers served, not cached" `Quick
            test_degraded_not_cached;
          Alcotest.test_case "empty domains answer ERR domain" `Quick
            test_domain_error_typed;
          Alcotest.test_case "journals named by tune identity" `Quick
            test_journal_named_by_identity;
          QCheck_alcotest.to_alcotest qcheck_engine_model;
        ] );
      ( "crash",
        [
          Alcotest.test_case "kill -9 + corruption + warm restart" `Quick
            test_kill9_corrupt_restart_warm;
          Alcotest.test_case "settings change invalidates cache" `Quick
            test_settings_change_invalidates_cache;
          Alcotest.test_case "seeded chaos campaign" `Quick test_chaos_campaign;
        ] );
      ( "audit",
        [
          Alcotest.test_case "semantic poison campaign" `Quick
            test_semantic_campaign;
          Alcotest.test_case "background scrubber evicts poison" `Quick
            test_background_scrub;
        ] );
      ( "socket",
        [
          Alcotest.test_case "live daemon smoke" `Quick test_socket_daemon;
          Alcotest.test_case "idle deadline spares a client owed a tune" `Quick
            test_idle_deadline_spares_waiting_client;
        ] );
    ]
