(* Wire-level chaos suite — backs the [@net-smoke] dune alias.

   The last failure domain: the byte stream between client and daemon.
   Three layers under test, separately and then together:

   - Service.Net_faults: the seed-driven byte-stream fault injector
     (splits, garbage, truncation, resets, dribble, duplicates) — pure in
     (profile, seed, conn, payload), so everything here replays;
   - Service.Client: the resilient typed client — per-attempt timeouts,
     capped seeded-jitter backoff, BUSY retry-after honored, total
     deadline propagated as deadline-ms, idempotent retries that reject
     wrong-key answers;
   - Service.Daemon hardening: request-line caps, the slow-loris request
     deadline, bounded write buffers with partial-write continuation, and
     accept-time BUSY load shedding at the connection ceiling.

   The finale is the live-socket chaos campaign: N concurrent faulty
   clients at a 30% fault rate through a kill -9 and restart of the
   daemon, with gold-matched answers, exact warm-phase hit/tune ledger
   accounting, a salvaged cache, and a byte-for-byte reproducible
   transcript.  NET_DEEP=1 widens the sweep to 16 seeds. *)

let deep = Sys.getenv_opt "NET_DEEP" <> None
let campaign_seeds = List.init (if deep then 16 else 1) (fun i -> i)

(* Salvage warnings from deliberately corrupted caches are expected noise;
   EPIPE from deliberately cut connections must not kill the runner. *)
let () = Util.Log.set_quiet true
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let temp_cache () =
  let path = Filename.temp_file "net" ".cache" in
  Sys.remove path;
  path

let fast =
  { Service.Engine.default_settings with budget_trials = 16; max_pending = 16 }

let spec_of_line line =
  match Service.Protocol.parse_request line with
  | Ok (Service.Protocol.Tune r) -> r
  | _ -> Alcotest.failf "helper line does not parse: %s" line

let parse_ok line =
  match Service.Protocol.parse_response line with
  | Some (Service.Protocol.Result p) -> p
  | _ -> Alcotest.failf "expected an OK response, got: %s" line

let clean_client =
  (* Faultless client used for readiness polling and warm phases. *)
  {
    Service.Client.default_settings with
    max_attempts = 100;
    attempt_timeout_ms = 1000;
    backoff_base_ms = 10;
    backoff_cap_ms = 50;
  }

let wait_ready socket =
  match Service.Client.ask_raw ~settings:clean_client ~socket "PING" with
  | Ok Service.Protocol.Pong, _ -> ()
  | _ -> Alcotest.fail "daemon did not become ready"

(* ------------------------------------------------------------------ *)
(* Net_faults: purity, delivery invariants, executor. *)

let concat_sends ops =
  let buf = Buffer.create 64 in
  let rec go = function
    | [] -> Buffer.contents buf
    | Service.Net_faults.Send s :: rest ->
      Buffer.add_string buf s;
      go rest
    | Service.Net_faults.Pause_ms _ :: rest -> go rest
    | Service.Net_faults.Close :: _ -> Buffer.contents buf
  in
  go ops

let test_faults_pure () =
  let line = "TUNE cin=4 size=8 cout=4 k=3" in
  let profile = Service.Net_faults.default in
  for seed = 0 to 20 do
    for conn = 0 to 5 do
      let p1 = Service.Net_faults.plan profile ~seed ~conn line in
      let p2 = Service.Net_faults.plan profile ~seed ~conn line in
      Alcotest.(check bool) "plans replay bit-identically" true (p1 = p2)
    done
  done;
  (* Different connections diverge (the whole point of the conn id). *)
  let distinct =
    List.init 64 (fun conn ->
        Service.Net_faults.plan profile ~seed:7 ~conn line)
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "plans vary across connections" true (distinct > 10)

(* The delivery contract per fault kind, swept over many (seed, conn):
   no-fault and Dribble deliver the payload exactly; Duplicate exactly
   twice; Garbage delivers a newline-terminated corruption; Truncate and
   Reset close, Truncate strictly short of the newline. *)
let test_faults_delivery_contract () =
  let line = "TUNE cin=8 size=8 cout=4 k=1 arch=v100" in
  let payload = line ^ "\n" in
  let profile = Service.Net_faults.default in
  for seed = 0 to 40 do
    for conn = 0 to 7 do
      let fault = Service.Net_faults.fault_of profile ~seed ~conn in
      let ops = Service.Net_faults.plan profile ~seed ~conn line in
      let sent = concat_sends ops in
      let delivers = Service.Net_faults.delivers ops in
      match fault with
      | None | Some Service.Net_faults.Dribble ->
        Alcotest.(check bool) "delivers" true delivers;
        Alcotest.(check string) "payload intact" payload sent
      | Some Service.Net_faults.Duplicate ->
        Alcotest.(check bool) "delivers" true delivers;
        Alcotest.(check string) "payload exactly twice" (payload ^ payload) sent
      | Some Service.Net_faults.Garbage ->
        Alcotest.(check bool) "delivers" true delivers;
        Alcotest.(check bool) "corrupted but framed" true
          (String.length sent > String.length payload
          && sent.[String.length sent - 1] = '\n'
          && sent <> payload)
      | Some Service.Net_faults.Truncate ->
        Alcotest.(check bool) "closes" false delivers;
        Alcotest.(check bool) "strict prefix, newline never arrives" true
          (String.length sent < String.length line
          && sent = String.sub payload 0 (String.length sent))
      | Some Service.Net_faults.Reset ->
        Alcotest.(check bool) "closes" false delivers;
        Alcotest.(check string) "full payload before the cut" payload sent
    done
  done

let test_faults_apply () =
  let line = "PING" in
  let profile = Service.Net_faults.only [ Service.Net_faults.Reset ] in
  let ops = Service.Net_faults.plan profile ~seed:3 ~conn:0 line in
  let buf = Buffer.create 16 in
  let closes = ref 0 in
  let status =
    Service.Net_faults.apply ~sleep_ms:ignore
      ~write:(Buffer.add_string buf)
      ~close:(fun () -> incr closes)
      ops
  in
  Alcotest.(check bool) "reset plan reports closed" true (status = `Closed);
  Alcotest.(check int) "close called exactly once" 1 !closes;
  Alcotest.(check string) "writes ran up to the close" (concat_sends ops)
    (Buffer.contents buf);
  (* A clean profile delivers and never closes. *)
  let ops = Service.Net_faults.plan Service.Net_faults.none ~seed:3 ~conn:0 line in
  let buf = Buffer.create 16 in
  let status =
    Service.Net_faults.apply ~sleep_ms:ignore
      ~write:(Buffer.add_string buf)
      ~close:(fun () -> Alcotest.fail "clean plan closed")
      ops
  in
  Alcotest.(check bool) "clean plan delivers" true (status = `Delivered);
  Alcotest.(check string) "clean payload intact" (line ^ "\n") (Buffer.contents buf)

let qcheck_faults_exact_framing =
  QCheck.Test.make ~name:"deliverable plans reassemble the payload exactly"
    ~count:(if deep then 500 else 150)
    QCheck.(triple small_nat small_nat (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 60) QCheck.Gen.printable))
    (fun (seed, conn, line) ->
      QCheck.assume (not (String.contains line '\n'));
      let payload = line ^ "\n" in
      let ops = Service.Net_faults.plan Service.Net_faults.default ~seed ~conn line in
      let sent = concat_sends ops in
      match Service.Net_faults.fault_of Service.Net_faults.default ~seed ~conn with
      | None | Some Service.Net_faults.Dribble -> String.equal sent payload
      | Some Service.Net_faults.Duplicate -> String.equal sent (payload ^ payload)
      | Some Service.Net_faults.Reset -> String.equal sent payload
      | Some Service.Net_faults.Truncate ->
        String.length sent < String.length payload
        && String.equal sent (String.sub payload 0 (String.length sent))
      | Some Service.Net_faults.Garbage ->
        String.length sent >= String.length payload
        && sent.[String.length sent - 1] = '\n')

(* ------------------------------------------------------------------ *)
(* Outbuf: bounded buffering, partial-write continuation, no interleave. *)

let test_outbuf_bounds () =
  let out = Service.Daemon.Outbuf.create ~max_bytes:16 in
  Alcotest.(check bool) "fits" true
    (Service.Daemon.Outbuf.enqueue out "0123456789" = `Ok);
  Alcotest.(check bool) "overflow refused, nothing buffered" true
    (Service.Daemon.Outbuf.enqueue out "0123456789" = `Overflow);
  Alcotest.(check int) "pending unchanged by refused enqueue" 10
    (Service.Daemon.Outbuf.pending out)

(* The partial-write core: a small kernel send buffer forces `Pending
   mid-response; continuation steps complete the stream, and because lines
   are enqueued atomically the receiver sees every response contiguous —
   never two responses interleaved. *)
let test_outbuf_partial_write_continuation () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let out = Service.Daemon.Outbuf.create ~max_bytes:(1 lsl 20) in
  let line n = Printf.sprintf "RESP %04d %s\n" n (String.make 200 'x') in
  let total = 200 in
  for n = 0 to total - 1 do
    match Service.Daemon.Outbuf.enqueue out (line n) with
    | `Ok -> ()
    | `Overflow -> Alcotest.fail "unexpected overflow"
  done;
  let received = Buffer.create (total * 210) in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read b chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes received chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let saw_pending = ref false in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "flush did not converge";
    match Service.Daemon.Outbuf.flush out a with
    | `Closed -> Alcotest.fail "peer closed unexpectedly"
    | `Done -> drain ()
    | `Pending ->
      saw_pending := true;
      drain ();
      pump (guard - 1)
  in
  pump 10_000;
  Alcotest.(check bool) "kernel pushed back at least once" true !saw_pending;
  let expected = String.concat "" (List.init total line) in
  Alcotest.(check int) "every byte arrived" (String.length expected)
    (String.length (Buffer.contents received));
  Alcotest.(check bool) "responses contiguous and in order" true
    (String.equal expected (Buffer.contents received));
  Unix.close a;
  Unix.close b

let test_outbuf_peer_vanished () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.close b;
  let out = Service.Daemon.Outbuf.create ~max_bytes:1024 in
  ignore (Service.Daemon.Outbuf.enqueue out "PONG\n");
  Alcotest.(check bool) "flush to a vanished peer reports closed" true
    (Service.Daemon.Outbuf.flush out a = `Closed);
  Unix.close a

(* ------------------------------------------------------------------ *)
(* Daemon hardening, against a live socket. *)

let start_daemon ?settings:(s = fast) ?(read_deadline_s = 30.0)
    ?(request_deadline_s = 10.0) ?(max_conns = 64) ~socket ~cache () =
  let stop = Atomic.make false in
  let hard_stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Service.Daemon.serve ~socket ~cache ~settings:s ~stop ~hard_stop
          ~read_deadline_s ~request_deadline_s ~max_conns
          ~install_signal_handlers:false ())
  in
  (stop, hard_stop, d)

let connect_raw socket =
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

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_line_fd fd =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Alcotest.failf "daemon closed before answering (got %S)" (Buffer.contents buf)
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
  in
  go ()

let expect_eof fd =
  let byte = Bytes.create 1 in
  match Unix.read fd byte 0 1 with
  | 0 -> ()
  | _ -> Alcotest.fail "expected the daemon to close the connection"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()

let test_daemon_oversized_line () =
  let dir = temp_dir "net-oversize" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d = start_daemon ~socket ~cache:(Filename.concat dir "c") () in
  wait_ready socket;
  let fd = connect_raw socket in
  (* An unterminated line past the protocol cap: typed ERR parse, close. *)
  send_raw fd (String.make (Service.Protocol.max_line_bytes + 1000) 'x');
  (match Service.Protocol.parse_response (read_line_fd fd) with
  | Some (Service.Protocol.Error (Service.Protocol.Parse _)) -> ()
  | _ -> Alcotest.fail "expected ERR parse for the oversized line");
  expect_eof fd;
  Unix.close fd;
  (* The daemon survived. *)
  let fd2 = connect_raw socket in
  send_raw fd2 "PING\n";
  Alcotest.(check string) "daemon alive after the flood" "PONG" (read_line_fd fd2);
  Unix.close fd2;
  Atomic.set stop true;
  ignore (Domain.join d)

let test_daemon_slow_loris () =
  let dir = temp_dir "net-loris" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d =
    start_daemon ~request_deadline_s:0.2 ~socket ~cache:(Filename.concat dir "c") ()
  in
  wait_ready socket;
  let fd = connect_raw socket in
  (* Dribble a request one byte at a time, never completing the line.
     Fresh bytes must NOT reset the request deadline. *)
  send_raw fd "T";
  (* The daemon may close us mid-dribble once the deadline fires; the
     timeout line it wrote first stays readable from the socket buffer. *)
  (try
     for _ = 1 to 10 do
       Unix.sleepf 0.06;
       send_raw fd "U"
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (match Service.Protocol.parse_response (read_line_fd fd) with
  | Some (Service.Protocol.Error Service.Protocol.Timeout) -> ()
  | _ -> Alcotest.fail "expected ERR timeout for the slow-loris client");
  expect_eof fd;
  Unix.close fd;
  Atomic.set stop true;
  ignore (Domain.join d)

let test_daemon_connection_ceiling () =
  let dir = temp_dir "net-ceiling" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d =
    start_daemon ~max_conns:2 ~socket ~cache:(Filename.concat dir "c") ()
  in
  wait_ready socket;
  let fd1 = connect_raw socket in
  send_raw fd1 "PING\n";
  Alcotest.(check string) "conn 1 served" "PONG" (read_line_fd fd1);
  let fd2 = connect_raw socket in
  send_raw fd2 "PING\n";
  Alcotest.(check string) "conn 2 served" "PONG" (read_line_fd fd2);
  (* Past the ceiling: BUSY at accept, then close — load is shed before the
     backlog grows. *)
  let fd3 = connect_raw socket in
  (match Service.Protocol.parse_response (read_line_fd fd3) with
  | Some (Service.Protocol.Busy { retry_after_s }) ->
    Alcotest.(check bool) "retry hint positive" true (retry_after_s > 0)
  | _ -> Alcotest.fail "expected BUSY at the connection ceiling");
  expect_eof fd3;
  Unix.close fd3;
  (* Freeing a slot restores service. *)
  Unix.close fd1;
  Unix.sleepf 0.3;
  let fd4 = connect_raw socket in
  send_raw fd4 "PING\n";
  Alcotest.(check string) "slot freed, served again" "PONG" (read_line_fd fd4);
  Unix.close fd4;
  Unix.close fd2;
  Atomic.set stop true;
  let engine = Domain.join d in
  Alcotest.(check bool) "shed counted in busy_rejected" true
    ((Service.Engine.counters engine).busy_rejected >= 1)

let test_daemon_binary_garbage () =
  let dir = temp_dir "net-garbage" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d = start_daemon ~socket ~cache:(Filename.concat dir "c") () in
  wait_ready socket;
  let fd = connect_raw socket in
  let rng = Util.Rng.create 11 in
  for _ = 1 to 5 do
    let junk =
      String.init 40 (fun _ ->
          (* any byte except the line terminator *)
          match Char.chr (Util.Rng.int rng 256) with '\n' -> '?' | c -> c)
    in
    send_raw fd (junk ^ "\n");
    let reply = read_line_fd fd in
    Alcotest.(check bool) ("typed reply to garbage: " ^ String.escaped reply) true
      (Service.Protocol.is_typed_line reply)
  done;
  send_raw fd "PING\n";
  Alcotest.(check string) "still serving after garbage" "PONG" (read_line_fd fd);
  Unix.close fd;
  Atomic.set stop true;
  ignore (Domain.join d)

(* A pipelined burst answered while the client reads nothing: responses are
   buffered, continued across select iterations, and arrive whole and in
   order — the live half of the partial-write story. *)
(* Tunes run off the serving loop.  While one runs, STATS and a cached
   shape answer on other connections, STATS shows the running gauge, and
   the tune's own client is answered afterwards.  The tune (about 0.3s at
   120 trials) outlasts the few round trips made meanwhile by far. *)
let test_daemon_answers_during_tune () =
  let dir = temp_dir "net-offloop" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d =
    start_daemon ~settings:{ fast with budget_trials = 120 } ~socket
      ~cache:(Filename.concat dir "c") ()
  in
  wait_ready socket;
  let ask line =
    let fd = connect_raw socket in
    send_raw fd (line ^ "\n");
    let reply = read_line_fd fd in
    Unix.close fd;
    reply
  in
  let cached = "TUNE cin=4 size=8 cout=4 k=3" in
  ignore (parse_ok (ask cached));
  let tuning = connect_raw socket in
  (* The PONG comes from the round that launched the tune. *)
  send_raw tuning "TUNE cin=64 cout=64 size=56 k=3 pad=1 arch=v100\nPING\n";
  Alcotest.(check string) "ping behind the tune" "PONG" (read_line_fd tuning);
  (match Service.Protocol.parse_response (ask "STATS") with
  | Some (Service.Protocol.Stats_reply kvs) ->
    Alcotest.(check (option string)) "a tune is running" (Some "1")
      (List.assoc_opt "running" kvs);
    Alcotest.(check (option string)) "none queued" (Some "0")
      (List.assoc_opt "queued" kvs)
  | _ -> Alcotest.fail "expected a STATS reply");
  let hit = parse_ok (ask cached) in
  Alcotest.(check int) "cached shape answered mid-tune" 0 hit.Service.Protocol.trials;
  (match Unix.select [ tuning ] [] [] 0.0 with
  | [], _, _ -> ()
  | _ -> Alcotest.fail "the tune was answered before STATS and the hit");
  let tuned = parse_ok (read_line_fd tuning) in
  Alcotest.(check string) "the tune answers afterwards" "tuned"
    (Service.Protocol.source_to_string tuned.Service.Protocol.source);
  Unix.close tuning;
  Atomic.set stop true;
  ignore (Domain.join d)

let test_daemon_pipelined_burst () =
  let dir = temp_dir "net-burst" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d = start_daemon ~socket ~cache:(Filename.concat dir "c") () in
  wait_ready socket;
  let fd = connect_raw socket in
  let total = 100 in
  let burst = String.concat "" (List.init total (fun _ -> "STATS\n")) in
  send_raw fd burst;
  let replies = List.init total (fun _ -> read_line_fd fd) in
  List.iter
    (fun reply ->
      match Service.Protocol.parse_response reply with
      | Some (Service.Protocol.Stats_reply _) -> ()
      | _ -> Alcotest.failf "burst reply not a whole STATS line: %s" reply)
    replies;
  Unix.close fd;
  Atomic.set stop true;
  ignore (Domain.join d)

(* ------------------------------------------------------------------ *)
(* Engine deadline shedding (monotonic injectable clock). *)

let test_engine_sheds_expired_work () =
  let clock, set_time = Util.Clock.manual 0.0 in
  let cache = temp_cache () in
  let e =
    Service.Engine.create ~settings:fast
      ~now_ms:(fun () -> clock () *. 1000.)
      ~cache ()
  in
  let c = Service.Engine.connect e in
  (* Two distinct shapes, both with 100ms deadlines.  The first step tunes
     one; the clock then jumps past the second's deadline. *)
  Service.Engine.submit e c "TUNE cin=4 size=8 cout=4 k=3 deadline-ms=100";
  Service.Engine.submit e c "TUNE cin=8 size=8 cout=4 k=1 deadline-ms=100";
  let first = Service.Engine.step e in
  Alcotest.(check int) "first shape answered in time" 1 (List.length first);
  set_time 0.5;
  let rest = Service.Engine.run_until_idle e in
  (match rest with
  | [ (_, line) ] -> (
    match Service.Protocol.parse_response line with
    | Some (Service.Protocol.Error Service.Protocol.Deadline) -> ()
    | _ -> Alcotest.failf "expected ERR deadline, got: %s" line)
  | _ -> Alcotest.failf "expected one shed response, got %d" (List.length rest));
  let counters = Service.Engine.counters e in
  Alcotest.(check int) "one tune ran" 1 counters.tunes_run;
  Alcotest.(check int) "one tune shed" 1 counters.deadline_shed;
  (* A patient waiter pins the job: coalescing takes the max deadline, and
     a waiter with no deadline makes the job undeadlined. *)
  Service.Engine.submit e c "TUNE cin=4 size=10 cout=8 k=3 deadline-ms=100";
  Service.Engine.submit e c "TUNE cin=4 size=10 cout=8 k=3";
  set_time 5.0;
  let out = Service.Engine.run_until_idle e in
  Alcotest.(check int) "both waiters answered" 2 (List.length out);
  List.iter
    (fun (_, line) -> ignore (parse_ok line))
    out;
  Alcotest.(check int) "no further shed" 1
    (Service.Engine.counters e).deadline_shed;
  Sys.remove cache

(* The engine's default clock is the constant zero: deadlines are inert in
   Sim scripts unless a real clock is injected — determinism by default. *)
let test_engine_default_clock_inert () =
  let cache = temp_cache () in
  let e = Service.Engine.create ~settings:fast ~cache () in
  let c = Service.Engine.connect e in
  Service.Engine.submit e c "TUNE cin=4 size=8 cout=4 k=3 deadline-ms=0";
  let out = Service.Engine.run_until_idle e in
  (match out with
  | [ (_, line) ] -> ignore (parse_ok line)
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check int) "nothing shed under the constant clock" 0
    (Service.Engine.counters e).deadline_shed;
  Sys.remove cache

(* ------------------------------------------------------------------ *)
(* Client: scripted-server behaviours. *)

let with_script_server script k =
  let dir = temp_dir "net-script" in
  let socket = Filename.concat dir "s.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 8;
  let srv = Domain.spawn (fun () -> script listener) in
  let result = k socket in
  Domain.join srv;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  result

let accept_read_line listener =
  let fd, _ = Unix.accept listener in
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
  in
  let line = go () in
  (fd, line)

let test_client_honors_busy () =
  let slept = Atomic.make 0.0 in
  let result, trace =
    with_script_server
      (fun listener ->
        (* First attempt: BUSY with a 1s hint.  Second: served. *)
        let fd, _ = accept_read_line listener in
        send_raw fd "BUSY retry-after=1\n";
        Unix.close fd;
        let fd, _ = accept_read_line listener in
        send_raw fd "PONG\n";
        Unix.close fd)
      (fun socket ->
        Service.Client.ask_raw
          ~settings:{ Service.Client.default_settings with max_attempts = 3 }
          ~sleep_ms:(fun ms -> Atomic.set slept (Atomic.get slept +. ms))
          ~socket "PING")
  in
  (match result with
  | Ok Service.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected PONG after the BUSY retry");
  Alcotest.(check int) "two attempts" 2 (List.length trace);
  Alcotest.(check bool) "waited at least the retry-after hint" true
    (Atomic.get slept >= 1000.0)

let test_client_propagates_deadline () =
  let captured = Atomic.make "" in
  let result, _ =
    with_script_server
      (fun listener ->
        let fd, line = accept_read_line listener in
        Atomic.set captured line;
        (* A determinate typed error: final, no retry. *)
        send_raw fd "ERR failed scripted\n";
        Unix.close fd)
      (fun socket ->
        let r = spec_of_line "TUNE cin=4 size=8 cout=4 k=3" in
        Service.Client.ask
          ~settings:
            { Service.Client.default_settings with deadline_ms = Some 800 }
          ~socket (Service.Protocol.Tune r))
  in
  (match result with
  | Ok (Service.Protocol.Error (Service.Protocol.Failed _)) -> ()
  | _ -> Alcotest.fail "expected the scripted ERR failed to be final");
  let line = Atomic.get captured in
  (match Service.Protocol.parse_request line with
  | Ok (Service.Protocol.Tune r) -> (
    match r.Service.Protocol.deadline_ms with
    | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "deadline-ms on the wire within budget (%d)" d)
        true
        (d > 0 && d <= 800)
    | None -> Alcotest.failf "no deadline-ms on the wire: %s" line)
  | _ -> Alcotest.failf "captured request does not parse: %s" line)

let test_client_total_deadline () =
  (* No daemon at all: the client must give up by the total deadline, not
     by exhausting a long attempt budget. *)
  let dir = temp_dir "net-nodaemon" in
  let socket = Filename.concat dir "missing.sock" in
  let result, trace =
    Service.Client.ask_raw
      ~settings:
        {
          Service.Client.default_settings with
          deadline_ms = Some 120;
          max_attempts = 10_000;
          backoff_base_ms = 20;
          backoff_cap_ms = 40;
        }
      ~socket "PING"
  in
  (match result with
  | Error Service.Client.Deadline_exceeded -> ()
  | Ok _ | Error (Service.Client.Attempts_exhausted _) ->
    Alcotest.fail "expected Deadline_exceeded against a dead socket");
  Alcotest.(check bool) "bounded attempts before the deadline" true
    (List.length trace < 100)

let find_seed pred =
  let rec go s =
    if s > 50_000 then Alcotest.fail "no seed found for the scripted fault"
    else if pred s then s
    else go (s + 1)
  in
  go 0

(* Reset on attempt 1, clean on attempt 2, against a real daemon: the
   retry is idempotent (same canonical key), and because disconnects still
   tune and cache, the second attempt answers from the cache the first
   attempt paid for. *)
let test_client_reset_then_cached () =
  let profile = Service.Net_faults.default in
  let seed =
    find_seed (fun s ->
        Service.Net_faults.fault_of profile ~seed:s ~conn:0
        = Some Service.Net_faults.Reset
        && Service.Net_faults.fault_of profile ~seed:s ~conn:1 = None)
  in
  let dir = temp_dir "net-reset" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d = start_daemon ~socket ~cache:(Filename.concat dir "c") () in
  wait_ready socket;
  let r = spec_of_line "TUNE cin=4 size=8 cout=4 k=3" in
  let result, trace =
    Service.Client.ask
      ~settings:
        { Service.Client.default_settings with seed; faults = profile }
      ~socket (Service.Protocol.Tune r)
  in
  (match result with
  | Ok (Service.Protocol.Result p) ->
    Alcotest.(check string) "second attempt hits the first attempt's cache"
      "cached"
      (Service.Protocol.source_to_string p.Service.Protocol.source)
  | _ -> Alcotest.fail "expected an OK answer after the reset");
  Alcotest.(check int) "exactly two attempts" 2 (List.length trace);
  (match trace with
  | first :: _ ->
    Alcotest.(check bool) "first attempt records the reset" true
      (first.Service.Client.fault = Some Service.Net_faults.Reset)
  | [] -> Alcotest.fail "empty trace");
  Atomic.set stop true;
  let engine = Domain.join d in
  Alcotest.(check int) "the torn attempt still tuned (once)" 1
    (Service.Engine.counters engine).tunes_run

(* Garbage on attempt 1: whatever the daemon answers to the corrupted line
   (ERR parse, or an answer under a foreign key), the client refuses it and
   converges on the real answer with the right content address. *)
let test_client_survives_garbage () =
  let profile = Service.Net_faults.default in
  let r = spec_of_line "TUNE cin=8 size=8 cout=4 k=1" in
  let wire = Service.Protocol.render_tune r in
  let canonical = Service.Protocol.canonical_of_tune r in
  (* Some corruptions are harmless (e.g. bytes spliced into an ignored
     position can leave an equivalent request); insist on a seed whose
     garbled bytes actually change or break the request, so attempt 1
     cannot be answered under the right key. *)
  let corruption_bites s =
    let sent = concat_sends (Service.Net_faults.plan profile ~seed:s ~conn:0 wire) in
    String.split_on_char '\n' sent
    |> List.for_all (fun l ->
           match Service.Protocol.parse_request l with
           | Ok (Service.Protocol.Tune g) ->
             Service.Protocol.canonical_of_tune g <> canonical
           | Ok _ | Error _ -> true)
  in
  let seed =
    find_seed (fun s ->
        Service.Net_faults.fault_of profile ~seed:s ~conn:0
        = Some Service.Net_faults.Garbage
        && Service.Net_faults.fault_of profile ~seed:s ~conn:1 = None
        && corruption_bites s)
  in
  let dir = temp_dir "net-garble" in
  let socket = Filename.concat dir "d.sock" in
  let stop, _, d = start_daemon ~socket ~cache:(Filename.concat dir "c") () in
  wait_ready socket;
  let expected_key =
    Service.Result_cache.key_of_canonical (Service.Protocol.canonical_of_tune r)
  in
  let result, trace =
    Service.Client.ask
      ~settings:
        { Service.Client.default_settings with seed; faults = profile }
      ~socket (Service.Protocol.Tune r)
  in
  (match result with
  | Ok (Service.Protocol.Result p) ->
    Alcotest.(check string) "answer carries this request's content address"
      expected_key p.Service.Protocol.key
  | _ -> Alcotest.fail "expected an OK answer after the garbled attempt");
  Alcotest.(check bool) "took more than one attempt" true (List.length trace >= 2);
  Atomic.set stop true;
  ignore (Domain.join d)

(* ------------------------------------------------------------------ *)
(* The live-socket chaos campaign. *)

let shape_pool =
  [
    "TUNE cin=4 size=8 cout=4 k=3";
    "TUNE cin=8 size=8 cout=4 k=1";
    "TUNE cin=4 size=10 cout=8 k=3 arch=1080ti";
    "TUNE cin=8 size=6 cout=8 k=3";
    "TUNE cin=4 size=12 cout=4 k=1 arch=titanx";
    "TUNE cin=16 size=8 cout=4 k=1";
    "TUNE cin=4 size=8 cout=8 k=5";
    "TUNE cin=8 size=10 cout=4 k=3 arch=gfx906";
  ]

let kill_shape = "TUNE cin=6 size=8 cout=6 k=3"

(* One full campaign at [rate] with [clients] concurrent faulty clients.
   Returns the transcript: every phase-1 and warm-phase attempt trace and
   final answer, in deterministic order — the string the replay check
   compares byte-for-byte across two independent runs of the same seed.

   Phases: (1) concurrent faulty clients tune disjoint shape sets;
   (2) a rider client starts on a fresh shape and the daemon is hard-killed
   under it (no drain, no flush); (3) the cache file is corrupted with a
   garbage append; (4) a restarted daemon salvages the cache and the rider
   client's retries ride through the outage; (5) a fault-free warm sweep
   re-asks every phase-1 shape and the hit/tune ledger must account for it
   exactly; (6) graceful stop, and an independent reload of the final cache
   must be intact. *)
let run_campaign ~seed ~rate ~clients () =
  let dir = temp_dir "net-campaign" in
  let socket = Filename.concat dir "tuned.sock" in
  let cache = Filename.concat dir "cache.durable" in
  let shapes = List.filteri (fun i _ -> i < 2 * clients) shape_pool in
  (* Gold answers from an in-process reference engine with identical
     settings: the campaign's correctness bar is bit-equality of key,
     config and measured cost against a wire-free run. *)
  let gold =
    let e =
      Service.Engine.create ~settings:fast
        ~cache:(Filename.concat dir "gold.cache") ()
    in
    let c = Service.Engine.connect e in
    List.map
      (fun line ->
        Service.Engine.submit e c line;
        match Service.Engine.run_until_idle e with
        | [ (_, resp) ] -> (line, parse_ok resp)
        | other ->
          Alcotest.failf "gold run emitted %d responses" (List.length other))
      (shapes @ [ kill_shape ])
  in
  let check_gold label line (p : Service.Protocol.result_payload) =
    let g = List.assoc line gold in
    Alcotest.(check string) (label ^ ": key matches gold") g.Service.Protocol.key
      p.Service.Protocol.key;
    Alcotest.(check string) (label ^ ": config matches gold")
      (Core.Config.to_string g.Service.Protocol.config)
      (Core.Config.to_string p.Service.Protocol.config);
    Alcotest.(check bool) (label ^ ": cost matches gold") true
      (g.Service.Protocol.runtime_us = p.Service.Protocol.runtime_us
      && g.Service.Protocol.gflops = p.Service.Protocol.gflops)
  in
  (* Phase 1: concurrent faulty clients on disjoint shapes. *)
  let stop1, hard1, d1 = start_daemon ~socket ~cache () in
  wait_ready socket;
  let domains =
    List.init clients (fun i ->
        let mine = List.filteri (fun j _ -> j / 2 = i) shapes in
        Domain.spawn (fun () ->
            List.mapi
              (fun j line ->
                let settings =
                  {
                    Service.Client.default_settings with
                    seed = (seed * 97) + i;
                    conn_base = (i * 1000) + (j * 100);
                    faults = Service.Net_faults.with_rate rate;
                    max_attempts = 12;
                  }
                in
                let result, trace =
                  Service.Client.ask ~settings ~socket
                    (Service.Protocol.Tune (spec_of_line line))
                in
                (i, j, line, result, trace))
              mine))
  in
  let phase1 = List.concat_map Domain.join domains in
  List.iter
    (fun (i, j, line, result, _) ->
      match result with
      | Ok (Service.Protocol.Result p) ->
        check_gold (Printf.sprintf "client %d ask %d" i j) line p
      | Ok other ->
        Alcotest.failf "client %d ask %d: non-OK final answer %s" i j
          (Service.Protocol.render_response other)
      | Error f ->
        Alcotest.failf "client %d ask %d failed: %s" i j
          (Service.Client.failure_to_string f))
    phase1;
  (* Phase 2: hard kill under a rider client on a fresh shape.  Its own
     outcome is timing-dependent (answered before, during or after the
     outage) so it stays out of the transcript; its invariant is below. *)
  let rider =
    Domain.spawn (fun () ->
        Service.Client.ask
          ~settings:
            {
              Service.Client.default_settings with
              conn_base = 999_000;
              max_attempts = 60;
              attempt_timeout_ms = 500;
              backoff_base_ms = 20;
              backoff_cap_ms = 100;
            }
          ~socket
          (Service.Protocol.Tune (spec_of_line kill_shape)))
  in
  Atomic.set hard1 true;
  ignore (Domain.join d1);
  ignore stop1;
  (* Phase 3: corrupt the cache with a garbage append — the restart must
     salvage, not crash and not lie. *)
  let oc = open_out_gen [ Open_append ] 0o644 cache in
  output_string oc "#### corruption injected by test_net ####\n";
  close_out oc;
  (* Phase 4: restart; the rider's retries ride through the outage. *)
  let stop2, _, d2 = start_daemon ~socket ~cache () in
  wait_ready socket;
  (match Domain.join rider with
  | Ok (Service.Protocol.Result p), _ -> check_gold "rider" kill_shape p
  | Ok other, _ ->
    Alcotest.failf "rider got a non-OK final answer: %s"
      (Service.Protocol.render_response other)
  | Error f, _ ->
    Alcotest.failf "rider failed across the restart: %s"
      (Service.Client.failure_to_string f));
  let stats () =
    match Service.Client.ask_raw ~settings:clean_client ~socket "STATS" with
    | Ok (Service.Protocol.Stats_reply kvs), _ -> kvs
    | _ -> Alcotest.fail "STATS failed"
  in
  let stat kvs key =
    match List.assoc_opt key kvs with
    | Some v -> int_of_string v
    | None -> Alcotest.failf "STATS lacks %s" key
  in
  let before = stats () in
  Alcotest.(check bool) "restart salvaged the corrupted cache" true
    (stat before "salvage_dropped" >= 1);
  (* Phase 5: fault-free warm sweep; the ledger must balance exactly. *)
  let warm =
    List.map
      (fun line ->
        let result, _ =
          Service.Client.ask ~settings:clean_client ~socket
            (Service.Protocol.Tune (spec_of_line line))
        in
        match result with
        | Ok (Service.Protocol.Result p) ->
          check_gold "warm" line p;
          Alcotest.(check string) ("warm " ^ line ^ " served from cache")
            "cached"
            (Service.Protocol.source_to_string p.Service.Protocol.source);
          Alcotest.(check int) ("warm " ^ line ^ " zero trials") 0
            p.Service.Protocol.trials;
          (line, p)
        | _ -> Alcotest.failf "warm ask failed for %s" line)
      shapes
  in
  let after = stats () in
  Alcotest.(check int) "warm sweep hits, counted exactly"
    (stat before "hits" + List.length shapes)
    (stat after "hits");
  Alcotest.(check int) "warm sweep tuned nothing" (stat before "tunes_run")
    (stat after "tunes_run");
  (* Phase 6: graceful stop; the final cache reloads intact with every
     shape present. *)
  Atomic.set stop2 true;
  let engine2 = Domain.join d2 in
  Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists socket);
  ignore engine2;
  let final =
    Service.Result_cache.load
      ~generation:(Service.Engine.generation_of_settings fast) cache
  in
  Alcotest.(check int) "final cache holds every shape"
    (List.length shapes + 1)
    (Service.Result_cache.entries final);
  Alcotest.(check int) "final cache reloads with zero losses" 0
    (Service.Result_cache.dropped final);
  List.iter
    (fun line ->
      let canonical =
        Service.Protocol.canonical_of_tune (spec_of_line line)
      in
      match Service.Result_cache.find final ~canonical with
      | Some _ -> ()
      | None -> Alcotest.failf "shape missing from the final cache: %s" line)
    (shapes @ [ kill_shape ]);
  (* The transcript: deterministic phases only. *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun (i, j, line, result, trace) ->
      Buffer.add_string buf (Printf.sprintf "client %d ask %d %s\n" i j line);
      List.iter
        (fun a ->
          Buffer.add_string buf ("  " ^ Service.Client.attempt_to_string a);
          Buffer.add_char buf '\n')
        trace;
      Buffer.add_string buf
        ("  => "
        ^ (match result with
          | Ok resp -> Service.Protocol.render_response resp
          | Error f -> Service.Client.failure_to_string f)
        ^ "\n"))
    phase1;
  List.iter
    (fun (line, p) ->
      Buffer.add_string buf
        (Printf.sprintf "warm %s => %s\n" line
           (Service.Protocol.render_response (Service.Protocol.Result p))))
    warm;
  Buffer.contents buf

let test_chaos_campaign () =
  List.iter
    (fun seed ->
      let transcript =
        run_campaign ~seed ~rate:0.30 ~clients:(if deep then 4 else 3) ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "campaign %d produced a transcript" seed)
        true
        (String.length transcript > 0))
    campaign_seeds

(* Re-running a seed reproduces the same transcript byte-for-byte: the
   fault plans, the retry traces and every answer replay exactly. *)
let test_chaos_campaign_replays () =
  let clients = 3 in
  let t1 = run_campaign ~seed:0 ~rate:0.30 ~clients () in
  let t2 = run_campaign ~seed:0 ~rate:0.30 ~clients () in
  Alcotest.(check string) "transcript replays byte-for-byte" t1 t2

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "faults",
        [
          Alcotest.test_case "plans pure in (seed, conn)" `Quick test_faults_pure;
          Alcotest.test_case "delivery contract per kind" `Quick
            test_faults_delivery_contract;
          Alcotest.test_case "executor runs plans" `Quick test_faults_apply;
          QCheck_alcotest.to_alcotest qcheck_faults_exact_framing;
        ] );
      ( "outbuf",
        [
          Alcotest.test_case "bounded, refuses overflow" `Quick test_outbuf_bounds;
          Alcotest.test_case "partial writes continue, never interleave" `Quick
            test_outbuf_partial_write_continuation;
          Alcotest.test_case "peer vanished" `Quick test_outbuf_peer_vanished;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "oversized line: typed ERR parse + close" `Quick
            test_daemon_oversized_line;
          Alcotest.test_case "slow-loris meets the request deadline" `Quick
            test_daemon_slow_loris;
          Alcotest.test_case "connection ceiling sheds BUSY" `Quick
            test_daemon_connection_ceiling;
          Alcotest.test_case "binary garbage stays typed" `Quick
            test_daemon_binary_garbage;
          Alcotest.test_case "pipelined burst arrives whole" `Quick
            test_daemon_pipelined_burst;
          Alcotest.test_case "STATS and hits answer during a tune" `Quick
            test_daemon_answers_during_tune;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expired work shed with ERR deadline" `Quick
            test_engine_sheds_expired_work;
          Alcotest.test_case "default clock keeps Sim deterministic" `Quick
            test_engine_default_clock_inert;
        ] );
      ( "client",
        [
          Alcotest.test_case "BUSY retry-after honored" `Quick test_client_honors_busy;
          Alcotest.test_case "deadline-ms propagated on the wire" `Quick
            test_client_propagates_deadline;
          Alcotest.test_case "total deadline beats the attempt budget" `Quick
            test_client_total_deadline;
          Alcotest.test_case "reset retried onto the warm cache" `Quick
            test_client_reset_then_cached;
          Alcotest.test_case "garbage never yields a wrong-key answer" `Quick
            test_client_survives_garbage;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "chaos campaign: kill, salvage, ledger" `Quick
            test_chaos_campaign;
          Alcotest.test_case "transcript replays byte-for-byte" `Quick
            test_chaos_campaign_replays;
        ] );
    ]
