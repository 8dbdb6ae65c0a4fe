type settings = {
  attempt_timeout_ms : int;
  deadline_ms : int option;
  max_attempts : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  seed : int;
  faults : Net_faults.profile;
  conn_base : int;
  audit : bool;
}

let default_settings =
  {
    attempt_timeout_ms = 2000;
    deadline_ms = None;
    max_attempts = 8;
    backoff_base_ms = 25;
    backoff_cap_ms = 1000;
    seed = 0;
    faults = Net_faults.none;
    conn_base = 0;
    audit = true;
  }

type failure = Deadline_exceeded | Attempts_exhausted of string

let failure_to_string = function
  | Deadline_exceeded -> "total request deadline exceeded"
  | Attempts_exhausted why -> Printf.sprintf "attempts exhausted (last: %s)" why

type attempt = {
  n : int;
  conn : int;
  fault : Net_faults.kind option;
  note : string;
}

let attempt_to_string a =
  Printf.sprintf "attempt %d conn=%d fault=%s: %s" a.n a.conn
    (match a.fault with
    | Some k -> Net_faults.kind_to_string k
    | None -> "none")
    a.note

(* -- socket plumbing ----------------------------------------------------- *)

let safe_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    safe_close fd;
    Error (Unix.error_message e)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* -- response classification --------------------------------------------- *)

(* [suspect] means this very attempt injected a [Garbage] fault, so the
   request the daemon answered may not be the request we meant: typed
   rejections and foreign-key results are then grounds to retry, where on a
   clean attempt they would be final (or skipped, conservatively, for a
   foreign key that should be impossible).

   [audit] is the client-side trust boundary: a [Verify.Audit] check of any
   OK payload before it is accepted as final.  An audit reject retries
   exactly like a garbled answer — the daemon (or the wire) handed us
   something whose analytic claims do not re-derive, and asking again is
   strictly better than returning it. *)
let classify ~expected_key ~suspect ~audit line =
  match Protocol.parse_response line with
  | None -> `Skip
  | Some (Protocol.Busy { retry_after_s }) -> `Busy retry_after_s
  | Some (Protocol.Error Protocol.Draining) -> `Retry "daemon draining"
  | Some (Protocol.Error Protocol.Timeout) -> `Retry "server-side timeout"
  | Some (Protocol.Error Protocol.Deadline) ->
    `Retry "server shed the expired request"
  | Some (Protocol.Error (Protocol.Parse _) as resp) ->
    if suspect then `Retry "garbled request rejected as unparseable"
    else ( match expected_key with None -> `Final resp | Some _ -> `Skip)
  | Some (Protocol.Result p as resp) -> (
    match expected_key with
    | Some k when not (String.equal p.Protocol.key k) ->
      if suspect then `Retry "answered under a foreign key" else `Skip
    | _ -> (
      match audit with
      | None -> `Final resp
      | Some f -> (
        match (f p : Verify.Audit.verdict) with
        | Verify.Audit.Ok -> `Final resp
        | Verify.Audit.Suspect reasons ->
          `Retry
            ("audit rejected the answer: "
            ^ String.concat "," (List.map Verify.Audit.reason_token reasons)))))
  | Some ((Protocol.Pong | Protocol.Stats_reply _) as resp) -> (
    match expected_key with Some _ -> `Skip | None -> `Final resp)
  | Some (Protocol.Error (Protocol.Domain _ | Protocol.Failed _) as resp) ->
    if suspect && expected_key <> None then
      `Retry "typed error on a garbled attempt"
    else `Final resp

let read_answer ~now_ms ~deadline_at ~expected_key ~suspect ~audit fd =
  let pending = ref "" in
  let chunk = Bytes.create 512 in
  let next_line () =
    match String.index_opt !pending '\n' with
    | None -> None
    | Some i ->
      let line = String.sub !pending 0 i in
      pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
      Some line
  in
  let rec loop () =
    match next_line () with
    | Some line -> (
      match classify ~expected_key ~suspect ~audit line with
      | `Final resp -> `Answer resp
      | `Busy r -> `Busy r
      | `Retry reason -> `Retry reason
      | `Skip -> loop ())
    | None ->
      let rem = deadline_at -. now_ms () in
      if rem <= 0.0 then `Retry "attempt timed out waiting for an answer"
      else (
        (* Select waits are capped so an injected clock that jumps between
           calls still terminates the loop promptly. *)
        let timeout = Float.min 0.25 (rem /. 1000.0) in
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> loop ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Retry "connection closed before an acceptable answer"
          | k ->
            pending := !pending ^ Bytes.sub_string chunk 0 k;
            loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error (e, _, _) ->
            `Retry ("read: " ^ Unix.error_message e))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* -- one attempt --------------------------------------------------------- *)

let run_attempt ~settings ~now_ms ~sleep_ms ~socket ~conn ~line ~expected_key
    ~audit ~fault ~rem_ms =
  match connect socket with
  | Error msg -> `Retry ("connect: " ^ msg)
  | Ok fd ->
    let closed = ref false in
    let close () =
      if not !closed then (
        closed := true;
        safe_close fd)
    in
    let send_error = ref None in
    let write s =
      if !send_error = None then
        match write_all fd s with
        | Ok () -> ()
        | Error m -> send_error := Some m
    in
    let ops = Net_faults.plan settings.faults ~seed:settings.seed ~conn line in
    let status =
      Net_faults.apply
        ~sleep_ms:(fun ms -> sleep_ms (float_of_int ms))
        ~write ~close ops
    in
    let result =
      match (status, !send_error) with
      | `Closed, _ ->
        `Retry
          (Printf.sprintf "%s cut the connection mid-send"
             (match fault with
             | Some k -> Net_faults.kind_to_string k
             | None -> "plan"))
      | `Delivered, Some m -> `Retry ("send: " ^ m)
      | `Delivered, None ->
        let budget =
          match rem_ms with
          | Some r -> Float.min (float_of_int settings.attempt_timeout_ms) r
          | None -> float_of_int settings.attempt_timeout_ms
        in
        let deadline_at = now_ms () +. budget in
        let suspect = fault = Some Net_faults.Garbage in
        read_answer ~now_ms ~deadline_at ~expected_key ~suspect ~audit fd
    in
    close ();
    result

(* -- the retry loop ------------------------------------------------------ *)

let run ~settings ~now_ms ~sleep_ms ~socket ~render ~expected_key ~audit =
  let rng = Util.Rng.create (settings.seed lxor 0x636c6e74) in
  let start = now_ms () in
  let deadline_at =
    Option.map (fun d -> start +. float_of_int d) settings.deadline_ms
  in
  let remaining_ms () = Option.map (fun d -> d -. now_ms ()) deadline_at in
  let trace = ref [] in
  let push n conn fault note = trace := { n; conn; fault; note } :: !trace in
  let finish result = (result, List.rev !trace) in
  let backoff ~floor_ms n =
    let base =
      min settings.backoff_cap_ms
        (settings.backoff_base_ms * (1 lsl min (n - 1) 16))
    in
    let base = max 1 (max base floor_ms) in
    (* deterministic seeded jitter in [base/2, base), then the BUSY
       retry-after hint reimposed as a hard floor — honoring the server's
       hint means waiting at least that long, jitter or not *)
    let delay = (base / 2) + Util.Rng.int rng (max 1 (base - (base / 2))) in
    let delay = float_of_int (max delay floor_ms) in
    (* Sleep at most to the deadline, its fraction of a millisecond
       included: a remainder rounded down to 0 would retry without pause
       until the deadline passed. *)
    let delay =
      match remaining_ms () with
      | Some r -> Float.min delay (Float.max 0.0 r)
      | None -> delay
    in
    if delay > 0.0 then sleep_ms delay
  in
  let rec attempt n last_reason =
    if n > settings.max_attempts then
      finish (Error (Attempts_exhausted last_reason))
    else
      let rem = remaining_ms () in
      match rem with
      | Some r when r <= 0.0 -> finish (Error Deadline_exceeded)
      | _ -> (
        let conn = settings.conn_base + n - 1 in
        let fault =
          Net_faults.fault_of settings.faults ~seed:settings.seed ~conn
        in
        let line = render (Option.map int_of_float rem) in
        match
          run_attempt ~settings ~now_ms ~sleep_ms ~socket ~conn ~line
            ~expected_key ~audit ~fault ~rem_ms:rem
        with
        | `Answer resp ->
          let note =
            match (resp, audit) with
            | Protocol.Result _, Some _ ->
              (* the verdict is in the trace, not just the absence of a
                 retry: an audited answer is marked as such *)
              "answered [audit=ok]: " ^ Protocol.render_response resp
            | _ -> "answered: " ^ Protocol.render_response resp
          in
          push n conn fault note;
          finish (Ok resp)
        | `Busy retry_after_s ->
          push n conn fault
            (Printf.sprintf "busy retry-after=%d" retry_after_s);
          backoff ~floor_ms:(retry_after_s * 1000) n;
          attempt (n + 1) "busy"
        | `Retry reason ->
          push n conn fault ("retry: " ^ reason);
          backoff ~floor_ms:0 n;
          attempt (n + 1) reason)
  in
  attempt 1 "no attempt ran"

(* -- public entry points ------------------------------------------------- *)

let hooks now_ms sleep_ms =
  let now_ms =
    match now_ms with
    | Some f -> f
    | None ->
      let c = Util.Clock.monotonic () in
      fun () -> c () *. 1000.0
  in
  let sleep_ms =
    match sleep_ms with
    | Some f -> f
    | None -> fun ms -> Unix.sleepf (ms /. 1000.0)
  in
  (now_ms, sleep_ms)

let ask ?(settings = default_settings) ?now_ms ?sleep_ms ~socket request =
  let now_ms, sleep_ms = hooks now_ms sleep_ms in
  match request with
  | Protocol.Ping ->
    run ~settings ~now_ms ~sleep_ms ~socket
      ~render:(fun _ -> "PING")
      ~expected_key:None ~audit:None
  | Protocol.Stats ->
    run ~settings ~now_ms ~sleep_ms ~socket
      ~render:(fun _ -> "STATS")
      ~expected_key:None ~audit:None
  | Protocol.Tune tr ->
    let canonical = Protocol.canonical_of_tune tr in
    let expected_key = Some (Result_cache.key_of_canonical canonical) in
    (* The wire policy tolerates the OK line's decimal rounding of runtime
       and gflops; everything structural (domain membership, launch
       feasibility, the Q bound) is checked at full strength. *)
    let audit =
      if not settings.audit then None
      else
        Some
          (fun (p : Protocol.result_payload) ->
            Verify.Audit.check ~policy:Verify.Audit.wire ~key:p.Protocol.key
              ~gflops:p.Protocol.gflops ~canonical ~config:p.Protocol.config
              ~runtime_us:p.Protocol.runtime_us ())
    in
    (* Each attempt re-renders with the budget left *now*, so the daemon's
       shedding decision tracks the truth, not the first attempt's view. *)
    let render rem =
      let deadline_ms =
        match rem with
        | Some r -> Some (max 0 r)
        | None -> tr.Protocol.deadline_ms
      in
      Protocol.render_tune { tr with Protocol.deadline_ms }
    in
    run ~settings ~now_ms ~sleep_ms ~socket ~render ~expected_key ~audit

let ask_raw ?(settings = default_settings) ?now_ms ?sleep_ms ~socket line =
  let now_ms, sleep_ms = hooks now_ms sleep_ms in
  run ~settings ~now_ms ~sleep_ms ~socket
    ~render:(fun _ -> line)
    ~expected_key:None ~audit:None
