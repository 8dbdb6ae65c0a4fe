(* Socket front end: select loop, line framing, deadlines, drain.

   Everything protocol-shaped happens in Engine; this file only turns file
   descriptors into (client, line) pairs and back, and makes sure no
   misbehaving descriptor — half a line, a flood, a byte-dribbler, a peer
   that writes forever without reading, a vanished peer, a SIGTERM — can
   take the process down or wedge the loop.  The byzantine-client defenses
   live here:

   - request lines are capped ([Protocol.max_line_bytes]): an unterminated
     line past the cap earns a typed ERR parse and a close, never unbounded
     buffering;
   - a per-request deadline bounds how long a partial line may dribble in
     (and how long flushing a response may stall), so slow-loris pacing
     cannot reset the idle clock forever;
   - responses go through bounded per-connection write buffers drained by
     partial-write continuation in the select loop — a peer that stops
     reading blocks only its own buffer, and overflowing it closes the
     connection instead of growing it;
   - a connection ceiling sheds load with an immediate BUSY at accept time,
     before the backlog grows.

   All deadlines read one injectable monotonic clock (Util.Clock): wall
   time stepping backward under NTP must not silently disable them.

   Tunes run off the select loop.  The loop runs on a domain of its own;
   the domain that called [serve] runs each tune the engine hands it and
   then writes a byte to a self-pipe in the select set, which wakes the
   loop to apply the result.  So cache hits, PING and STATS answer while a
   tune is running. *)

(* ------------------------------------------------------------------ *)
(* Bounded outgoing buffer with partial-write continuation. *)

module Outbuf = struct
  type t = {
    max_bytes : int;
    mutable data : string;  (* bytes accepted, [off] already written *)
    mutable off : int;
  }

  let create ~max_bytes = { max_bytes; data = ""; off = 0 }
  let pending t = String.length t.data - t.off

  let enqueue t line =
    if pending t + String.length line > t.max_bytes then `Overflow
    else begin
      (* Compact on enqueue: the already-written prefix is dropped so the
         buffer never grows past max_bytes + one response. *)
      t.data <- String.sub t.data t.off (pending t) ^ line;
      t.off <- 0;
      `Ok
    end

  (* One continuation step: write as much as the kernel takes right now.
     [`Pending] means the fd's send buffer is full (peer not reading fast
     enough) — the select loop retries when the fd turns writable. *)
  let flush t fd =
    let rec go () =
      let n = pending t in
      if n = 0 then begin
        t.data <- "";
        t.off <- 0;
        `Done
      end
      else begin
        match Unix.write_substring fd t.data t.off n with
        | written ->
          t.off <- t.off + written;
          go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Pending
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Closed
      end
    in
    go ()
end

(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  client : Engine.client;
  buf : Buffer.t;  (* bytes received, not yet terminated by '\n' *)
  out : Outbuf.t;
  mutable last_activity : float;  (* last complete request or flushed response *)
  mutable owed : int;  (* request lines submitted and not yet answered *)
  mutable partial_since : float option;  (* first byte of the current partial line *)
  mutable blocked_since : float option;  (* response flushing stalled since *)
  mutable open_ : bool;
}

type limits = {
  read_deadline_s : float;
  request_deadline_s : float;
  max_conns : int;
  max_write_buffer : int;
}

let close_conn engine conns conn =
  if conn.open_ then begin
    conn.open_ <- false;
    Engine.disconnect engine conn.client;
    Hashtbl.remove conns conn.client;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Queue a response line; overflow means the peer floods requests without
   reading answers — drop it rather than buffer without bound.  A flush is
   attempted immediately; leftovers continue via select writability. *)
let send_line ~now engine conns conn line =
  if conn.open_ then begin
    match Outbuf.enqueue conn.out (line ^ "\n") with
    | `Overflow -> close_conn engine conns conn
    | `Ok -> begin
      match Outbuf.flush conn.out conn.fd with
      | `Done ->
        conn.blocked_since <- None;
        conn.last_activity <- now
      | `Pending ->
        if conn.blocked_since = None then conn.blocked_since <- Some now
      | `Closed -> close_conn engine conns conn
    end
  end

let deliver ~now engine conns responses =
  List.iter
    (fun (client, line) ->
      match Hashtbl.find_opt conns client with
      | Some conn ->
        (* The engine answers every request line with exactly one line. *)
        conn.owed <- conn.owed - 1;
        send_line ~now engine conns conn line
      | None -> () (* already closed; the engine counted it abandoned *))
    responses

(* Split out the complete lines; submit each, reject an unterminated line
   that already exceeds the protocol bound. *)
let drain_buffer ~now engine conns conn =
  let data = Buffer.contents conn.buf in
  Buffer.clear conn.buf;
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some i ->
      let line = String.sub data start (i - start) in
      let line =
        (* Tolerate CRLF clients. *)
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Engine.submit engine conn.client line;
      conn.owed <- conn.owed + 1;
      conn.last_activity <- now;
      conn.partial_since <- None;
      go (i + 1)
    | None ->
      let rest = String.length data - start in
      if rest > Protocol.max_line_bytes then begin
        send_line ~now engine conns conn
          (Protocol.render_response
             (Protocol.Error
                (Protocol.Parse
                   (Printf.sprintf "request longer than %d bytes" Protocol.max_line_bytes))));
        close_conn engine conns conn
      end
      else begin
        Buffer.add_substring conn.buf data start rest;
        if rest > 0 && conn.partial_since = None then conn.partial_since <- Some now
        else if rest = 0 then conn.partial_since <- None
      end
  in
  go 0

let read_chunk ~now engine conns conn =
  let bytes = Bytes.create 4096 in
  match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
  | 0 -> close_conn engine conns conn (* EOF *)
  | n ->
    Buffer.add_subbytes conn.buf bytes 0 n;
    drain_buffer ~now engine conns conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn engine conns conn

(* Two clocks of misbehaviour, one sweep:
   - idle: no complete request and nothing owed for [read_deadline_s] —
     neither an answer still being worked on (a client waiting on a queued
     or running tune is not idle) nor response bytes still unwritten;
   - request: a partial line dribbling in (or a response flush stalled) for
     [request_deadline_s] — the slow-loris bound.  Receiving more bytes
     does NOT reset it; only a completed line does. *)
let enforce_deadlines ~now engine conns limits =
  let overdue conn =
    conn.open_
    && ((conn.owed = 0
        && Outbuf.pending conn.out = 0
        && now -. conn.last_activity > limits.read_deadline_s)
       || (match conn.partial_since with
          | Some t -> now -. t > limits.request_deadline_s
          | None -> false)
       || match conn.blocked_since with
          | Some t -> now -. t > limits.request_deadline_s
          | None -> false)
  in
  let timed_out = Hashtbl.fold (fun _ c acc -> if overdue c then c :: acc else acc) conns [] in
  List.iter
    (fun conn ->
      send_line ~now engine conns conn
        (Protocol.render_response (Protocol.Error Protocol.Timeout));
      close_conn engine conns conn)
    timed_out

(* Accept-time load shedding: over the ceiling, the daemon answers BUSY on
   the fresh socket and closes it — the client backs off instead of sitting
   in a backlog the select loop will never have capacity to serve. *)
let shed_connection engine fd retry_after_s =
  let line =
    Protocol.render_response (Protocol.Busy { retry_after_s }) ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Engine.record_load_shed engine

(* Best-effort synchronous flush of every pending buffer, used only at
   drain time (the loop is about to exit, so continuation via select is no
   longer available).  Bounded by [request_deadline_s] of real waiting. *)
let flush_remaining engine conns limits clock =
  let deadline = clock () +. limits.request_deadline_s in
  let rec go () =
    let pending =
      Hashtbl.fold
        (fun _ c acc -> if c.open_ && Outbuf.pending c.out > 0 then c :: acc else acc)
        conns []
    in
    if pending <> [] && clock () < deadline then begin
      let fds = List.map (fun c -> c.fd) pending in
      (match Unix.select [] fds [] 0.05 with
      | _, writable, _ ->
        List.iter
          (fun conn ->
            if List.mem conn.fd writable then begin
              match Outbuf.flush conn.out conn.fd with
              | `Done | `Pending -> ()
              | `Closed -> close_conn engine conns conn
            end)
          pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The tune worker: the domain that called [serve] runs every tune the
   engine's executor posts, one at a time, until the loop closes it. *)

module Tunes = struct
  type t = {
    lock : Mutex.t;
    wake : Condition.t;
    mutable next : (unit -> unit) option;
    mutable closed : bool;
  }

  let create () =
    { lock = Mutex.create (); wake = Condition.create (); next = None; closed = false }

  let post t work =
    Mutex.protect t.lock (fun () ->
        t.next <- Some work;
        Condition.signal t.wake)

  let close t =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.signal t.wake)

  (* A tune posted but not started when the loop closes is dropped: a
     drain closes only once every tune has finished, so this happens only
     after a hard stop, which applies no results anyway. *)
  let rec run t =
    let next =
      Mutex.protect t.lock (fun () ->
          while Option.is_none t.next && not t.closed do
            Condition.wait t.wake t.lock
          done;
          if t.closed then None
          else begin
            let work = t.next in
            t.next <- None;
            work
          end)
    in
    match next with
    | Some work ->
      work ();
      run t
    | None -> ()
end

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Empties the self-pipe; its bytes only mean "a tune finished". *)
let drain_wakeups fd =
  let bytes = Bytes.create 64 in
  let rec go () =
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | n when n = Bytes.length bytes -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let serve ~socket ~cache ?settings ?(stop = Atomic.make false)
    ?(hard_stop = Atomic.make false) ?(read_deadline_s = 30.0)
    ?(request_deadline_s = 10.0) ?(max_conns = 64) ?(max_write_buffer = 262_144)
    ?clock ?(install_signal_handlers = true) () =
  let clock = match clock with Some c -> c | None -> Util.Clock.monotonic () in
  let limits = { read_deadline_s; request_deadline_s; max_conns; max_write_buffer } in
  let tunes = Tunes.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      close_quietly wake_r;
      close_quietly wake_w)
  @@ fun () ->
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let executor work =
    Tunes.post tunes (fun () ->
        work ();
        try ignore (Unix.write_substring wake_w "." 0 1) with Unix.Unix_error _ -> ())
  in
  let engine =
    Engine.create ?settings ~now_ms:(fun () -> clock () *. 1000.) ~executor ~cache ()
  in
  (* A response written to a vanished client must surface as EPIPE on the
     write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if install_signal_handlers then begin
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
  end;
  if Sys.file_exists socket then Unix.unlink socket;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Closed exactly once: a second close could hit a descriptor number the
     tune domain has reused meanwhile. *)
  let listener_open = ref true in
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      close_quietly listener
    end
  in
  let conns : (Engine.client, conn) Hashtbl.t = Hashtbl.create 16 in
  let retry_after = (Engine.settings engine).Engine.retry_after_s in
  let serve_loop () =
    while not (Atomic.get stop || Atomic.get hard_stop) do
      let read_fds =
        listener :: wake_r :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
      in
      let write_fds =
        Hashtbl.fold
          (fun _ c acc -> if Outbuf.pending c.out > 0 then c.fd :: acc else acc)
          conns []
      in
      let readable, writable =
        match Unix.select read_fds write_fds [] 0.25 with
        | readable, writable, _ -> (readable, writable)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      let now = clock () in
      let conn_of fd =
        Hashtbl.fold (fun _ c acc -> if c.fd = fd then Some c else acc) conns None
      in
      List.iter
        (fun fd ->
          if fd = wake_r then drain_wakeups wake_r
          else if fd = listener then begin
            match Unix.accept listener with
            | client_fd, _ ->
              if Hashtbl.length conns >= limits.max_conns then
                shed_connection engine client_fd retry_after
              else begin
                Unix.set_nonblock client_fd;
                let client = Engine.connect engine in
                Hashtbl.replace conns client
                  {
                    fd = client_fd;
                    client;
                    buf = Buffer.create 256;
                    out = Outbuf.create ~max_bytes:limits.max_write_buffer;
                    last_activity = now;
                    owed = 0;
                    partial_since = None;
                    blocked_since = None;
                    open_ = true;
                  }
              end
            | exception Unix.Unix_error _ -> ()
          end
          else begin
            match conn_of fd with
            | Some conn -> read_chunk ~now engine conns conn
            | None -> ()
          end)
        readable;
      (* Continue stalled responses for peers that became readable to us
         again (their receive window reopened). *)
      List.iter
        (fun fd ->
          match conn_of fd with
          | Some conn when conn.open_ -> begin
            match Outbuf.flush conn.out conn.fd with
            | `Done ->
              conn.blocked_since <- None;
              conn.last_activity <- now
            | `Pending ->
              if conn.blocked_since = None then conn.blocked_since <- Some now
            | `Closed -> close_conn engine conns conn
          end
          | _ -> ())
        writable;
      deliver ~now engine conns (Engine.step engine);
      enforce_deadlines ~now:(clock ()) engine conns limits
    done;
    if Atomic.get hard_stop then begin
      (* Simulated kill -9 for the chaos harness: no drain, no flush, no
         goodbye lines, and a running tune's result is never applied.  The
         append-only cache already holds every answered tune; everything
         else is torn state the restart must salvage — which is the point. *)
      close_listener ();
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter (fun c -> close_quietly c.fd)
    end
    else begin
      (* Graceful drain: the listener dies first (no new connections), the
         running and queued tunes finish and answer, the cache compacts
         atomically. *)
      close_listener ();
      deliver ~now:(clock ()) engine conns (Engine.drain engine);
      flush_remaining engine conns limits clock;
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter (fun c -> close_conn engine conns c)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_listener ();
      if Sys.file_exists socket then try Unix.unlink socket with Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 64;
      let loop =
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Tunes.close tunes) serve_loop)
      in
      Tunes.run tunes;
      Domain.join loop;
      engine)
