(* The daemon side of the benchmark: a `conv_io serve` child process and a
   plain line client over its Unix socket.  Each request opens its own
   connection, as `conv_io ask` does. *)

let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

type daemon = { pid : int; socket : string }

let live : int list ref = ref []

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Trace.now () < deadline ->
    Unix.sleepf 0.005;
    wait_exit pid ~deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM drains (queued tunes finish, the cache is compacted); a daemon
   still alive after [grace] seconds is killed. *)
let stop ?(grace = 60.0) d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_exit d.pid ~deadline:(Trace.now () +. grace)) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit d.pid ~deadline:infinity)
  end;
  live := List.filter (( <> ) d.pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_exit pid ~deadline:infinity))
        !live)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* A connection's unread bytes; [feed] returns the first complete line. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t }

let conn fd = { fd; buf = Buffer.create 256 }
let chunk = Bytes.create 4096

(* Reads what is available; [`Line l] once a full line arrived, [`Closed]
   on end of stream, [`More] otherwise. *)
let feed c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Closed
  | n -> (
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i -> `Line (String.sub s 0 i)
    | None -> `More)
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> `More
  | exception Unix.Unix_error _ -> `Closed

(* One blocking request/response exchange; [None] when the daemon did not
   answer. *)
let ask socket line =
  match connect socket with
  | None -> None
  | Some fd ->
    let c = conn fd in
    let rec read () =
      match feed c with `Line l -> Some l | `Closed -> None | `More -> read ()
    in
    let reply = try send fd line; read () with Unix.Unix_error _ -> None in
    Unix.close fd;
    reply

(* Starts `conv_io serve` at its default settings but for the tune budget
   and waits until it answers PING.  Its output goes to [log]. *)
let spawn ~exe ~socket ~cache ~budget ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Trace.now () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache"; cache; "--budget";
         string_of_int budget |]
      Unix.stdin out out
  in
  Unix.close out;
  live := pid :: !live;
  let d = { pid; socket } in
  let rec ready () =
    if Sys.file_exists socket && ask socket "PING" = Some "PONG" then true
    else if Trace.now () -. t0 > 60.0 then false
    else begin
      Unix.sleepf 0.0005;
      ready ()
    end
  in
  if ready () then Some d
  else begin
    stop ~grace:1.0 d;
    None
  end

(* The daemon's STATS counters. *)
let stats socket =
  match Option.map Service.Protocol.parse_response (ask socket "STATS") with
  | Some (Some (Service.Protocol.Stats_reply kv)) -> kv
  | _ -> []
