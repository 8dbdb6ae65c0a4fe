type level =
  | Quiet
  | Warn

let current = Atomic.make Warn

let set_level l = Atomic.set current l
let level () = Atomic.get current
let set_quiet q = set_level (if q then Quiet else Warn)

(* Per-key deduplication for warnings that would otherwise repeat every time
   a damaged artifact is re-read — e.g. a daemon reloading the same salvaged
   cache file.  Keys are only consumed when a warning would actually print,
   so flipping to [Warn] later still reports a salvage seen under [Quiet]. *)

let seen : (string, unit) Hashtbl.t = Hashtbl.create 16
let seen_mutex = Mutex.create ()

let once key =
  Mutex.protect seen_mutex (fun () ->
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)

let reset_once () = Mutex.protect seen_mutex (fun () -> Hashtbl.reset seen)

let warn_oncef ~key fmt =
  match Atomic.get current with
  | Warn when once key -> Printf.eprintf fmt
  | Warn | Quiet -> Printf.ifprintf stderr fmt
