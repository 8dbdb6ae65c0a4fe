(* Spans and counters recorded around the benchmark's calls into each layer
   of conv-io.  Spans are flat (a span never encloses another), so a span's
   time is its layer's self time as seen from the caller.  Disabled — every
   end-to-end run — [span] costs one branch around the call. *)

let enabled = ref false
let now = Util.Clock.monotonic ()

type acc = { mutable calls : int; mutable seconds : float; mutable sum : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { calls = 0; seconds = 0.0; sum = 0.0 } in
    Hashtbl.add table name a;
    a

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = now () in
    let finally () =
      let a = acc name in
      a.calls <- a.calls + 1;
      a.seconds <- a.seconds +. (now () -. t0)
    in
    Fun.protect ~finally f
  end

(* A spanned call that also records how much work it did. *)
let span_count name f ~work =
  let result = span name f in
  if !enabled then begin
    let a = acc name in
    a.sum <- a.sum +. work result
  end;
  result

(* A duration measured by the caller (a request's time on the wire). *)
let observe name seconds =
  if !enabled then begin
    let a = acc name in
    a.calls <- a.calls + 1;
    a.seconds <- a.seconds +. seconds
  end

(* A value observed at a layer boundary (a count, a daemon counter). *)
let record name v =
  if !enabled then begin
    let a = acc name in
    a.calls <- a.calls + 1;
    a.sum <- a.sum +. v
  end

let find name = Hashtbl.find_opt table name

(* Mean seconds per call, scaled ([1e3] for ms, [1e6] for us); 0 when the
   workload never called the layer. *)
let mean_time name ~scale =
  match find name with
  | Some a when a.calls > 0 -> a.seconds /. float_of_int a.calls *. scale
  | _ -> 0.0

(* Mean recorded work per call; 0 when never called. *)
let mean_work name =
  match find name with
  | Some a when a.calls > 0 -> a.sum /. float_of_int a.calls
  | _ -> 0.0
