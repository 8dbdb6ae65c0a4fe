let mix h v = (h * 1_000_003) lxor v

let hash_kernel (k : Kernel_cost.kernel) =
  let fl x = Hashtbl.hash (Int64.bits_of_float x) in
  0
  |> fun h -> mix h (fl k.flops)
  |> fun h -> mix h (fl k.io_elems)
  |> fun h -> mix h k.threads_per_block
  |> fun h -> mix h k.shmem_bytes_per_block
  |> fun h -> mix h k.blocks
  |> fun h -> mix h (fl k.coalescing)
  |> fun h -> mix h (fl k.compute_efficiency)

(* A stable value in [-1, 1] derived from the kernel hash and a stream id. *)
let unit_noise ~seed ~stream k =
  let rng = Util.Rng.create (mix (mix (hash_kernel k) seed) stream) in
  (Util.Rng.float rng 2.0) -. 1.0

let sample_us ?(noise_amplitude = 0.03) ?(seed = 0) ~stream arch k =
  let base = Kernel_cost.runtime_us arch k in
  base *. (1.0 +. (noise_amplitude *. unit_noise ~seed ~stream k))

let runtime_us ?noise_amplitude ?seed arch k =
  sample_us ?noise_amplitude ?seed ~stream:0 arch k

let runtime_avg_us ?(noise_amplitude = 0.03) ?(seed = 0) ?(repeat = 3) arch k =
  if repeat < 1 then invalid_arg "Measure.runtime_avg_us: repeat < 1";
  let base = Kernel_cost.runtime_us arch k in
  let total = ref 0.0 in
  for stream = 0 to repeat - 1 do
    total := !total +. (base *. (1.0 +. (noise_amplitude *. unit_noise ~seed ~stream k)))
  done;
  !total /. float_of_int repeat

(* ------------------------------------------------------------------ *)
(* Robust measurement harness: retry, backoff, deadline, aggregation. *)

type fault =
  | Timeout of float
  | Launch_failed of string

type failure =
  | Launch_failure of string
  | Deadline_exceeded of { attempts : int }
  | No_valid_sample of { attempts : int }

let failure_to_string = function
  | Launch_failure msg -> "launch failed: " ^ msg
  | Deadline_exceeded { attempts } ->
    Printf.sprintf "deadline exceeded after %d attempts with no valid sample" attempts
  | No_valid_sample { attempts } ->
    Printf.sprintf "no valid sample in %d attempts" attempts

type aggregate =
  | Median
  | Trimmed_mean of float

type policy = {
  repeat : int;
  max_retries : int;
  backoff_base_us : float;
  backoff_factor : float;
  backoff_max_us : float;
  deadline_us : float;
  outlier_k : float;
  aggregate : aggregate;
}

let default_policy =
  {
    repeat = 3;
    max_retries = 4;
    backoff_base_us = 50.0;
    backoff_factor = 2.0;
    backoff_max_us = 800.0;
    deadline_us = 1.0e6;
    outlier_k = 4.0;
    aggregate = Median;
  }

type attempt_log = {
  attempts : int;
  retries : int;
  timeouts : int;
  nan_readings : int;
  outliers_rejected : int;
  backoff_us : float;
  elapsed_us : float;
}

let no_attempts =
  {
    attempts = 0;
    retries = 0;
    timeouts = 0;
    nan_readings = 0;
    outliers_rejected = 0;
    backoff_us = 0.0;
    elapsed_us = 0.0;
  }

(* Time is *virtual*: the harness charges sample runtimes, timeout costs and
   backoff delays against the deadline instead of sleeping, which keeps the
   retry logic deterministic and instant under test while behaving exactly
   like a wall-clock budget against a real backend. *)
let robust ?(policy = default_policy) ~sample () =
  if policy.repeat < 1 then invalid_arg "Measure.robust: repeat < 1";
  if policy.max_retries < 0 then invalid_arg "Measure.robust: max_retries < 0";
  if policy.deadline_us <= 0.0 then
    (* A zero or negative budget is already expired: deterministically refuse
       before consulting the sampler, rather than admitting a free attempt. *)
    (Error (Deadline_exceeded { attempts = 0 }), no_attempts)
  else begin
  let samples = ref [] in
  let n_valid = ref 0 in
  let attempts = ref 0 in
  let retries = ref 0 in
  let timeouts = ref 0 in
  let nans = ref 0 in
  let elapsed = ref 0.0 in
  let backoff_total = ref 0.0 in
  let fatal = ref None in
  let deadline_hit = ref false in
  (* One exponential-backoff delay per transient fault, capped. *)
  let transient () =
    let d =
      Float.min policy.backoff_max_us
        (policy.backoff_base_us *. (policy.backoff_factor ** float_of_int !retries))
    in
    incr retries;
    backoff_total := !backoff_total +. d;
    elapsed := !elapsed +. d
  in
  let max_attempts = policy.repeat + policy.max_retries in
  while
    !fatal = None && (not !deadline_hit)
    && !n_valid < policy.repeat
    && !attempts < max_attempts
  do
    if !elapsed >= policy.deadline_us then deadline_hit := true
    else begin
      let attempt = !attempts in
      incr attempts;
      match sample ~attempt with
      | Ok v when (not (Float.is_finite v)) || v <= 0.0 ->
        (* Garbage timer reading (NaN / infinite / non-positive). *)
        incr nans;
        transient ()
      | Ok v ->
        samples := v :: !samples;
        incr n_valid;
        elapsed := !elapsed +. v
      | Error (Timeout cost_us) ->
        incr timeouts;
        elapsed := !elapsed +. cost_us;
        transient ()
      | Error (Launch_failed msg) -> fatal := Some (Launch_failure msg)
    end
  done;
  let log =
    {
      attempts = !attempts;
      retries = !retries;
      timeouts = !timeouts;
      nan_readings = !nans;
      outliers_rejected = 0;
      backoff_us = !backoff_total;
      elapsed_us = !elapsed;
    }
  in
  match !fatal with
  | Some f -> (Error f, log)
  | None ->
    if !n_valid = 0 then
      (* The deadline may land exactly on the last attempt boundary, in which
         case the loop exits through the attempt budget before the body gets
         to flag it; classify by the clock, not by which guard fired, so the
         boundary case is a deterministic [Deadline_exceeded]. *)
      let f =
        if !deadline_hit || !elapsed >= policy.deadline_us then
          Deadline_exceeded { attempts = !attempts }
        else No_valid_sample { attempts = !attempts }
      in
      (Error f, log)
    else begin
      (* Partial batches (deadline hit with some valid samples in hand) still
         aggregate: a degraded answer beats a forfeited measurement. *)
      let xs = Array.of_list (List.rev !samples) in
      let med = Util.Stats.median xs in
      let kept =
        Array.of_list
          (List.filter (fun v -> v <= policy.outlier_k *. med) (Array.to_list xs))
      in
      let rejected = Array.length xs - Array.length kept in
      let value =
        match policy.aggregate with
        | Median -> Util.Stats.median kept
        | Trimmed_mean frac -> Util.Stats.trimmed_mean kept frac
      in
      (Ok value, { log with outliers_rejected = rejected })
    end
  end
