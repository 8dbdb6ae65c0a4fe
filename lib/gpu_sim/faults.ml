(* Deterministic fault injection over the measurement oracle.

   Every fault decision is drawn from a splitmix stream keyed by (kernel
   hash, measurement seed, profile seed, attempt index), so a given config
   faults identically no matter which domain measures it or in what order —
   the property that lets the tuner stay bit-identical at any domain count
   even under a nonzero profile. *)

let mix h v = (h * 1_000_003) lxor v

type profile = {
  timeout_rate : float;
  timeout_cost_us : float;
  launch_shmem_frac : float;
  outlier_rate : float;
  outlier_scale_min : float;
  outlier_scale_max : float;
  nan_rate : float;
  fault_seed : int;
}

let none =
  {
    timeout_rate = 0.0;
    timeout_cost_us = 0.0;
    launch_shmem_frac = infinity;
    outlier_rate = 0.0;
    outlier_scale_min = 10.0;
    outlier_scale_max = 100.0;
    nan_rate = 0.0;
    fault_seed = 0;
  }

let default =
  {
    timeout_rate = 0.06;
    timeout_cost_us = 2_000.0;
    launch_shmem_frac = 0.92;
    outlier_rate = 0.05;
    outlier_scale_min = 10.0;
    outlier_scale_max = 100.0;
    nan_rate = 0.03;
    fault_seed = 0x5eed;
  }

let is_none p =
  p.timeout_rate = 0.0 && p.outlier_rate = 0.0 && p.nan_rate = 0.0
  && p.launch_shmem_frac = infinity

(* Full precision: [to_string] rounds, and two profiles that differ anywhere
   can tune differently. *)
let key = function
  | None -> "none"
  | Some p ->
    Printf.sprintf "%h,%h,%h,%h,%h,%h,%h,%d" p.timeout_rate p.timeout_cost_us
      p.launch_shmem_frac p.outlier_rate p.outlier_scale_min p.outlier_scale_max
      p.nan_rate p.fault_seed

let to_string p =
  if is_none p then "none"
  else
    Printf.sprintf
      "timeout %.0f%% (%.0fus), launch-fail above %.0f%% shmem budget, \
       outlier %.0f%% (x%.0f-%.0f), nan %.0f%%, seed %#x"
      (100.0 *. p.timeout_rate) p.timeout_cost_us
      (100.0 *. p.launch_shmem_frac)
      (100.0 *. p.outlier_rate) p.outlier_scale_min p.outlier_scale_max
      (100.0 *. p.nan_rate) p.fault_seed

(* Same per-block budget the search space prunes against: half the SM's
   shared memory (two resident blocks) capped by the per-block limit. *)
let block_budget_bytes (arch : Arch.t) =
  min (arch.shared_mem_per_sm / 2) arch.max_shared_mem_per_block

let sample p ~seed ~attempt arch (k : Kernel_cost.kernel) =
  if is_none p then Ok (Measure.sample_us ~seed ~stream:attempt arch k)
  else begin
    let budget = float_of_int (block_budget_bytes arch) in
    if float_of_int k.shmem_bytes_per_block > p.launch_shmem_frac *. budget then
      (* Persistent: an over-capacity launch fails on every attempt. *)
      Error
        (Measure.Launch_failed
           (Printf.sprintf "%d B shared memory exceeds %.0f%% of the %.0f B block budget"
              k.shmem_bytes_per_block (100.0 *. p.launch_shmem_frac) budget))
    else begin
      let rng =
        Util.Rng.create
          (mix (mix (mix (Measure.hash_kernel k) seed) p.fault_seed) attempt)
      in
      (* Fixed draw order keeps fault streams stable as profiles vary. *)
      let timeout_draw = Util.Rng.float rng 1.0 in
      let nan_draw = Util.Rng.float rng 1.0 in
      let outlier_draw = Util.Rng.float rng 1.0 in
      let scale_draw = Util.Rng.float rng 1.0 in
      if timeout_draw < p.timeout_rate then Error (Measure.Timeout p.timeout_cost_us)
      else if nan_draw < p.nan_rate then Ok Float.nan
      else begin
        let v = Measure.sample_us ~seed ~stream:attempt arch k in
        if outlier_draw < p.outlier_rate then
          (* Log-uniform scale in [scale_min, scale_max]. *)
          let scale =
            p.outlier_scale_min
            *. ((p.outlier_scale_max /. p.outlier_scale_min) ** scale_draw)
          in
          Ok (v *. scale)
        else Ok v
      end
    end
  end

let sampler p ~seed arch k ~attempt = sample p ~seed ~attempt arch k

let measure ?policy p ~seed arch k =
  Measure.robust ?policy ~sample:(sampler p ~seed arch k) ()
