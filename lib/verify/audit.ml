(* The auditor re-derives every analytic quantity a tuning answer claims
   and compares.  All checks are pure functions of (spec, arch, config,
   costs); anything stateful (quarantine files, counters, retries) lives
   with the callers at the trust boundaries. *)

(* FNV-1a, 64-bit: cheap, stable, and good enough dispersion for a cache
   whose correctness does not depend on collision-freedom (lookups verify
   the canonical string before answering).  This is the one definition of
   the service's content address; [Service.Result_cache] re-exports it. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hex_digits = "0123456789abcdef"

(* A plain loop keeps the hash unboxed (a ref captured by a closure is a
   boxed Int64 per byte); the key is the hash as 16 lower-case hex digits. *)
let content_key s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  let h = !h in
  let key = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.set key i hex_digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15]
  done;
  Bytes.unsafe_to_string key

(* --- analytic reprice ---------------------------------------------------- *)

let predicted_us arch spec config =
  match Core.Config.to_kernel arch spec config with
  | exception Invalid_argument _ -> Float.nan
  | kernel -> Gpu_sim.Kernel_cost.runtime_us arch kernel

(* Tile traffic and the paper's lower bound, both at S = half an SM (the
   budget the search space enforces, so two blocks stay resident).  Kept as
   a numerator/denominator pair so the checker can tell "bound is not
   usable here" apart from "bound is violated". *)
let q_parts arch (spec : Conv.Conv_spec.t) (config : Core.Config.t) =
  let s = float_of_int (Gpu_sim.Arch.shared_elems_per_sm arch / 2) in
  let x = float_of_int config.tile_x
  and y = float_of_int config.tile_y
  and z = float_of_int config.tile_z in
  match config.algorithm with
  | Core.Config.Direct_dataflow ->
    (Core.Dataflow_cost.q_dc_tile spec ~x ~y ~z, Core.Direct_bound.q_lower spec ~s)
  | Core.Config.Winograd_dataflow e ->
    (Core.Dataflow_cost.q_wa_tile ~e spec ~x ~y ~z, Core.Winograd_bound.q_lower ~e spec ~s)

let q_ratio arch spec config =
  let num, den = q_parts arch spec config in
  num /. den

(* --- canonical-string parsing -------------------------------------------- *)

(* Both parsers re-render through the one canonical writer and demand
   byte-equality, so "parses" means "is exactly what the renderer would
   have produced" — a canonical string in any other spelling of the same
   request is itself evidence of tampering. *)

let strip_prefix prefix tok =
  let n = String.length prefix in
  if String.length tok > n && String.sub tok 0 n = prefix then
    Some (String.sub tok n (String.length tok - n))
  else None

let parse_spec_canonical s =
  let int_field name tok =
    Option.bind (strip_prefix (name ^ "=") tok) int_of_string_opt
  in
  match String.split_on_char ',' s with
  | [ b; ci; hi; wi; co; kh; kw; st; ph; pw; g ] -> begin
    match
      ( int_field "batch" b, int_field "cin" ci, int_field "hin" hi,
        int_field "win" wi, int_field "cout" co, int_field "kh" kh,
        int_field "kw" kw, int_field "stride" st, int_field "padh" ph,
        int_field "padw" pw, int_field "groups" g )
    with
    | ( Some batch, Some c_in, Some h_in, Some w_in, Some c_out, Some k_h,
        Some k_w, Some stride, Some pad_h, Some pad_w, Some groups ) -> begin
      match
        Conv.Conv_spec.make ~batch ~pad_h ~pad_w ~stride ~groups ~c_in ~h_in
          ~w_in ~c_out ~k_h ~k_w ()
      with
      | spec when String.equal (Conv.Conv_spec.canonical spec) s -> Some spec
      | _ -> None
      | exception Invalid_argument _ -> None
    end
    | _ -> None
  end
  | _ -> None

let parse_canonical s =
  (* arch=<name>;<spec>;algo=<tok>;pruned=<bool> — the architecture name may
     contain spaces and the spec commas; neither contains a semicolon. *)
  match String.split_on_char ';' s with
  | [ arch_f; spec_f; algo_f; pruned_f ] ->
    let ( let* ) = Option.bind in
    let* name = strip_prefix "arch=" arch_f in
    let* arch = Gpu_sim.Arch.by_name name in
    let* spec = parse_spec_canonical spec_f in
    let* algo_tok = strip_prefix "algo=" algo_f in
    let* algorithm =
      if String.equal algo_tok "direct" then Some Core.Config.Direct_dataflow
      else
        Option.bind (strip_prefix "winograd:" algo_tok) (fun e ->
            Option.map (fun e -> Core.Config.Winograd_dataflow e) (int_of_string_opt e))
    in
    let* pruned_tok = strip_prefix "pruned=" pruned_f in
    let* pruned =
      match pruned_tok with "true" -> Some true | "false" -> Some false | _ -> None
    in
    if String.equal (Core.Search_space.canonical_key arch spec algorithm ~pruned) s
    then Some (arch, spec, algorithm, pruned)
    else None
  | _ -> None

(* --- verdicts ------------------------------------------------------------ *)

type reason =
  | Canonical_unparseable of string
  | Key_mismatch of { claimed : string; derived : string }
  | Empty_domain of string
  | Not_in_domain of Core.Search_space.invalid
  | Unlaunchable of Gpu_sim.Kernel_cost.launch_error
  | Cost_not_finite of { field : string; value : float }
  | Gflops_inconsistent of { claimed : float; derived : float }
  | Reprice_drift of { field : string; claimed : float; derived : float }
  | Runtime_implausible of { runtime_us : float; predicted_us : float; rel : float }
  | Q_bound_violated of { q_ratio : float }

type verdict = Ok | Suspect of reason list

type policy = {
  label : string;
  rel : float;
  runtime_abs : float;
  gflops_abs : float;
  band : float;
  q_slack : float;
}

(* The 5% band: [Gpu_sim.Measure] perturbs the analytic price by at most
   +-3% (robust aggregation filters the unbounded outliers), so an honest
   measured runtime never strays further than that from the reprice; 5%
   leaves margin without admitting a swapped config, whose price differs by
   integer factors.  The wire band adds the [%.6f] rounding. *)
let strict =
  { label = "strict"; rel = 0.0; runtime_abs = 0.0; gflops_abs = 0.0;
    band = 0.05; q_slack = 1e-6 }

let wire =
  { label = "wire"; rel = 1e-5; runtime_abs = 1e-5; gflops_abs = 0.011;
    band = 0.06; q_slack = 1e-6 }

(* Bit-level equality under the strict policy — NaN payloads included, so a
   quantity that re-derives to the same NaN is agreement, not drift. *)
let float_agrees policy ~abs claimed derived =
  if policy.rel = 0.0 && abs = 0.0 then
    Int64.equal (Int64.bits_of_float claimed) (Int64.bits_of_float derived)
  else
    Float.is_finite claimed && Float.is_finite derived
    && Float.abs (claimed -. derived) <= abs +. (policy.rel *. Float.abs derived)

let check ?(policy = strict) ?key ?gflops ?predicted_us:claimed_predicted
    ?q_ratio:claimed_q ~canonical ~config ~runtime_us () =
  match parse_canonical canonical with
  | None -> Suspect [ Canonical_unparseable canonical ]
  | Some (arch, spec, algorithm, pruned) ->
    let problems = ref [] in
    let flag r = problems := r :: !problems in
    (* 1. Content address. *)
    (match key with
    | Some claimed ->
      let derived = content_key canonical in
      if not (String.equal claimed derived) then flag (Key_mismatch { claimed; derived })
    | None -> ());
    (* 2. Domain membership, by the space's arithmetic predicate: an admitted
       config needs no enumeration, and [admits] raises [make]'s own message
       for a domain [make] refuses before enumerating.  A refused config
       builds the domain only to tell an empty domain from a config outside
       a real one, whose reason [admits] already gave. *)
    (match Core.Search_space.admits ~pruned arch spec algorithm config with
    | Ok () -> ()
    | exception Invalid_argument msg -> flag (Empty_domain msg)
    | Error why -> (
      match Core.Search_space.make ~pruned arch spec algorithm with
      | exception Invalid_argument msg -> flag (Empty_domain msg)
      | _ -> flag (Not_in_domain why)));
    (* 3. Launch feasibility, via the typed checker on the bare geometry. *)
    (match
       Gpu_sim.Kernel_cost.make ~flops:1.0 ~io_elems:1.0
         ~threads_per_block:(Core.Config.threads config)
         ~shmem_bytes_per_block:(Core.Config.shmem_bytes spec config)
         ~blocks:(Core.Config.blocks spec config) ()
     with
    | exception Invalid_argument _ ->
      flag
        (Unlaunchable
           (Gpu_sim.Kernel_cost.Bad_geometry
              {
                threads_per_block = Core.Config.threads config;
                blocks = Core.Config.blocks spec config;
                shmem_bytes_per_block = Core.Config.shmem_bytes spec config;
              }))
    | probe -> (
      match Gpu_sim.Kernel_cost.check arch probe with
      | Ok () -> ()
      | Error e -> flag (Unlaunchable e)));
    (* 4. Costs: finite, positive, and consistent with the analytic model. *)
    let runtime_usable = Float.is_finite runtime_us && runtime_us > 0.0 in
    if not runtime_usable then
      flag (Cost_not_finite { field = "runtime_us"; value = runtime_us });
    let derived_predicted = predicted_us arch spec config in
    if not (Float.is_finite derived_predicted && derived_predicted > 0.0) then
      flag (Cost_not_finite { field = "predicted_us"; value = derived_predicted })
    else begin
      (match claimed_predicted with
      | Some claimed
        when not (float_agrees policy ~abs:policy.runtime_abs claimed derived_predicted)
        ->
        flag (Reprice_drift { field = "predicted_us"; claimed; derived = derived_predicted })
      | _ -> ());
      if runtime_usable then begin
        let rel = Float.abs ((runtime_us /. derived_predicted) -. 1.0) in
        if not (rel <= policy.band) then
          flag (Runtime_implausible { runtime_us; predicted_us = derived_predicted; rel })
      end
    end;
    (match gflops with
    | Some claimed when runtime_usable ->
      let derived = Core.Tuner.nominal_gflops spec ~runtime_us in
      if not (float_agrees policy ~abs:policy.gflops_abs claimed derived) then
        flag (Gflops_inconsistent { claimed; derived })
    | _ -> ());
    (* 5. The paper's I/O lower bound.  When the bound itself degenerates
       (non-finite or non-positive denominator) it cannot convict anyone;
       the claimed ratio must still re-derive. *)
    let q_num, q_den = q_parts arch spec config in
    let q = q_num /. q_den in
    (match claimed_q with
    | Some claimed when not (float_agrees policy ~abs:0.0 claimed q) ->
      flag (Reprice_drift { field = "q_ratio"; claimed; derived = q })
    | _ -> ());
    if Float.is_finite q_den && q_den > 0.0 then begin
      if not (Float.is_finite q) then
        flag (Cost_not_finite { field = "q_ratio"; value = q })
      else if q < 1.0 -. policy.q_slack then flag (Q_bound_violated { q_ratio = q })
    end;
    (match List.rev !problems with [] -> Ok | ps -> Suspect ps)

(* --- rendering ----------------------------------------------------------- *)

let reason_token = function
  | Canonical_unparseable _ -> "canonical-unparseable"
  | Key_mismatch _ -> "key-mismatch"
  | Empty_domain _ -> "empty-domain"
  | Not_in_domain _ -> "not-in-domain"
  | Unlaunchable _ -> "unlaunchable"
  | Cost_not_finite _ -> "cost-not-finite"
  | Gflops_inconsistent _ -> "gflops-inconsistent"
  | Reprice_drift _ -> "reprice-drift"
  | Runtime_implausible _ -> "runtime-implausible"
  | Q_bound_violated _ -> "q-bound-violated"

let reason_to_string = function
  | Canonical_unparseable s -> Printf.sprintf "canonical string does not parse: %S" s
  | Key_mismatch { claimed; derived } ->
    Printf.sprintf "content key %s is not the canonical's hash %s" claimed derived
  | Empty_domain msg -> Printf.sprintf "search space rejects the request: %s" msg
  | Not_in_domain why ->
    Printf.sprintf "config outside the domain: %s" (Core.Search_space.invalid_to_string why)
  | Unlaunchable e ->
    Printf.sprintf "config cannot launch: %s" (Gpu_sim.Kernel_cost.launch_error_to_string e)
  | Cost_not_finite { field; value } ->
    Printf.sprintf "%s is not finite and positive (%h)" field value
  | Gflops_inconsistent { claimed; derived } ->
    Printf.sprintf "gflops %.4f disagree with nominal %.4f" claimed derived
  | Reprice_drift { field; claimed; derived } ->
    Printf.sprintf "%s %h does not re-derive (%h)" field claimed derived
  | Runtime_implausible { runtime_us; predicted_us; rel } ->
    Printf.sprintf "runtime %.3fus implausible vs analytic %.3fus (rel %.3f)"
      runtime_us predicted_us rel
  | Q_bound_violated { q_ratio } ->
    Printf.sprintf "dataflow traffic below the I/O lower bound (ratio %h)" q_ratio

let verdict_to_string = function
  | Ok -> "ok"
  | Suspect reasons ->
    "suspect: " ^ String.concat "," (List.map reason_token reasons)
