(* Ground-truth verification suite (the @verify-smoke / @verify-deep gate).

   Two pillars:

   - the exact pebble-game oracle: for a grid of small conv/matmul/Winograd
     DAGs, [analytic lower bound <= Q_opt(S) <= attainable schedule cost] —
     the paper's bounds sandwiched between ground truth and real plays;
   - the differential conformance harness: every convolution implementation
     against the direct reference under qcheck-generated specs (with
     shrinking), analytic I/O formulas against instrumented traffic
     counters, and GPU cost-model monotonicity invariants.

   VERIFY_DEEP=1 enlarges the grid, budgets and case counts (the
   @verify-deep alias); the default smoke configuration stays well under the
   15s runtest budget. *)

module G = Dag.Graph
module PG = Pebble.Pebble_game
module Oracle = Verify.Oracle
module Sandwich = Verify.Sandwich

let deep = Sys.getenv_opt "VERIFY_DEEP" <> None

(* ~10x headroom over the worst grid instance in each configuration. *)
let budget = if deep then 8_000_000 else 1_000_000

(* --- oracle unit checks on hand-verifiable DAGs --- *)

let test_oracle_single_sum () =
  (* c = a + b: load a, load b, compute c, store c — exactly 3 I/Os. *)
  let g = G.create () in
  let a = G.add_input g in
  let b = G.add_input g in
  let _c = G.add_compute g ~step:1 ~preds:[ a; b ] in
  List.iter
    (fun s ->
      Alcotest.(check int) (Printf.sprintf "Q_opt(%d)" s) 3 (Oracle.q_opt_exn g ~s))
    [ 3; 4; 8 ]

let test_oracle_chain () =
  (* a -> v1 -> v2: one load, one store, intermediates never touch slow
     memory once two pebbles are available. *)
  let g = G.create () in
  let a = G.add_input g in
  let v1 = G.add_compute g ~step:1 ~preds:[ a ] in
  let _v2 = G.add_compute g ~step:1 ~preds:[ v1 ] in
  Alcotest.(check int) "Q_opt(2)" 2 (Oracle.q_opt_exn g ~s:2);
  Alcotest.(check int) "Q_opt(3)" 2 (Oracle.q_opt_exn g ~s:3)

let test_oracle_shared_input () =
  (* Two outputs both reading input a: a is loaded once and kept red while
     both are computed — 2 inputs' loads would be wrong. *)
  let g = G.create () in
  let a = G.add_input g in
  let b = G.add_input g in
  let _o1 = G.add_compute g ~step:1 ~preds:[ a; b ] in
  let _o2 = G.add_compute g ~step:1 ~preds:[ a; b ] in
  Alcotest.(check int) "Q_opt(3)" 4 (Oracle.q_opt_exn g ~s:3)

let test_oracle_unlimited_memory_is_compulsory () =
  (* With S >= |V| nothing is ever evicted: Q_opt = used inputs + outputs. *)
  List.iter
    (fun inst ->
      let s = G.num_vertices inst.Sandwich.graph + 1 in
      Alcotest.(check int)
        (inst.Sandwich.name ^ " compulsory")
        (Sandwich.compulsory_io inst.Sandwich.graph)
        (Oracle.q_opt_exn ~budget inst.Sandwich.graph ~s))
    [
      Sandwich.matmul_instance ~m:1 ~k:2 ~n:1 ();
      Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 ();
      Sandwich.conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 ();
      Sandwich.winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 ();
    ]

let test_oracle_monotone_in_s () =
  let inst = Sandwich.conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 () in
  let prev = ref max_int in
  List.iter
    (fun s ->
      let q = Oracle.q_opt_exn ~budget inst.Sandwich.graph ~s in
      Alcotest.(check bool)
        (Printf.sprintf "Q_opt(%d) = %d <= Q_opt(smaller) = %d" s q !prev)
        true (q <= !prev);
      prev := q)
    [ 3; 4; 5; 6; 8; 16 ]

let test_oracle_witness_replays () =
  let inst = Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 () in
  match Oracle.solve ~budget inst.Sandwich.graph ~s:3 with
  | Oracle.Budget_exhausted _ -> Alcotest.fail "budget exhausted on 12-vertex DAG"
  | Oracle.Optimal { q_opt; moves; _ } -> (
    match PG.trace inst.Sandwich.graph ~s:3 moves with
    | Error msg -> Alcotest.fail ("witness illegal: " ^ msg)
    | Ok final ->
      Alcotest.(check bool) "complete" true (PG.complete inst.Sandwich.graph final);
      Alcotest.(check int) "witness I/O = q_opt" q_opt (PG.state_io final))

(* The default solver explores WLOG-normalised plays (spill-on-evict
   compounds, outputs stored as computed); the Reference mode explores raw
   single moves.  They must find the same optimum — this is the safety net
   under the normalisation exchange arguments. *)
let test_oracle_normalized_matches_reference () =
  let instances =
    [
      Sandwich.matmul_instance ~m:1 ~k:2 ~n:1 ();
      Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 ();
      Sandwich.matmul_instance ~m:1 ~k:3 ~n:1 ();
      Sandwich.conv_instance ~w:3 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:1 ();
      Sandwich.conv_instance ~w:2 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:2 ();
      Sandwich.winograd_instance ~tiles_w:2 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 ();
    ]
  in
  List.iter
    (fun inst ->
      List.iter
        (fun s ->
          let reference =
            Oracle.q_opt_exn ~budget ~mode:Oracle.Reference inst.Sandwich.graph ~s
          in
          let normalized =
            Oracle.q_opt_exn ~budget ~mode:Oracle.Normalized inst.Sandwich.graph ~s
          in
          Alcotest.(check int)
            (Printf.sprintf "%s S=%d" inst.Sandwich.name s)
            reference normalized)
        [ 3; 4 ])
    instances

let test_oracle_want_witness_off () =
  let inst = Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 () in
  match
    ( Oracle.solve ~budget inst.Sandwich.graph ~s:3,
      Oracle.solve ~budget ~want_witness:false inst.Sandwich.graph ~s:3 )
  with
  | Oracle.Optimal with_w, Oracle.Optimal without_w ->
    Alcotest.(check int) "same q_opt" with_w.q_opt without_w.q_opt;
    Alcotest.(check int) "same expansion count" with_w.expanded without_w.expanded;
    Alcotest.(check bool) "no moves without witness" true (without_w.moves = []);
    Alcotest.(check bool) "moves with witness" true (with_w.moves <> [])
  | _ -> Alcotest.fail "budget exhausted on 12-vertex DAG"

let test_oracle_rejects_bad_args () =
  let inst = Sandwich.matmul_instance ~m:1 ~k:2 ~n:1 () in
  Alcotest.check_raises "s below min_red"
    (Invalid_argument "Oracle.solve: fast memory too small to compute every vertex")
    (fun () -> ignore (Oracle.solve inst.Sandwich.graph ~s:2));
  (* One vertex past the packed-key limit: a chain of 32 on 64-bit hosts. *)
  let limit = (Sys.int_size - 1) / 2 in
  let g = G.create () in
  let v = ref (G.add_input g) in
  for _ = 1 to limit do
    v := G.add_compute g ~step:1 ~preds:[ !v ]
  done;
  Alcotest.check_raises "too many vertices"
    (Invalid_argument
       (Printf.sprintf "Oracle.solve: %d vertices exceed the %d-vertex limit" (limit + 1)
          limit))
    (fun () -> ignore (Oracle.solve g ~s:2))

(* --- the sandwich grid --- *)

(* Q_opt of every (instance, S) pair of the smoke and deep grids.  Two
   independent engines agreed on each value: the frontier engine and an
   earlier per-state hashtable A* (at an 8M-state budget for the deep
   pairs).  The oracle is deterministic, so on a fixed grid its answers are
   constants. *)
let pinned_q_opt =
  [
    ("matmul 1x2x1", 3, 7);
    ("matmul 1x2x1", 4, 5);
    ("matmul 2x2x1", 3, 13);
    ("matmul 2x2x1", 4, 9);
    ("matmul 1x2x2", 3, 13);
    ("matmul 1x2x2", 5, 8);
    ("matmul 1x3x1", 3, 11);
    ("matmul 1x3x1", 4, 7);
    ("matmul 1x4x1", 3, 15);
    ("matmul 1x4x1", 4, 9);
    ("matmul 3x2x1", 3, 19);
    ("matmul 3x2x1", 4, 13);
    ("conv 2x2x1 k2x2 s1 ->1", 3, 15);
    ("conv 2x2x1 k2x2 s1 ->1", 4, 9);
    ("conv 2x2x1 k2x2 s1 ->1", 6, 9);
    ("conv 2x1x1 k2x1 s1 ->2", 3, 13);
    ("conv 2x1x1 k2x1 s1 ->2", 4, 9);
    ("conv 4x1x1 k2x1 s1 ->1", 3, 18);
    ("conv 4x1x1 k2x1 s1 ->1", 4, 13);
    ("conv 3x1x1 k2x1 s1 ->1", 3, 12);
    ("conv 3x1x1 k2x1 s1 ->1", 4, 9);
    ("conv 4x1x1 k2x1 s2 ->1", 3, 13);
    ("conv 4x1x1 k2x1 s2 ->1", 4, 9);
    ("conv 3x1x1 k1x1 s2 ->1", 3, 5);
    ("winograd F(1x1,1x1) 1x1 tiles 1->1", 3, 3);
    ("winograd F(1x1,1x1) 2x1 tiles 1->1", 3, 5);
    ("winograd F(1x1,1x1) 2x1 tiles 1->1", 4, 5);
    ("winograd F(1x1,1x1) 2x2 tiles 1->1", 3, 9);
    ("winograd F(1x1,1x1) 2x2 tiles 1->1", 4, 9);
    ("winograd F(1x1,1x1) 1x1 tiles 2->1", 3, 7);
    ("winograd F(1x1,1x1) 1x1 tiles 2->1", 4, 5);
    ("winograd F(1x1,1x1) 1x1 tiles 1->2", 3, 5);
    ("winograd F(1x1,1x1) 1x1 tiles 1->2", 4, 5);
    ("matmul 2x2x2", 4, 17);
    ("matmul 2x2x2", 5, 14);
    ("matmul 2x3x1", 3, 20);
    ("matmul 2x3x1", 4, 14);
    ("conv 2x1x2 k2x1 s1 ->1", 3, 15);
    ("conv 2x1x2 k2x1 s1 ->1", 4, 9);
    ("conv 4x1x1 k3x1 s1 ->1", 3, 18);
    ("conv 4x1x1 k3x1 s1 ->1", 4, 13);
    ("winograd F(1x1,1x1) 3x1 tiles 1->1", 3, 7);
    ("winograd F(1x1,1x1) 3x1 tiles 1->1", 4, 7);
    ("winograd F(1x1,1x1) 4x1 tiles 1->1", 5, 9);
    ("winograd F(1x1,1x1) 4x1 tiles 1->1", 6, 9);
    ("winograd F(1x1,1x1) 1x1 tiles 4->1", 4, 9);
    ("winograd F(1x1,1x1) 1x1 tiles 4->1", 5, 9);
  ]

let pinned name s =
  match List.find_opt (fun (n, s', _) -> n = name && s' = s) pinned_q_opt with
  | Some (_, _, q) -> q
  | None -> Alcotest.failf "%s S=%d: no pinned q_opt" name s

let test_sandwich_grid () =
  let checks = ref 0 in
  List.iter
    (fun (inst, ss) ->
      List.iter
        (fun s ->
          match Sandwich.check ~budget inst ~s with
          | Error expanded ->
            Alcotest.failf "%s S=%d: oracle budget exhausted after %d states"
              inst.Sandwich.name s expanded
          | Ok c ->
            incr checks;
            Alcotest.(check int)
              (Printf.sprintf "%s S=%d pinned q_opt" inst.Sandwich.name s)
              (pinned inst.Sandwich.name s) c.Sandwich.q_opt;
            if not c.Sandwich.holds then
              Alcotest.failf "sandwich violated: %s"
                (Format.asprintf "%a" Sandwich.pp_check c))
        ss)
    (Sandwich.grid ~deep);
  Alcotest.(check bool)
    (Printf.sprintf "at least 30 sandwiches verified (got %d)" !checks)
    true (!checks >= 30);
  (* The largest grid instance, a 24-vertex Winograd tile (~421k states),
     also runs in the smoke configuration, without a witness. *)
  if not deep then begin
    let inst = Sandwich.winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:4 ~cout:1 ~e:1 ~r:1 () in
    Alcotest.(check int)
      (inst.Sandwich.name ^ " S=4 pinned q_opt")
      (pinned inst.Sandwich.name 4)
      (Oracle.q_opt_exn ~budget inst.Sandwich.graph ~s:4)
  end

(* The schedules the repo relies on elsewhere are never optimal by accident:
   at a constrained S the oracle strictly beats the generic by-step order on
   at least one instance, i.e. the oracle really searches (a solver that just
   replayed a schedule could not return a smaller value). *)
let test_oracle_beats_by_step_somewhere () =
  let inst = Sandwich.conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 () in
  let dag_costs = inst.Sandwich.upper_costs ~s:3 in
  let q = Oracle.q_opt_exn ~budget inst.Sandwich.graph ~s:3 in
  let worst = List.fold_left (fun acc (_, c) -> max acc c) 0 dag_costs in
  Alcotest.(check bool)
    (Printf.sprintf "Q_opt %d < worst schedule %d" q worst)
    true (q < worst)

(* --- answer-integrity audit ------------------------------------------- *)

module Audit = Verify.Audit

let audit_arches = Gpu_sim.Arch.all

let audit_specs =
  [
    Conv.Conv_spec.square ~c_in:16 ~size:16 ~c_out:16 ~k:3 ~pad:1 ();
    Conv.Conv_spec.square ~c_in:8 ~size:8 ~c_out:32 ~k:1 ();
    Conv.Conv_spec.square ~c_in:32 ~size:14 ~c_out:64 ~k:3 ();
  ]

(* A genuine answer tuple as the service would produce it: a sampled member
   of the pruned space, priced by the noise-free cost model. *)
type audit_claim = {
  canonical : string;
  key : string;
  config : Core.Config.t;
  runtime_us : float;
  gflops : float;
  predicted : float;
  q : float;
}

let claim_of ~arch_i ~spec_i ~cfg_seed =
  let arch = List.nth audit_arches (arch_i mod List.length audit_arches) in
  let spec = List.nth audit_specs (spec_i mod List.length audit_specs) in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let config = Core.Search_space.sample space (Util.Rng.create cfg_seed) in
  let canonical = Core.Search_space.canonical space in
  let predicted = Audit.predicted_us arch spec config in
  ( space,
    arch,
    spec,
    {
      canonical;
      key = Audit.content_key canonical;
      config;
      runtime_us = predicted;
      gflops = Core.Tuner.nominal_gflops spec ~runtime_us:predicted;
      predicted;
      q = Audit.q_ratio arch spec config;
    } )

let check_claim c =
  Audit.check ~key:c.key ~gflops:c.gflops ~predicted_us:c.predicted
    ~q_ratio:c.q ~canonical:c.canonical ~config:c.config
    ~runtime_us:c.runtime_us ()

let has_token tok = function
  | Audit.Ok -> false
  | Audit.Suspect reasons ->
    List.exists (fun r -> Audit.reason_token r = tok) reasons

(* Replace hex digit [i] with the next one — guaranteed to change the key. *)
let flip_hex s i =
  let i = i mod String.length s in
  let hex = "0123456789abcdef" in
  let b = Bytes.of_string s in
  Bytes.set b i hex.[(String.index hex s.[i] + 1) mod 16];
  Bytes.to_string b

(* Bump the first decimal digit at or after [j] (cyclic) — a canonical
   string always contains digits, and the result is a different string. *)
let bump_digit s j =
  let n = String.length s in
  let rec find k =
    if k >= n then None
    else
      let i = (j + k) mod n in
      match s.[i] with '0' .. '9' -> Some i | _ -> find (k + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    let b = Bytes.of_string s in
    Bytes.set b i (if s.[i] = '9' then '0' else Char.chr (Char.code s.[i] + 1));
    Bytes.to_string b

(* Another valid member of the same domain whose analytic price differs
   bitwise from [config]'s — so swapping it in is always observable. *)
let alt_tile_config space config arch spec =
  let orig = Audit.predicted_us arch spec config in
  let tiles = Core.Search_space.tile_candidates space in
  let rec go i =
    if i >= Array.length tiles then None
    else
      let cand = Core.Search_space.config_for_tile space tiles.(i) in
      if cand <> config && Audit.predicted_us arch spec cand <> orig then
        Some cand
      else go (i + 1)
  in
  go 0

let test_audit_genuine_ok () =
  List.iteri
    (fun arch_i _ ->
      List.iteri
        (fun spec_i _ ->
          let _, _, _, c = claim_of ~arch_i ~spec_i ~cfg_seed:7 in
          match check_claim c with
          | Audit.Ok -> ()
          | v ->
            Alcotest.failf "genuine claim rejected: %s" (Audit.verdict_to_string v))
        audit_specs)
    audit_arches

let test_audit_reason_tokens () =
  let _, _, _, c = claim_of ~arch_i:1 ~spec_i:0 ~cfg_seed:3 in
  Alcotest.(check bool)
    "key flip -> key-mismatch" true
    (has_token "key-mismatch" (check_claim { c with key = flip_hex c.key 0 }));
  Alcotest.(check bool)
    "runtime x2 -> runtime-implausible" true
    (has_token "runtime-implausible"
       (check_claim { c with runtime_us = c.runtime_us *. 2.0 }));
  Alcotest.(check bool)
    "predicted drift -> reprice-drift" true
    (has_token "reprice-drift"
       (check_claim { c with predicted = c.predicted *. 1.5 }));
  Alcotest.(check bool)
    "gflops drift -> gflops-inconsistent" true
    (has_token "gflops-inconsistent"
       (check_claim { c with gflops = c.gflops +. 1.0 }));
  Alcotest.(check bool)
    "garbage canonical -> canonical-unparseable" true
    (has_token "canonical-unparseable"
       (check_claim { c with canonical = "not a canonical string" }))

(* Mutation [m mod 7] of a genuine claim: one field changed so that the
   audit can observe it (runtime factors sit outside the 5% noise band;
   hex/digit bumps always change the string; the config swap is filtered
   to a bitwise-different analytic price). *)
let mutate space arch spec c (m, j) =
  let f = [| 0.5; 0.8; 1.25; 2.0 |].(j mod 4) in
  match m mod 7 with
  | 0 -> { c with key = flip_hex c.key j }
  | 1 -> { c with runtime_us = c.runtime_us *. f }
  | 2 -> { c with gflops = c.gflops *. f }
  | 3 -> { c with predicted = c.predicted *. f }
  | 4 -> { c with q = c.q *. f }
  | 5 -> { c with canonical = bump_digit c.canonical j }
  | _ -> (
    match alt_tile_config space c.config arch spec with
    | Some cand -> { c with config = cand }
    | None -> { c with key = flip_hex c.key j })

(* The tentpole property: a genuine tuple audits [Ok]; any single-field
   mutation that changes an audited value is rejected, so the property is
   exactly "mutated => Suspect". *)
let qcheck_audit_mutation =
  let count = if deep then 500 else 120 in
  QCheck.Test.make ~count
    ~name:"single-field mutations of a genuine tuple are rejected"
    QCheck.(pair (triple small_nat small_nat small_nat) (pair small_nat small_nat))
    (fun ((arch_i, spec_i, cfg_seed), (m, j)) ->
      let space, arch, spec, c = claim_of ~arch_i ~spec_i ~cfg_seed in
      (match check_claim c with
      | Audit.Ok -> ()
      | v ->
        QCheck.Test.fail_reportf "genuine claim rejected: %s"
          (Audit.verdict_to_string v));
      match check_claim (mutate space arch spec c (m, j)) with
      | Audit.Suspect _ -> true
      | Audit.Ok ->
        QCheck.Test.fail_reportf "mutation %d (factor %g) accepted" (m mod 7)
          [| 0.5; 0.8; 1.25; 2.0 |].(j mod 4))

(* Step 2 of the audit as it ran before [Search_space.admits]: build the
   domain, then look the tile up in its array and validate the rest. *)
let reference_domain_reasons c =
  match Audit.parse_canonical c.canonical with
  | None -> []
  | Some (arch, spec, algorithm, pruned) -> (
    match Core.Search_space.make ~pruned arch spec algorithm with
    | exception Invalid_argument msg -> [ Audit.Empty_domain msg ]
    | space -> (
      let cfg = c.config in
      let tile = (cfg.tile_x, cfg.tile_y, cfg.tile_z) in
      let listed = Array.exists (( = ) tile) (Core.Search_space.tile_candidates space) in
      match Core.Search_space.validate space cfg with
      | Error (Core.Search_space.Wrong_algorithm _ as why) -> [ Audit.Not_in_domain why ]
      | _ when not listed -> [ Audit.Not_in_domain (Tile_not_in_domain { tile }) ]
      | Error (Tile_not_in_domain _) -> Alcotest.fail "validate refuses a listed tile"
      | Ok () -> []
      | Error why -> [ Audit.Not_in_domain why ]))

(* The reference verdict: the audit's own reasons with its domain step
   replaced by the reference's, in the same place (after the key check). *)
let reference_verdict c =
  let reasons = match check_claim c with Audit.Ok -> [] | Audit.Suspect rs -> rs in
  let domain = function Audit.Empty_domain _ | Audit.Not_in_domain _ -> true | _ -> false in
  let keyed, rest =
    List.partition (function Audit.Key_mismatch _ -> true | _ -> false) reasons
  in
  match keyed @ reference_domain_reasons c @ List.filter (fun r -> not (domain r)) rest with
  | [] -> Audit.Ok
  | rs -> Audit.Suspect rs

let render = function
  | Audit.Ok -> [ "ok" ]
  | Audit.Suspect rs -> List.map Audit.reason_to_string rs

(* A claim whose canonical names [algorithm] on [spec], a domain [make]
   refuses to build, carrying a 1x1x1 direct config priced as if genuine. *)
let refused_claim arch spec algorithm =
  let canonical = Core.Search_space.canonical_key arch spec algorithm ~pruned:true in
  let config =
    { Core.Config.algorithm = Direct_dataflow; layout = Tensor.Layout.CHW; tile_x = 1;
      tile_y = 1; tile_z = 1; threads_x = 1; threads_y = 1; threads_z = 1; unroll = 1;
      vector_width = 1; double_buffer = false }
  in
  let predicted = Audit.predicted_us arch spec config in
  { canonical; key = Audit.content_key canonical; config; runtime_us = predicted;
    gflops = Core.Tuner.nominal_gflops spec ~runtime_us:predicted; predicted;
    q = Audit.q_ratio arch spec config }

(* The audit's verdict and reasons equal the make + validate reference on
   the genuine claims, the mutation generator's claims, configs moved off
   the domain one field at a time, an empty domain (an 11x11 kernel over an
   11x11 input: one output pixel never reaches the pruned xy ~ Rz) and an
   unsupported Winograd request (stride 2). *)
let test_audit_matches_make_reference () =
  let claims =
    List.concat_map
      (fun arch_i ->
        List.concat_map
          (fun spec_i ->
            List.concat_map
              (fun cfg_seed ->
                let space, arch, spec, c = claim_of ~arch_i ~spec_i ~cfg_seed in
                let cfg = c.config in
                let outside =
                  List.map
                    (fun config -> { c with config })
                    [ { cfg with tile_x = 3 }; { cfg with tile_y = cfg.tile_y + 1 };
                      { cfg with tile_z = 3 * cfg.tile_z };
                      { cfg with threads_x = 2 * cfg.tile_x }; { cfg with unroll = 3 };
                      { cfg with algorithm = Core.Config.Winograd_dataflow 1 } ]
                in
                (c :: List.init 14 (fun m -> mutate space arch spec c (m, m + cfg_seed)))
                @ outside)
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  let v100 = Gpu_sim.Arch.v100 in
  let refused =
    [
      refused_claim v100
        (Conv.Conv_spec.square ~c_in:1 ~size:11 ~c_out:1 ~k:11 ())
        Core.Config.Direct_dataflow;
      refused_claim v100
        (Conv.Conv_spec.square ~c_in:16 ~size:16 ~c_out:16 ~k:3 ~stride:2 ())
        (Core.Config.Winograd_dataflow 2);
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s" c.canonical (Core.Config.to_compact c.config))
        (render (reference_verdict c)) (render (check_claim c)))
    (claims @ refused);
  List.iter
    (fun c ->
      Alcotest.(check bool) "empty-domain reported" true
        (has_token "empty-domain" (check_claim c)))
    refused;
  Alcotest.(check bool) "some claim is not-in-domain" true
    (List.exists (fun c -> has_token "not-in-domain" (check_claim c)) claims)

(* The published FNV-1a 64 test vectors, and one canonical's key as the
   service has always computed it. *)
let test_content_key_vectors () =
  List.iter
    (fun (s, key) -> Alcotest.(check string) (Printf.sprintf "%S" s) key (Audit.content_key s))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
      ( "arch=V100;batch=1,cin=64,hin=56,win=56,cout=64,kh=3,kw=3,stride=1,padh=0,padw=0,\
         groups=1;algo=direct;pruned=true",
        "28dce1a2bee51331" );
    ]

(* An allocation ceiling on one audit of a genuine claim: V100, 64->64 3x3
   over 56x56, direct, [default_config].  Minor words on the calling domain
   repeat exactly.  The audit allocated 37,575 words while it built the
   whole search space to test membership, and 1,113 once membership became
   an arithmetic predicate and the content key stopped boxing its hash; the
   ceiling is 1.1x the latter. *)
let test_audit_allocation_ceiling () =
  let arch = Gpu_sim.Arch.v100 in
  let spec = Conv.Conv_spec.square ~c_in:64 ~size:56 ~c_out:64 ~k:3 () in
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let config = Core.Search_space.default_config space in
  let canonical = Core.Search_space.canonical space in
  let predicted = Audit.predicted_us arch spec config in
  let c =
    { canonical; key = Audit.content_key canonical; config; runtime_us = predicted;
      gflops = Core.Tuner.nominal_gflops spec ~runtime_us:predicted; predicted;
      q = Audit.q_ratio arch spec config }
  in
  Alcotest.(check string) "genuine" "ok" (Audit.verdict_to_string (check_claim c));
  let before = Gc.minor_words () in
  let v = check_claim c in
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "still genuine" "ok" (Audit.verdict_to_string v);
  let ceiling = 1.1 *. 1_113. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words ceiling)
    true (words <= ceiling)

let () =
  let conformance =
    List.map QCheck_alcotest.to_alcotest (Verify.Conformance.all_tests ~deep)
  in
  Alcotest.run "verify"
    [
      ( "oracle",
        [
          Alcotest.test_case "single sum" `Quick test_oracle_single_sum;
          Alcotest.test_case "chain" `Quick test_oracle_chain;
          Alcotest.test_case "shared input" `Quick test_oracle_shared_input;
          Alcotest.test_case "unlimited memory = compulsory" `Quick
            test_oracle_unlimited_memory_is_compulsory;
          Alcotest.test_case "monotone in S" `Quick test_oracle_monotone_in_s;
          Alcotest.test_case "witness replays through step API" `Quick
            test_oracle_witness_replays;
          Alcotest.test_case "normalized search matches reference search" `Quick
            test_oracle_normalized_matches_reference;
          Alcotest.test_case "want_witness:false skips the moves" `Quick
            test_oracle_want_witness_off;
          Alcotest.test_case "rejects bad arguments" `Quick test_oracle_rejects_bad_args;
          Alcotest.test_case "oracle beats worst schedule" `Quick
            test_oracle_beats_by_step_somewhere;
        ] );
      ("sandwich", [ Alcotest.test_case "grid" `Quick test_sandwich_grid ]);
      ( "audit",
        [
          Alcotest.test_case "genuine claims audit Ok" `Quick test_audit_genuine_ok;
          Alcotest.test_case "tampering yields typed reasons" `Quick
            test_audit_reason_tokens;
          QCheck_alcotest.to_alcotest qcheck_audit_mutation;
          Alcotest.test_case "verdicts equal the make + validate reference" `Quick
            test_audit_matches_make_reference;
          Alcotest.test_case "content key: FNV-1a 64 vectors" `Quick test_content_key_vectors;
          Alcotest.test_case "audit allocation ceiling" `Quick test_audit_allocation_ceiling;
        ] );
      ("conformance", conformance);
    ]
