module G = Dag.Graph
module PG = Pebble.Pebble_game

type instance = {
  name : string;
  graph : G.t;
  lower_bound : s:int -> float;
  upper_costs : s:int -> (string * int) list;
}

type check = {
  instance : string;
  s : int;
  analytic_lower : float;
  compulsory_lower : int;
  q_opt : int;
  schedule_upper : int;
  expanded : int;
  holds : bool;
}

(* Every used input must be loaded at least once (inputs cannot be computed)
   and every output stored at least once — true for any play of the game,
   independent of the paper's bounds, so a second, unconditional floor under
   [q_opt].  An input nothing reads (a pixel a strided conv skips) is a sink
   but not an output: it starts in slow memory and costs no I/O. *)
let compulsory_io g =
  let used_inputs = ref 0 and outputs = ref 0 in
  for v = 0 to G.num_vertices g - 1 do
    match (G.is_input g v, G.succs g v) with
    | true, _ :: _ -> incr used_inputs
    | false, [] -> incr outputs
    | _ -> ()
  done;
  !used_inputs + !outputs

let replay_costs graph schedules ~s =
  List.concat_map
    (fun (name, schedule) ->
      List.map
        (fun (pname, policy) ->
          ( name ^ "+" ^ pname,
            PG.total_io (PG.run graph ~schedule ~s ~policy) ))
        [ ("lru", PG.Lru); ("belady", PG.Belady) ])
    schedules

let conv_instance ?(stride = 1) ~w ~h ~kw ~kh ~cin ~cout () =
  let dspec =
    { Dag.Conv_dag.w_in = w; h_in = h; c_in = cin; c_out = cout; w_ker = kw; h_ker = kh;
      stride }
  in
  let dag = Dag.Conv_dag.build dspec in
  let cspec =
    Conv.Conv_spec.make ~c_in:cin ~h_in:h ~w_in:w ~c_out:cout ~k_h:kh ~k_w:kw ~stride ()
  in
  {
    name =
      Printf.sprintf "conv %dx%dx%d k%dx%d s%d ->%d" w h cin kw kh stride cout;
    graph = dag.graph;
    lower_bound = (fun ~s -> Core.Direct_bound.q_lower cspec ~s:(float_of_int s));
    upper_costs =
      (fun ~s ->
        replay_costs dag.graph
          [
            ("stationary", Dag.Conv_dag.schedule_output_stationary dag);
            ("by-step", Dag.Conv_dag.schedule_by_step dag);
            ("blocked", Dag.Conv_dag.schedule_blocked dag ~bx:2 ~by:2 ~bz:1);
          ]
          ~s);
  }

let matmul_instance ~m ~k ~n () =
  let dag = Dag.Matmul_dag.build { Dag.Matmul_dag.m; k; n } in
  {
    name = Printf.sprintf "matmul %dx%dx%d" m k n;
    graph = dag.graph;
    lower_bound = (fun ~s -> Core.Matmul_bound.q_lower ~m ~k ~n ~s:(float_of_int s));
    upper_costs =
      (fun ~s ->
        replay_costs dag.graph
          [
            ("stationary", Dag.Matmul_dag.schedule_output_stationary dag);
            ("by-step", Dag.Matmul_dag.schedule_by_step dag);
            ("blocked", Dag.Matmul_dag.schedule_blocked dag ~bi:2 ~bj:2);
          ]
          ~s);
  }

let winograd_instance ~tiles_w ~tiles_h ~cin ~cout ~e ~r () =
  let wspec =
    { Dag.Winograd_dag.tiles_w; tiles_h; c_in = cin; c_out = cout; e; r }
  in
  let dag = Dag.Winograd_dag.build wspec in
  let w_in, h_in = Dag.Winograd_dag.in_size wspec in
  let cspec =
    Conv.Conv_spec.make ~c_in:cin ~h_in ~w_in ~c_out:cout ~k_h:r ~k_w:r ()
  in
  {
    name =
      Printf.sprintf "winograd F(%dx%d,%dx%d) %dx%d tiles %d->%d" e e r r tiles_w
        tiles_h cin cout;
    graph = dag.graph;
    lower_bound = (fun ~s -> Core.Winograd_bound.q_lower ~e cspec ~s:(float_of_int s));
    upper_costs =
      (fun ~s ->
        let plain =
          replay_costs dag.graph
            [
              ("natural", Dag.Winograd_dag.schedule_natural dag);
              ("by-step", Dag.Winograd_dag.schedule_by_step dag);
            ]
            ~s
        in
        (* The recomputing schedule is also a legal play of the oracle's game
           (the pure API allows re-computing an evicted vertex), so its cost is
           an attainable upper bound too. *)
        let recompute =
          ( "recompute+belady",
            PG.total_io
              (PG.run_recompute dag.graph
                 ~schedule:(Dag.Winograd_dag.schedule_recompute_transforms dag)
                 ~s ~policy:PG.Belady) )
        in
        recompute :: plain);
  }

(* The (instance, S grid) pairs the verification suite sandwiches.  Sizes are
   chosen so the exact solver stays inside its state budget: these DAGs have
   7-24 vertices, which is where exhaustive pebbling is tractable at all
   (the game is PSPACE-hard in general).  The smoke pairs finish in seconds;
   the deep extras assume an 8M-state budget. *)
let grid ~deep =
  let smoke =
    [
      (matmul_instance ~m:1 ~k:2 ~n:1 (), [ 3; 4 ]);
      (matmul_instance ~m:2 ~k:2 ~n:1 (), [ 3; 4 ]);
      (matmul_instance ~m:1 ~k:2 ~n:2 (), [ 3; 5 ]);
      (matmul_instance ~m:1 ~k:3 ~n:1 (), [ 3; 4 ]);
      (matmul_instance ~m:1 ~k:4 ~n:1 (), [ 3; 4 ]);
      (matmul_instance ~m:3 ~k:2 ~n:1 (), [ 3; 4 ]);
      (conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 (), [ 3; 4; 6 ]);
      (conv_instance ~w:2 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:2 (), [ 3; 4 ]);
      (conv_instance ~w:4 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:1 (), [ 3; 4 ]);
      (conv_instance ~w:3 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:1 (), [ 3; 4 ]);
      (conv_instance ~w:4 ~h:1 ~kw:2 ~kh:1 ~cin:1 ~cout:1 ~stride:2 (), [ 3; 4 ]);
      (conv_instance ~w:3 ~h:1 ~kw:1 ~kh:1 ~cin:1 ~cout:1 ~stride:2 (), [ 3 ]);
      (winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), [ 3 ]);
      (winograd_instance ~tiles_w:2 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), [ 3; 4 ]);
      (winograd_instance ~tiles_w:2 ~tiles_h:2 ~cin:1 ~cout:1 ~e:1 ~r:1 (), [ 3; 4 ]);
      (winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:2 ~cout:1 ~e:1 ~r:1 (), [ 3; 4 ]);
      (winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:1 ~cout:2 ~e:1 ~r:1 (), [ 3; 4 ]);
    ]
  in
  if not deep then smoke
  else
    smoke
    @ [
        (matmul_instance ~m:2 ~k:2 ~n:2 (), [ 4; 5 ]);
        (matmul_instance ~m:2 ~k:3 ~n:1 (), [ 3; 4 ]);
        (conv_instance ~w:2 ~h:1 ~kw:2 ~kh:1 ~cin:2 ~cout:1 (), [ 3; 4 ]);
        (conv_instance ~w:4 ~h:1 ~kw:3 ~kh:1 ~cin:1 ~cout:1 (), [ 3; 4 ]);
        (winograd_instance ~tiles_w:3 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), [ 3; 4 ]);
        (* 22-24-vertex Winograd tiles: 140k-1.1M expanded states each, so
           they stay out of the smoke grid. *)
        (winograd_instance ~tiles_w:4 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), [ 5; 6 ]);
        (winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:4 ~cout:1 ~e:1 ~r:1 (), [ 4; 5 ]);
      ]

let check ?budget instance ~s =
  match Oracle.solve ?budget instance.graph ~s with
  | Oracle.Budget_exhausted { expanded } -> Error expanded
  | Oracle.Optimal { q_opt; moves; expanded } ->
    (* The witness must replay through the pure rule checker to exactly the
       claimed cost and a completed game — the oracle cannot smuggle in an
       illegal move or a miscount. *)
    (match PG.trace instance.graph ~s moves with
    | Error msg -> failwith ("Sandwich.check: oracle witness illegal: " ^ msg)
    | Ok final ->
      if not (PG.complete instance.graph final) then
        failwith "Sandwich.check: oracle witness does not complete the game";
      if PG.state_io final <> q_opt then
        failwith
          (Printf.sprintf "Sandwich.check: witness I/O %d <> claimed q_opt %d"
             (PG.state_io final) q_opt));
    let analytic_lower = instance.lower_bound ~s in
    let compulsory_lower = compulsory_io instance.graph in
    let uppers = instance.upper_costs ~s in
    let schedule_upper = List.fold_left (fun acc (_, c) -> min acc c) max_int uppers in
    let holds =
      analytic_lower <= float_of_int q_opt
      && compulsory_lower <= q_opt
      && q_opt <= schedule_upper
    in
    Ok
      {
        instance = instance.name;
        s;
        analytic_lower;
        compulsory_lower;
        q_opt;
        schedule_upper;
        expanded;
        holds;
      }

let pp_check fmt c =
  Format.fprintf fmt "%-36s S=%-3d  bound %7.2f <= Q_opt %4d <= schedule %4d  (%s, %d states)"
    c.instance c.s c.analytic_lower c.q_opt c.schedule_upper
    (if c.holds then "ok" else "VIOLATED")
    c.expanded
