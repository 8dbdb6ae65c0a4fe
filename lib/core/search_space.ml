type t = {
  arch : Gpu_sim.Arch.t;
  spec : Conv.Conv_spec.t;
  algorithm : Config.algorithm;
  pruned : bool;
  shmem_budget_bytes : int;
  tiles : (int * int * int) array;
  unrolls : int array;
  vectors : int array;
  layouts : Tensor.Layout.t array;
}

let spec t = t.spec
let arch t = t.arch
let algorithm t = t.algorithm
let pruned t = t.pruned
let tile_candidates t = t.tiles

(* Canonical domain identity: arch, canonical spec, algorithm and pruning
   in a fixed order.  Computable without constructing the domain, so a
   result cache can key a lookup before paying for [make]. *)
let canonical_key (arch : Gpu_sim.Arch.t) spec algorithm ~pruned =
  let algo =
    match algorithm with
    | Config.Direct_dataflow -> "direct"
    | Config.Winograd_dataflow e -> Printf.sprintf "winograd:%d" e
  in
  Printf.sprintf "arch=%s;%s;algo=%s;pruned=%b" arch.name
    (Conv.Conv_spec.canonical spec)
    algo pruned

let canonical t = canonical_key t.arch t.spec t.algorithm ~pruned:t.pruned

let budget_bytes (arch : Gpu_sim.Arch.t) =
  min (arch.shared_mem_per_sm / 2) arch.max_shared_mem_per_block

let config ~space ~tile:(x, y, z) ~threads:(tx, ty, tz) ~unroll ~vector_width ~layout
    ~double_buffer =
  {
    Config.algorithm = space.algorithm;
    layout;
    tile_x = x;
    tile_y = y;
    tile_z = z;
    threads_x = tx;
    threads_y = ty;
    threads_z = tz;
    unroll;
    vector_width;
    double_buffer;
  }

let shmem_fits space cfg = Config.shmem_bytes space.spec cfg <= space.shmem_budget_bytes

(* A triple is admissible when at least the plain (no double-buffer) variant
   fits the shared-memory budget. *)
let tile_fits space x y z =
  shmem_fits space
    {
      Config.algorithm = space.algorithm;
      layout = Tensor.Layout.CHW;
      tile_x = x;
      tile_y = y;
      tile_z = z;
      threads_x = 1;
      threads_y = 1;
      threads_z = 1;
      unroll = 1;
      vector_width = 1;
      double_buffer = false;
    }

let prune_ok space x y z =
  if not space.pruned then true
  else begin
    let r = Conv.Conv_spec.reuse space.spec in
    let sb = float_of_int (space.shmem_budget_bytes / 4) in
    Optimality.satisfied ~slack:2.0 ~r (x, y, z)
    && float_of_int z <= sqrt (sb /. r) +. 1e-9
    && float_of_int (x * y) <= sqrt (sb *. r) +. 1e-9
  end

(* One tile axis of the domain.  A direct extent takes the divisors of the
   output extent plus the powers of two up to it: prime-ish output extents
   (e.g. 149 in Inception's stem) have no useful divisors, and the dataflow
   clamps edge blocks anyway, so non-dividing tiles are legal — merely
   slightly ragged.  A Winograd extent takes the multiples of [e] up to the
   output extent, or [e] alone when the output is no wider than one tile. *)
let axis_ok algorithm extent v =
  match algorithm with
  | Config.Direct_dataflow -> 1 <= v && v <= extent && (extent mod v = 0 || v land (v - 1) = 0)
  | Config.Winograd_dataflow e ->
    if extent <= e then v = e else e <= v && v <= extent && v mod e = 0

(* Membership of a triple in the domain [make] enumerates: the axis rules,
   then the shared-memory fit, then (when pruned) the optimality cut. *)
let tile_ok space x y z =
  axis_ok space.algorithm (Conv.Conv_spec.w_out space.spec) x
  && axis_ok space.algorithm (Conv.Conv_spec.h_out space.spec) y
  && axis_ok Config.Direct_dataflow space.spec.c_out z
  && tile_fits space x y z
  && prune_ok space x y z

(* The ascending values [axis_ok] admits, scanned over a range that holds
   them all: [1, extent], plus [e] when one Winograd tile covers the
   extent. *)
let axis_candidates algorithm extent =
  let rec down v acc =
    if v < 1 then acc else down (v - 1) (if axis_ok algorithm extent v then v :: acc else acc)
  in
  match algorithm with
  | Config.Winograd_dataflow e when extent <= e -> List.filter (axis_ok algorithm extent) [ e ]
  | _ -> down extent []

let unrolls = [| 1; 2; 4; 8 |]
let vectors = [| 1; 2; 4 |]
let layouts = Array.of_list Tensor.Layout.all

(* Everything about a domain except its tile array; what [admits] checks a
   config against without enumerating anything. *)
let domain ~pruned arch spec algorithm =
  (match algorithm with
  | Config.Winograd_dataflow _ when not (Conv.Winograd.supported spec) ->
    invalid_arg "Search_space.make: winograd unsupported for this layer"
  | Config.Winograd_dataflow e when e < 1 ->
    invalid_arg "Search_space.make: winograd tile e must be positive"
  | _ -> ());
  {
    arch;
    spec;
    algorithm;
    pruned;
    shmem_budget_bytes = budget_bytes arch;
    tiles = [||];
    unrolls;
    vectors;
    layouts;
  }

let make ?(pruned = true) arch spec algorithm =
  let space = domain ~pruned arch spec algorithm in
  let xs = axis_candidates algorithm (Conv.Conv_spec.w_out spec) in
  let ys = axis_candidates algorithm (Conv.Conv_spec.h_out spec) in
  let zs = axis_candidates Config.Direct_dataflow spec.c_out in
  (* Each axis already passes [axis_ok]; the rest of [tile_ok] filters. *)
  let tiles =
    List.concat_map
      (fun x ->
        List.concat_map
          (fun y ->
            List.filter_map
              (fun z ->
                if tile_fits space x y z && prune_ok space x y z then Some (x, y, z) else None)
              zs)
          ys)
      xs
  in
  if tiles = [] then invalid_arg "Search_space.make: empty domain";
  { space with tiles = Array.of_list tiles }

let thread_triples space (x, y, z) =
  let limit = space.arch.max_threads_per_block in
  let dx = Optimality.divisors x and dy = Optimality.divisors y and dz = Optimality.divisors z in
  List.concat_map
    (fun tx ->
      List.concat_map
        (fun ty ->
          List.filter_map
            (fun tz -> if tx * ty * tz <= limit then Some (tx, ty, tz) else None)
            dz)
        dy)
    dx

let size space =
  let knob_count =
    float_of_int (Array.length space.unrolls)
    *. float_of_int (Array.length space.vectors)
    *. float_of_int (Array.length space.layouts)
  in
  Array.fold_left
    (fun acc triple ->
      let threads = float_of_int (List.length (thread_triples space triple)) in
      (* Double buffering doubles the count only where the buffered variant
         still fits. *)
      let db_variants =
        let base =
          config ~space ~tile:triple ~threads:(1, 1, 1) ~unroll:1 ~vector_width:1
            ~layout:Tensor.Layout.CHW ~double_buffer:true
        in
        if shmem_fits space base then 2.0 else 1.0
      in
      acc +. (threads *. knob_count *. db_variants))
    0.0 space.tiles

type invalid =
  | Wrong_algorithm of { expected : Config.algorithm; got : Config.algorithm }
  | Tile_not_in_domain of { tile : int * int * int }
  | Threads_not_dividing of { tile : int * int * int; threads : int * int * int }
  | Threads_exceeded of { threads : int; max_threads_per_block : int }
  | Knob_out_of_domain of { knob : string; value : string }
  | Shmem_exceeded of { shmem_bytes : int; budget_bytes : int }

let invalid_to_string = function
  | Wrong_algorithm { expected; got } ->
    Printf.sprintf "algorithm %s does not match the space's %s"
      (Config.algorithm_to_string got)
      (Config.algorithm_to_string expected)
  | Tile_not_in_domain { tile = x, y, z } ->
    Printf.sprintf "tile %dx%dx%d is not in the domain" x y z
  | Threads_not_dividing { tile = x, y, z; threads = tx, ty, tz } ->
    Printf.sprintf "thread block %dx%dx%d does not divide tile %dx%dx%d" tx ty tz x y z
  | Threads_exceeded { threads; max_threads_per_block } ->
    Printf.sprintf "%d threads per block exceeds the device limit of %d" threads
      max_threads_per_block
  | Knob_out_of_domain { knob; value } ->
    Printf.sprintf "%s = %s is outside the domain" knob value
  | Shmem_exceeded { shmem_bytes; budget_bytes } ->
    Printf.sprintf
      "working set of %d B exceeds the %d B shared-memory budget (half an SM, \
       capped at the per-block limit)"
      shmem_bytes budget_bytes

let validate space (cfg : Config.t) =
  let tile = (cfg.tile_x, cfg.tile_y, cfg.tile_z) in
  let threads = (cfg.threads_x, cfg.threads_y, cfg.threads_z) in
  if cfg.algorithm <> space.algorithm then
    Error (Wrong_algorithm { expected = space.algorithm; got = cfg.algorithm })
  else if not (tile_ok space cfg.tile_x cfg.tile_y cfg.tile_z) then
    Error (Tile_not_in_domain { tile })
  else if
    cfg.threads_x < 1 || cfg.threads_y < 1 || cfg.threads_z < 1
    || cfg.tile_x mod cfg.threads_x <> 0
    || cfg.tile_y mod cfg.threads_y <> 0
    || cfg.tile_z mod cfg.threads_z <> 0
  then Error (Threads_not_dividing { tile; threads })
  else if Config.threads cfg > space.arch.max_threads_per_block then
    Error
      (Threads_exceeded
         {
           threads = Config.threads cfg;
           max_threads_per_block = space.arch.max_threads_per_block;
         })
  else if not (Array.exists (( = ) cfg.unroll) space.unrolls) then
    Error (Knob_out_of_domain { knob = "unroll"; value = string_of_int cfg.unroll })
  else if not (Array.exists (( = ) cfg.vector_width) space.vectors) then
    Error
      (Knob_out_of_domain { knob = "vector_width"; value = string_of_int cfg.vector_width })
  else if not (Array.exists (( = ) cfg.layout) space.layouts) then
    Error (Knob_out_of_domain { knob = "layout"; value = Tensor.Layout.to_string cfg.layout })
  else if not (shmem_fits space cfg) then
    Error
      (Shmem_exceeded
         {
           shmem_bytes = Config.shmem_bytes space.spec cfg;
           budget_bytes = space.shmem_budget_bytes;
         })
  else Ok ()

let admits ?(pruned = true) arch spec algorithm cfg =
  validate (domain ~pruned arch spec algorithm) cfg

let mem space cfg = validate space cfg = Ok ()

let pick_array rng a = a.(Util.Rng.int rng (Array.length a))

let sample_threads space rng (x, y, z) =
  let limit = space.arch.max_threads_per_block in
  let dx = Array.of_list (Optimality.divisors x) in
  let dy = Array.of_list (Optimality.divisors y) in
  let dz = Array.of_list (Optimality.divisors z) in
  let rec draw () =
    let tx = pick_array rng dx and ty = pick_array rng dy and tz = pick_array rng dz in
    if tx * ty * tz <= limit then (tx, ty, tz) else draw ()
  in
  draw ()

let sample space rng =
  let triple = pick_array rng space.tiles in
  let threads = sample_threads space rng triple in
  let unroll = pick_array rng space.unrolls in
  let vector_width = pick_array rng space.vectors in
  let layout = pick_array rng space.layouts in
  let cfg =
    config ~space ~tile:triple ~threads ~unroll ~vector_width ~layout
      ~double_buffer:(Util.Rng.bool rng)
  in
  if shmem_fits space cfg then cfg else { cfg with double_buffer = false }

let neighbor space rng (cfg : Config.t) =
  let axis = Util.Rng.int rng 7 in
  let mutated =
    match axis with
    | 0 ->
      let x, y, z = pick_array rng space.tiles in
      (* Re-fit the thread decomposition onto the new tile. *)
      let fit extent threads = Optimality.nearest_divisor extent (float_of_int threads) in
      let tx = fit x cfg.threads_x and ty = fit y cfg.threads_y and tz = fit z cfg.threads_z in
      let tx, ty, tz =
        if tx * ty * tz <= space.arch.max_threads_per_block then (tx, ty, tz) else (1, 1, 1)
      in
      { cfg with tile_x = x; tile_y = y; tile_z = z; threads_x = tx; threads_y = ty;
        threads_z = tz }
    | 1 | 2 | 3 ->
      let tx, ty, tz = sample_threads space rng (cfg.tile_x, cfg.tile_y, cfg.tile_z) in
      { cfg with threads_x = tx; threads_y = ty; threads_z = tz }
    | 4 -> { cfg with unroll = pick_array rng space.unrolls }
    | 5 -> { cfg with vector_width = pick_array rng space.vectors }
    | 6 -> { cfg with layout = pick_array rng space.layouts }
    | _ -> { cfg with double_buffer = not cfg.double_buffer }
  in
  if shmem_fits space mutated then mutated else { mutated with double_buffer = false }

let iter_configs space f =
  Array.iter
    (fun triple ->
      List.iter
        (fun threads ->
          Array.iter
            (fun unroll ->
              Array.iter
                (fun vector_width ->
                  Array.iter
                    (fun layout ->
                      List.iter
                        (fun double_buffer ->
                          let cfg =
                            config ~space ~tile:triple ~threads ~unroll ~vector_width
                              ~layout ~double_buffer
                          in
                          if shmem_fits space cfg then f cfg)
                        [ false; true ])
                    space.layouts)
                space.vectors)
            space.unrolls)
        (thread_triples space triple))
    space.tiles

let config_for_tile space (x, y, z) =
  let cap extent want = Optimality.nearest_divisor extent (float_of_int want) in
  let tx = cap x 16 and ty = cap y 16 in
  let tz = cap z (max 1 (256 / (cap x 16 * cap y 16))) in
  let cfg =
    config ~space ~tile:(x, y, z) ~threads:(tx, ty, tz) ~unroll:4 ~vector_width:2
      ~layout:Tensor.Layout.CHW ~double_buffer:false
  in
  if Config.threads cfg <= space.arch.max_threads_per_block then cfg
  else { cfg with threads_x = 1; threads_y = 1; threads_z = 1 }

let default_config space =
  let sb_elems = space.shmem_budget_bytes / 4 in
  let target =
    match space.algorithm with
    | Config.Direct_dataflow ->
      let t = Optimality.optimal_tile_direct space.spec ~s:(float_of_int sb_elems) ~np:1 in
      (t.Conv.Tiled_direct.x, t.y, t.z)
    | Config.Winograd_dataflow e ->
      let t = Optimality.optimal_tile_winograd ~e space.spec ~s:(float_of_int sb_elems) ~np:1 in
      (t.Conv.Tiled_winograd.x, t.y, t.z)
  in
  let tx_t, ty_t, tz_t = target in
  let dist (x, y, z) =
    let d a b = Float.abs (log (float_of_int a /. float_of_int b)) in
    d x tx_t +. d y ty_t +. d z tz_t
  in
  let best =
    Array.fold_left
      (fun acc triple -> match acc with
        | Some b when dist b <= dist triple -> acc
        | _ -> Some triple)
      None space.tiles
  in
  config_for_tile space (Option.get best)
