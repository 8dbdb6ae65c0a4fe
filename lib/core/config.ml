type algorithm = Direct_dataflow | Winograd_dataflow of int

type t = {
  algorithm : algorithm;
  layout : Tensor.Layout.t;
  tile_x : int;
  tile_y : int;
  tile_z : int;
  threads_x : int;
  threads_y : int;
  threads_z : int;
  unroll : int;
  vector_width : int;
  double_buffer : bool;
}

let threads t = t.threads_x * t.threads_y * t.threads_z

let algorithm_to_string = function
  | Direct_dataflow -> "direct"
  | Winograd_dataflow e -> Printf.sprintf "winograd-F(%d)" e

let to_string t =
  Printf.sprintf "%s %s tile=%dx%dx%d threads=%dx%dx%d unroll=%d vec=%d db=%b"
    (algorithm_to_string t.algorithm)
    (Tensor.Layout.to_string t.layout)
    t.tile_x t.tile_y t.tile_z t.threads_x t.threads_y t.threads_z t.unroll t.vector_width
    t.double_buffer

let layout_index = function Tensor.Layout.CHW -> 0 | CWH -> 1 | HWC -> 2

(* One int per algorithm, distinct for every [e] and never 0 for Winograd. *)
let algorithm_code = function Direct_dataflow -> 0 | Winograd_dataflow e -> (2 * e) + 1

let equal a b =
  a.tile_x = b.tile_x && a.tile_y = b.tile_y && a.tile_z = b.tile_z
  && a.threads_x = b.threads_x && a.threads_y = b.threads_y && a.threads_z = b.threads_z
  && a.unroll = b.unroll && a.vector_width = b.vector_width
  && Bool.equal a.double_buffer b.double_buffer
  && layout_index a.layout = layout_index b.layout
  && algorithm_code a.algorithm = algorithm_code b.algorithm

(* Every field folds in through an odd multiplier and the finish is a chain
   of bijections (xor-shifts and odd multiplies), so configs that differ in
   any one field always hash apart.  [Hashtbl.hash] reads only ten
   meaningful words and would drop [double_buffer], or Winograd's [e]. *)
let hash t =
  let mix h x = (h * 0x100000001b3) + x in
  let h = mix (algorithm_code t.algorithm) (layout_index t.layout) in
  let h = mix (mix (mix h t.tile_x) t.tile_y) t.tile_z in
  let h = mix (mix (mix h t.threads_x) t.threads_y) t.threads_z in
  let h = mix (mix (mix h t.unroll) t.vector_width) (Bool.to_int t.double_buffer) in
  let h = (h lxor (h lsr 31)) * 0x3fb5d329728ea185 in
  let h = (h lxor (h lsr 27)) * 0x01dadef4bc2dd44d in
  h lxor (h lsr 33)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let ceil_div a b = (a + b - 1) / b

let working_set_elems (spec : Conv.Conv_spec.t) t =
  match t.algorithm with
  | Direct_dataflow ->
    Conv.Tiled_direct.working_set spec
      ~tile:{ Conv.Tiled_direct.x = t.tile_x; y = t.tile_y; z = t.tile_z }
      ~alpha:1
  | Winograd_dataflow e ->
    Conv.Tiled_winograd.working_set ~e spec
      ~tile:{ Conv.Tiled_winograd.x = t.tile_x; y = t.tile_y; z = t.tile_z }

(* Double buffering duplicates the streaming stage buffers (input tile and
   weight slice), not the resident accumulators; approximate that as 25%. *)
let shmem_bytes spec t =
  let ws = working_set_elems spec t in
  let elems = if t.double_buffer then ws + (ws / 4) else ws in
  4 * elems

let blocks (spec : Conv.Conv_spec.t) t =
  let w_out = Conv.Conv_spec.w_out spec and h_out = Conv.Conv_spec.h_out spec in
  spec.batch * ceil_div w_out t.tile_x * ceil_div h_out t.tile_y
  * ceil_div spec.c_out t.tile_z

let input_row_width (spec : Conv.Conv_spec.t) t =
  match t.algorithm with
  | Direct_dataflow -> Conv.Tiled_direct.input_tile_w spec t.tile_x
  | Winograd_dataflow _ -> t.tile_x + spec.k_w - 1

let coalescing (spec : Conv.Conv_spec.t) t =
  let base = 0.45 in
  let layout_bonus = if Tensor.Layout.innermost_is_width t.layout then 0.25 else 0.0 in
  let row = float_of_int (input_row_width spec t * t.vector_width) in
  let width_bonus = 0.18 *. Float.min 1.0 (row /. 32.0) in
  let vector_bonus = 0.04 *. (log (float_of_int t.vector_width) /. log 2.0) in
  Float.min 0.98 (base +. layout_bonus +. width_bonus +. vector_bonus)

let compute_efficiency (spec : Conv.Conv_spec.t) t =
  let warp = 32 in
  let n = threads t in
  let warp_eff = float_of_int n /. float_of_int (ceil_div n warp * warp) in
  let unroll_eff =
    match t.unroll with 1 -> 0.85 | 2 -> 0.93 | 4 -> 1.0 | 8 -> 0.96 | _ -> 0.8
  in
  let db_bonus = if t.double_buffer then 1.05 else 1.0 in
  let w_out = Conv.Conv_spec.w_out spec and h_out = Conv.Conv_spec.h_out spec in
  let ragged extent tile_dim =
    let covered = ceil_div extent tile_dim * tile_dim in
    float_of_int extent /. float_of_int covered
  in
  let ragged_eff =
    sqrt (ragged w_out t.tile_x *. ragged h_out t.tile_y *. ragged spec.c_out t.tile_z)
  in
  (* Shared-memory bank conflicts when the staged input row strides hit the
     same bank: rows that are a multiple of the 32-bank width conflict. *)
  let row = input_row_width spec t in
  let bank_eff = if row > 1 && row mod 32 = 0 then 0.88 else 1.0 in
  let eff = 0.95 *. warp_eff *. unroll_eff *. db_bonus *. ragged_eff *. bank_eff in
  Float.max 0.05 (Float.min 1.0 eff)

let flops (spec : Conv.Conv_spec.t) t =
  match t.algorithm with
  | Direct_dataflow -> Conv.Conv_spec.flops spec
  | Winograd_dataflow e ->
    let r = spec.k_h in
    let alpha = e + r - 1 in
    let h_out = Conv.Conv_spec.h_out spec and w_out = Conv.Conv_spec.w_out spec in
    let tiles = spec.batch * ceil_div h_out e * ceil_div w_out e in
    let ft = float_of_int tiles in
    let fa = float_of_int alpha and fe = float_of_int e in
    let fa2 = fa *. fa in
    let cin = float_of_int spec.c_in and cout = float_of_int spec.c_out in
    let gemm = 2.0 *. ft *. fa2 *. cin *. cout in
    let input_tf = ft *. cin *. 4.0 *. (fa ** 3.0) in
    let output_tf = ft *. cout *. 4.0 *. fa2 *. fe in
    let kernel_tf = cin *. cout *. 4.0 *. fa2 *. float_of_int r in
    gemm +. input_tf +. output_tf +. kernel_tf

let io_elems (spec : Conv.Conv_spec.t) t =
  match t.algorithm with
  | Direct_dataflow ->
    Conv.Io_count.total
      (Conv.Tiled_direct.io_only spec
         ~tile:{ Conv.Tiled_direct.x = t.tile_x; y = t.tile_y; z = t.tile_z })
  | Winograd_dataflow e ->
    Conv.Io_count.total
      (Conv.Tiled_winograd.io_only ~e spec
         ~tile:{ Conv.Tiled_winograd.x = t.tile_x; y = t.tile_y; z = t.tile_z })

let to_kernel arch spec t =
  Gpu_sim.Kernel_cost.make
    ~coalescing:(coalescing spec t)
    ~compute_efficiency:(compute_efficiency spec t)
    ~flops:(flops spec t) ~io_elems:(io_elems spec t) ~threads_per_block:(threads t)
    ~shmem_bytes_per_block:(shmem_bytes spec t)
    ~blocks:(blocks spec t) ()
  |> fun kernel ->
  if
    not
      (Gpu_sim.Occupancy.launchable arch ~threads_per_block:kernel.threads_per_block
         ~shmem_bytes_per_block:kernel.shmem_bytes_per_block)
  then invalid_arg "Config.to_kernel: not launchable";
  kernel

let n_features = 14

let features (spec : Conv.Conv_spec.t) t =
  let r = Conv.Conv_spec.reuse spec in
  let ratio =
    log (float_of_int (t.tile_x * t.tile_y) /. (r *. float_of_int t.tile_z))
  in
  [|
    float_of_int t.tile_x;
    float_of_int t.tile_y;
    float_of_int t.tile_z;
    ratio;
    float_of_int (threads t);
    float_of_int t.threads_x;
    float_of_int t.threads_y;
    float_of_int t.threads_z;
    float_of_int t.unroll;
    float_of_int t.vector_width;
    float_of_int (layout_index t.layout);
    (if t.double_buffer then 1.0 else 0.0);
    log (float_of_int (working_set_elems spec t));
    log (float_of_int (blocks spec t));
  |]

let to_compact t =
  let alg = match t.algorithm with Direct_dataflow -> "d" | Winograd_dataflow e -> "w" ^ string_of_int e in
  Printf.sprintf "%s|%s|%d,%d,%d|%d,%d,%d|%d|%d|%d" alg
    (Tensor.Layout.to_string t.layout)
    t.tile_x t.tile_y t.tile_z t.threads_x t.threads_y t.threads_z t.unroll t.vector_width
    (if t.double_buffer then 1 else 0)

let of_compact line =
  match String.split_on_char '|' line with
  | [ alg; layout; tiles; threads; unroll; vector; db ] -> begin
    let algorithm =
      if alg = "d" then Some Direct_dataflow
      else if String.length alg > 1 && alg.[0] = 'w' then
        int_of_string_opt (String.sub alg 1 (String.length alg - 1))
        |> Option.map (fun e -> Winograd_dataflow e)
      else None
    in
    let triple s =
      match String.split_on_char ',' s with
      | [ a; b; c ] -> begin
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
        | Some a, Some b, Some c -> Some (a, b, c)
        | _ -> None
      end
      | _ -> None
    in
    match
      (algorithm, Tensor.Layout.of_string layout, triple tiles, triple threads,
       int_of_string_opt unroll, int_of_string_opt vector, int_of_string_opt db)
    with
    | Some algorithm, Some layout, Some (tx, ty, tz), Some (hx, hy, hz), Some unroll,
      Some vector_width, Some db ->
      Some
        {
          algorithm;
          layout;
          tile_x = tx;
          tile_y = ty;
          tile_z = tz;
          threads_x = hx;
          threads_y = hy;
          threads_z = hz;
          unroll;
          vector_width;
          double_buffer = db <> 0;
        }
    | _ -> None
  end
  | _ -> None
