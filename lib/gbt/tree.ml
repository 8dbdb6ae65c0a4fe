type params = { max_depth : int; min_samples : int; lambda : float; gamma : float }

let default_params = { max_depth = 6; min_samples = 2; lambda = 1.0; gamma = 0.0 }

type t =
  | Leaf of float
  | Split of { feature : int; threshold : float; left : t; right : t }

let leaf_weight params g h = -.g /. (h +. params.lambda)

let score params g h = g *. g /. (h +. params.lambda)

(* --- Exact split finding ---

   Every node owns one segment [lo, hi) of a few per-tree work arrays: for
   each feature, the node's samples in that feature's (value, index) order,
   and the node's samples in ascending index order.  A split marks its left
   members in a byte mask and stable-partitions every segment, so each child
   again owns one segment of each array, still sorted: no node sorts or
   copies an array.

   Every floating-point sum runs in one fixed order: a node's totals in
   ascending sample index, each feature's totals and prefix sums in that
   feature's (value, index) order.  Candidates sit only between distinct
   consecutive values, the first of equal gains wins within a feature and
   then across features in feature order, and a split needs a positive
   gain. *)

let fit params sorted ~grad ~hess =
  let n = Dataset.presorted_length sorted in
  if Array.length grad <> n || Array.length hess <> n then
    invalid_arg "Tree.fit: gradient arity mismatch";
  let n_features = Dataset.presorted_n_features sorted in
  let columns = Array.init n_features (Dataset.column sorted) in
  (* One array per feature rather than one flat array: at tuner sizes each
     stays small enough for the minor heap, so a tree's work arrays die
     young instead of pacing major collections. *)
  let orders = Array.init n_features (fun f -> Array.copy (Dataset.sorted_order sorted f)) in
  let members = Array.init n Fun.id in
  let left = Bytes.make n '\000' in
  let scratch = Array.make n 0 in
  (* Stable partition of [arr]'s slots [lo, hi): members marked in [left]
     first, the rest after, each side in its old order.  The rest wait in
     [scratch]'s slots [lo, hi) until the final blit. *)
  let partition arr lo hi =
    let l = ref lo and r = ref lo in
    for k = lo to hi - 1 do
      (* Branch-free: write [i] to both sides and advance the side it belongs
         to.  A stray write to [arr] lands at or below [k], on a slot already
         read, and is overwritten by a later left member or the final blit. *)
      let i = Array.unsafe_get arr k in
      let is_left = Char.code (Bytes.unsafe_get left i) in
      Array.unsafe_set arr !l i;
      Array.unsafe_set scratch !r i;
      l := !l + is_left;
      r := !r + 1 - is_left
    done;
    Array.blit scratch lo arr !l (!r - lo)
  in
  (* Best split of segment [lo, hi) on feature [f] as (gain, number of
     samples going left), scanning prefix sums in the feature's order. *)
  let best_on_feature f lo hi =
    let col = columns.(f) and order = orders.(f) in
    (* Equal ends of a sorted segment mean one value throughout, so no
       candidate; a NaN end compares unequal and gets the full scan. *)
    if hi - lo < 2 || col.(order.(lo)) = col.(order.(hi - 1)) then None
    else begin
      let g_total = ref 0.0 and h_total = ref 0.0 in
      for k = lo to hi - 1 do
        let i = Array.unsafe_get order k in
        g_total := !g_total +. Array.unsafe_get grad i;
        h_total := !h_total +. Array.unsafe_get hess i
      done;
      let g_total = !g_total and h_total = !h_total in
      let parent = score params g_total h_total in
      let best_gain = ref 0.0 and best_k = ref (-1) in
      let g_left = ref 0.0 and h_left = ref 0.0 in
      for k = lo to hi - 2 do
        let i = Array.unsafe_get order k in
        g_left := !g_left +. Array.unsafe_get grad i;
        h_left := !h_left +. Array.unsafe_get hess i;
        if Array.unsafe_get col i < Array.unsafe_get col (Array.unsafe_get order (k + 1))
        then begin
          let gain =
            (0.5
            *. (score params !g_left !h_left
               +. score params (g_total -. !g_left) (h_total -. !h_left)
               -. parent))
            -. params.gamma
          in
          (* [not (>=)] rather than [<]: a NaN gain replaces the running best. *)
          if !best_k < 0 || not (!best_gain >= gain) then begin
            best_gain := gain;
            best_k := k
          end
        end
      done;
      if !best_k >= 0 && !best_gain > 0.0 then Some (!best_gain, !best_k + 1 - lo) else None
    end
  in
  let rec build lo hi depth =
    let g = ref 0.0 and h = ref 0.0 in
    for k = lo to hi - 1 do
      let i = Array.unsafe_get members k in
      g := !g +. Array.unsafe_get grad i;
      h := !h +. Array.unsafe_get hess i
    done;
    let weight = leaf_weight params !g !h in
    if depth >= params.max_depth || hi - lo < params.min_samples then Leaf weight
    else begin
      let best = ref None in
      for f = 0 to n_features - 1 do
        match best_on_feature f lo hi with
        | None -> ()
        | Some (gain, n_left) -> begin
          match !best with
          | Some (best_gain, _, _) when best_gain >= gain -> ()
          | _ -> best := Some (gain, f, n_left)
        end
      done;
      match !best with
      | None -> Leaf weight
      | Some (_, feature, n_left) ->
        let mid = lo + n_left and col = columns.(feature) and order = orders.(feature) in
        let threshold = (col.(order.(mid - 1)) +. col.(order.(mid))) /. 2.0 in
        for k = lo to hi - 1 do
          Bytes.unsafe_set left (Array.unsafe_get order k) (if k < mid then '\001' else '\000')
        done;
        (* The chosen feature's segment is already split at [mid]. *)
        partition members lo hi;
        for f = 0 to n_features - 1 do
          if f <> feature then partition orders.(f) lo hi
        done;
        Split
          { feature; threshold; left = build lo mid (depth + 1); right = build mid hi (depth + 1) }
    end
  in
  build 0 n 0

(* --- Histogram split finding ---

   Instead of maintaining per-feature sorted index orders and scanning every
   sample of a node per feature, work on the quantised [Dataset.binned] view:
   accumulate per-(feature, bin) gradient/hessian/count sums for the node
   (O(m * n_features)), then scan the bins (O(n_features * n_bins)) for the
   best cut.  Each child needs its own histogram; the subtraction trick
   builds only the smaller child's by accumulation and derives the larger
   sibling's as parent - smaller, halving the accumulation work per level.

   Gain and leaf-weight formulas are shared with the exact path.  Candidate
   thresholds are the fixed bin cuts, so on features with more distinct
   values than bins the chosen split is an approximation of the exact one;
   the per-node statistics themselves are exact (every sample lands in
   exactly one bin). *)

let hist_grain = 4096

(* Below this many samples a node builds its two subtrees inline: handing
   them to the pool costs more than building them. *)
let subtree_grain = 128

type hist = { hg : float array; hh : float array; hc : int array }

let fit_hist ?(domains = 1) ?leaf_out params binned ~grad ~hess =
  let n = Dataset.binned_length binned in
  if Array.length grad <> n || Array.length hess <> n then
    invalid_arg "Tree.fit_hist: gradient arity mismatch";
  (match leaf_out with
  | Some out when Array.length out <> n ->
    invalid_arg "Tree.fit_hist: leaf_out arity mismatch"
  | _ -> ());
  let n_features = Dataset.binned_n_features binned in
  let matrix = Dataset.bin_matrix binned in
  let stride =
    let m = ref 1 in
    for f = 0 to n_features - 1 do
      m := max !m (Dataset.n_bins binned f)
    done;
    !m
  in
  let cells = n_features * stride in
  (* Histograms are three [cells]-sized arrays per split node; allocating
     them fresh ~2x-per-level churns megabytes per tree, so finished buffers
     go back on a lock-free free list scoped to this call.  Subtree builds
     may race on it, but a lost CAS only costs one fresh allocation. *)
  let pool = Atomic.make [] in
  let rec take () =
    match Atomic.get pool with
    | [] -> { hg = Array.make cells 0.0; hh = Array.make cells 0.0; hc = Array.make cells 0 }
    | h :: t as old -> if Atomic.compare_and_set pool old t then h else take ()
  in
  let rec release h =
    let old = Atomic.get pool in
    if not (Atomic.compare_and_set pool old (h :: old)) then release h
  in
  (* Per-feature rows are disjoint slices of the flat arrays, so fanning the
     accumulation out over features writes disjoint cells and the result is
     bit-identical at every domain count. *)
  let accumulate node =
    let h = take () in
    Array.fill h.hg 0 cells 0.0;
    Array.fill h.hh 0 cells 0.0;
    Array.fill h.hc 0 cells 0;
    let m = Array.length node in
    let acc_domains = if m * n_features >= hist_grain then domains else 1 in
    Util.Parallel.for_ ~domains:acc_domains 0 n_features (fun f ->
        let off = f * stride in
        for j = 0 to m - 1 do
          let i = Array.unsafe_get node j in
          let b = off + Bigarray.Array2.unsafe_get matrix f i in
          Array.unsafe_set h.hg b (Array.unsafe_get h.hg b +. Array.unsafe_get grad i);
          Array.unsafe_set h.hh b (Array.unsafe_get h.hh b +. Array.unsafe_get hess i);
          Array.unsafe_set h.hc b (Array.unsafe_get h.hc b + 1)
        done);
    h
  in
  let subtract parent smaller =
    let h = take () in
    for i = 0 to cells - 1 do
      Array.unsafe_set h.hg i
        (Array.unsafe_get parent.hg i -. Array.unsafe_get smaller.hg i);
      Array.unsafe_set h.hh i
        (Array.unsafe_get parent.hh i -. Array.unsafe_get smaller.hh i);
      Array.unsafe_set h.hc i
        (Array.unsafe_get parent.hc i - Array.unsafe_get smaller.hc i)
    done;
    h
  in
  (* Best cut of one feature: prefix-scan the bins.  A candidate exists at a
     cut only when both sides are non-empty; among equal gains the first
     (lowest cut) wins, and across features the fold below keeps the lowest
     feature index — the same tie-breaking as the exact path. *)
  let best_on_feature h ~m ~g_total ~h_total ~base f =
    let nb = Dataset.n_bins binned f in
    let off = f * stride in
    let best = ref None in
    let gl = ref 0.0 and hl = ref 0.0 and cl = ref 0 in
    for b = 0 to nb - 2 do
      (* An empty bin leaves every prefix sum unchanged, so its cut has the
         same gain as the previous one and the [>=] rule below would discard
         it anyway; skipping it outright turns deep-node scans from
         O(n_bins) gain evaluations into O(occupied bins). *)
      if Array.unsafe_get h.hc (off + b) > 0 then begin
        gl := !gl +. h.hg.(off + b);
        hl := !hl +. h.hh.(off + b);
        cl := !cl + h.hc.(off + b);
        if !cl > 0 && !cl < m then begin
        let gain =
          (0.5
          *. (score params !gl !hl
             +. score params (g_total -. !gl) (h_total -. !hl)
             -. base))
          -. params.gamma
        in
        match !best with
        | Some (best_gain, _, _, _) when best_gain >= gain -> ()
        | _ -> best := Some (gain, Dataset.cut binned f b, b, !cl)
        end
      end
    done;
    match !best with
    | Some (gain, _, _, _) when gain > 0.0 -> !best
    | _ -> None
  in
  (* A node gets a histogram only when it passes the split preconditions —
     building (or subtracting) one for a node that must become a leaf would
     be pure waste, and at the maximum depth that is every second node. *)
  let wants_hist m depth = depth < params.max_depth && m >= params.min_samples in
  let rec build node hist depth =
    let m = Array.length node in
    let g = Array.fold_left (fun acc i -> acc +. grad.(i)) 0.0 node in
    let h = Array.fold_left (fun acc i -> acc +. hess.(i)) 0.0 node in
    let as_leaf () =
      let w = leaf_weight params g h in
      (* Every sample reaches exactly one leaf, and bin routing agrees with
         threshold routing (thresholds are bin cuts), so recording [w] here is
         bit-identical to a post-hoc [predict] walk — and saves the booster a
         full tree traversal per sample per round.  Sibling subtrees own
         disjoint sample sets, so parallel writes never collide. *)
      (match leaf_out with
      | Some out -> Array.iter (fun i -> Array.unsafe_set out i w) node
      | None -> ());
      Leaf w
    in
    match hist with
    | None -> as_leaf ()
    | Some hist -> begin
      let base = score params g h in
      (* The bin scan is O(n_bins) per feature — too cheap to fan out; the
         expensive accumulation above is what parallelises. *)
      let best = ref None in
      for f = 0 to n_features - 1 do
        match best_on_feature hist ~m ~g_total:g ~h_total:h ~base f with
        | None -> ()
        | Some (gain, threshold, cut_bin, left_count) -> begin
          match !best with
          | Some (best_gain, _, _, _, _) when best_gain >= gain -> ()
          | _ -> best := Some (gain, f, threshold, cut_bin, left_count)
        end
      done;
      match !best with
      | None ->
        release hist;
        as_leaf ()
      | Some (_, feature, threshold, cut_bin, left_count) ->
        let left_node = Array.make left_count 0 in
        let right_node = Array.make (m - left_count) 0 in
        let li = ref 0 and ri = ref 0 in
        Array.iter
          (fun i ->
            if Bigarray.Array2.unsafe_get matrix feature i <= cut_bin then begin
              left_node.(!li) <- i;
              incr li
            end
            else begin
              right_node.(!ri) <- i;
              incr ri
            end)
          node;
        (* Subtraction trick: accumulate the smaller child, derive the larger
           from the parent.  Ties go left so the choice is deterministic. *)
        let want_l = wants_hist left_count (depth + 1)
        and want_r = wants_hist (m - left_count) (depth + 1) in
        let left_hist, right_hist =
          if not (want_l || want_r) then (None, None)
          else if left_count <= m - left_count then begin
            let lh = accumulate left_node in
            let rh = if want_r then Some (subtract hist lh) else None in
            ((if want_l then Some lh else (release lh; None)), rh)
          end
          else begin
            let rh = accumulate right_node in
            let lh = if want_l then Some (subtract hist rh) else None in
            (lh, if want_r then Some rh else (release rh; None))
          end
        in
        (* This node's histogram is spent; children own theirs and release
           them the same way when they finish. *)
        release hist;
        if domains > 1 && m >= subtree_grain then begin
          let left = ref (Leaf 0.0) and right = ref (Leaf 0.0) in
          Util.Pool.run_all (Util.Pool.default ())
            [
              (fun () -> left := build left_node left_hist (depth + 1));
              (fun () -> right := build right_node right_hist (depth + 1));
            ];
          Split { feature; threshold; left = !left; right = !right }
        end
        else
          Split
            {
              feature;
              threshold;
              left = build left_node left_hist (depth + 1);
              right = build right_node right_hist (depth + 1);
            }
    end
  in
  let root = Array.init n Fun.id in
  build root (if wants_hist n 0 then Some (accumulate root) else None) 0

let rec predict t x =
  match t with
  | Leaf w -> w
  | Split { feature; threshold; left; right } ->
    if x.(feature) <= threshold then predict left x else predict right x

(* Preorder, space-separated tokens with hex-float values: "%h" round-trips
   every finite double bit-for-bit, so a deserialized tree predicts exactly
   what the fitted one did — the property model checkpoints rest on. *)
let to_compact t =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Leaf w ->
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "L:%h" w)
    | Split { feature; threshold; left; right } ->
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "S:%d:%h" feature threshold);
      emit left;
      emit right
  in
  emit t;
  Buffer.contents buf

let of_compact s =
  let toks = Array.of_list (String.split_on_char ' ' s) in
  let pos = ref 0 in
  let rec parse () =
    if !pos >= Array.length toks then raise Exit;
    let tok = toks.(!pos) in
    incr pos;
    match String.split_on_char ':' tok with
    | [ "L"; w ] -> begin
      match float_of_string_opt w with
      | Some w when Float.is_finite w -> Leaf w
      | _ -> raise Exit
    end
    | [ "S"; f; th ] -> begin
      match (int_of_string_opt f, float_of_string_opt th) with
      | Some f, Some th when f >= 0 && Float.is_finite th ->
        let left = parse () in
        let right = parse () in
        Split { feature = f; threshold = th; left; right }
      | _ -> raise Exit
    end
    | _ -> raise Exit
  in
  match parse () with
  | t -> if !pos = Array.length toks then Some t else None
  | exception Exit -> None

let rec num_leaves = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> num_leaves left + num_leaves right

let rec depth = function
  | Leaf _ -> 0
  | Split { left; right; _ } -> 1 + max (depth left) (depth right)
