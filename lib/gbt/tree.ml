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
  (* Best split of segment [lo, hi) on feature [f], scanning prefix sums in
     the feature's order: the number of samples going left, or 0 for none.
     The split's gain lands in [found_gain]'s one unboxed slot, so the
     search boxes neither a float nor a tuple. *)
  let found_gain = [| 0.0 |] in
  let best_on_feature f lo hi =
    let col = columns.(f) and order = orders.(f) in
    (* Equal ends of a sorted segment mean one value throughout, so no
       candidate; a NaN end compares unequal and gets the full scan. *)
    if hi - lo < 2 || col.(order.(lo)) = col.(order.(hi - 1)) then 0
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
      if !best_k >= 0 && !best_gain > 0.0 then begin
        found_gain.(0) <- !best_gain;
        !best_k + 1 - lo
      end
      else 0
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
      let feature = ref (-1) and n_left = ref 0 and gain = ref 0.0 in
      for f = 0 to n_features - 1 do
        let k = best_on_feature f lo hi in
        if k > 0 && (!feature < 0 || not (!gain >= found_gain.(0))) then begin
          feature := f;
          n_left := k;
          gain := found_gain.(0)
        end
      done;
      if !feature < 0 then Leaf weight
      else
        let feature = !feature in
        let mid = lo + !n_left and col = columns.(feature) and order = orders.(feature) in
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

let rec predict t x =
  match t with
  | Leaf w -> w
  | Split { feature; threshold; left; right } ->
    if x.(feature) <= threshold then predict left x else predict right x

(* Preorder, space-separated tokens with hex-float values: "%h" prints
   every finite double exactly. *)
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

let rec num_leaves = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> num_leaves left + num_leaves right

let rec depth = function
  | Leaf _ -> 0
  | Split { left; right; _ } -> 1 + max (depth left) (depth right)
