type t = {
  n_features : int;
  mutable rows : float array array;
  mutable targets : float array;
  mutable size : int;
}

let create ~n_features = { n_features; rows = [||]; targets = [||]; size = 0 }

let grow t =
  let capacity = Array.length t.rows in
  if t.size = capacity then begin
    let next = max 16 (capacity * 2) in
    let rows = Array.make next [||] and targets = Array.make next 0.0 in
    Array.blit t.rows 0 rows 0 capacity;
    Array.blit t.targets 0 targets 0 capacity;
    t.rows <- rows;
    t.targets <- targets
  end

let add t x y =
  if Array.length x <> t.n_features then invalid_arg "Dataset.add: arity mismatch";
  grow t;
  t.rows.(t.size) <- x;
  t.targets.(t.size) <- y;
  t.size <- t.size + 1

let length t = t.size
let n_features t = t.n_features

let features t i =
  assert (i >= 0 && i < t.size);
  t.rows.(i)

let target t i =
  assert (i >= 0 && i < t.size);
  t.targets.(i)

let targets t = Array.sub t.targets 0 t.size

let fold t ~init f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.rows.(i) t.targets.(i)
  done;
  !acc

(* --- Presorted view for exact split finding ---

   Built once per booster: only the gradients change between rounds, so
   every tree reads the same feature-major value columns and the same
   per-feature sample orders.  Ties are broken by sample index, which makes
   each order unique — the property that keeps [Tree.fit]'s per-feature
   sums in one fixed order. *)

type presorted = { sorted_n : int; columns : float array array; orders : int array array }

let presort t =
  let n = t.size in
  let columns = Array.init t.n_features (fun f -> Array.init n (fun i -> t.rows.(i).(f))) in
  let orders =
    Array.map
      (fun col ->
        let order = Array.init n Fun.id in
        (* The common cases first; [Float.compare] settles ties and NaNs. *)
        Array.stable_sort
          (fun i j ->
            let a = col.(i) and b = col.(j) in
            if a < b then -1
            else if a > b then 1
            else
              let c = Float.compare a b in
              if c <> 0 then c else Int.compare i j)
          order;
        order)
      columns
  in
  { sorted_n = n; columns; orders }

let presorted_length p = p.sorted_n
let presorted_n_features p = Array.length p.columns
let column p f = p.columns.(f)
let sorted_order p f = p.orders.(f)

(* --- Binned view for histogram split finding ---

   Quantised once per booster: every feature value is mapped to a small bin
   index, stored feature-major in a Bigarray so the per-node histogram
   accumulation in [Tree.fit_hist] reads one contiguous row per feature.
   [cuts.(f).(b)] is the split threshold between bin [b] and bin [b + 1],
   computed as the midpoint of the two adjacent distinct values — the same
   formula the exact presort path uses, so when a feature has at most
   [max_bins] distinct values the histogram candidate thresholds are
   bit-identical to the exact ones. *)

type binned = {
  n : int;
  bin_features : int;
  bins_per_feature : int array;
  cuts : float array array;
  matrix : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t;
}

let max_supported_bins = 256

let bin ?(max_bins = max_supported_bins) t =
  if max_bins < 2 || max_bins > max_supported_bins then
    invalid_arg
      (Printf.sprintf "Dataset.bin: max_bins must be in [2, %d]" max_supported_bins);
  let n = t.size in
  let matrix =
    Bigarray.Array2.create Bigarray.int8_unsigned Bigarray.c_layout t.n_features (max n 1)
  in
  let bins_per_feature = Array.make t.n_features 1 in
  let cuts = Array.make t.n_features [||] in
  for f = 0 to t.n_features - 1 do
    let values = Array.init n (fun i -> t.rows.(i).(f)) in
    let sorted = Array.copy values in
    Array.sort compare sorted;
    (* Distinct values with multiplicities, ascending. *)
    let distinct = ref [] and counts = ref [] in
    Array.iter
      (fun v ->
        match !distinct with
        | d :: _ when d = v -> counts := (List.hd !counts + 1) :: List.tl !counts
        | _ ->
          distinct := v :: !distinct;
          counts := 1 :: !counts)
      sorted;
    let distinct = Array.of_list (List.rev !distinct) in
    let counts = Array.of_list (List.rev !counts) in
    let nd = Array.length distinct in
    (* Close a bin between distinct values [i] and [i + 1]; the threshold is
       their midpoint, matching [Tree.fit]'s candidate thresholds. *)
    let boundaries =
      if nd <= max_bins then List.init (max 0 (nd - 1)) (fun i -> i)
      else begin
        (* Quantile-style: close the current bin once it holds at least an
           equal share of the samples, never splitting one distinct value
           across bins and always leaving room for the remaining values. *)
        let target = float_of_int n /. float_of_int max_bins in
        let acc = ref [] and cum = ref 0 and closed = ref 0 in
        for i = 0 to nd - 2 do
          cum := !cum + counts.(i);
          if
            float_of_int !cum >= target *. float_of_int (!closed + 1)
            && !closed < max_bins - 1
          then begin
            acc := i :: !acc;
            incr closed
          end
        done;
        List.rev !acc
      end
    in
    let fcuts =
      Array.of_list
        (List.map (fun i -> (distinct.(i) +. distinct.(i + 1)) /. 2.0) boundaries)
    in
    cuts.(f) <- fcuts;
    bins_per_feature.(f) <- Array.length fcuts + 1;
    (* Assign every sample its bin: the first cut the value is <= of. *)
    let nc = Array.length fcuts in
    for i = 0 to n - 1 do
      let v = values.(i) in
      let lo = ref 0 and hi = ref nc in
      (* Invariant: bins < !lo have cut < v; bin is the first b with
         v <= fcuts.(b), or [nc] when above every cut. *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= fcuts.(mid) then hi := mid else lo := mid + 1
      done;
      Bigarray.Array2.set matrix f i !lo
    done
  done;
  { n; bin_features = t.n_features; bins_per_feature; cuts; matrix }

let binned_length b = b.n
let binned_n_features b = b.bin_features
let n_bins b f = b.bins_per_feature.(f)

let cut b f i = b.cuts.(f).(i)

let bin_index b f i = Bigarray.Array2.get b.matrix f i

let bin_matrix b = b.matrix
