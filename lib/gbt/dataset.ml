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
