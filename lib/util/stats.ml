let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let geomean xs =
  let n = Array.length xs in
  assert (n > 0);
  let log_sum =
    Array.fold_left
      (fun acc x ->
        assert (x > 0.0);
        acc +. log x)
      0.0 xs
  in
  exp (log_sum /. float_of_int n)

let stddev xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let m = mean xs in
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (var /. float_of_int n)

let sorted xs =
  let copy = Array.copy xs in
  Array.sort compare copy;
  copy

let percentile xs p =
  let s = sorted xs in
  let n = Array.length s in
  assert (n > 0 && p >= 0.0 && p <= 100.0);
  if n = 1 then s.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median xs = percentile xs 50.0

let trimmed_mean xs frac =
  let n = Array.length xs in
  assert (n > 0 && frac >= 0.0 && frac < 0.5);
  let s = sorted xs in
  let drop = int_of_float (frac *. float_of_int n) in
  let lo = drop and hi = n - 1 - drop in
  if lo > hi then median xs
  else begin
    let acc = ref 0.0 in
    for i = lo to hi do
      acc := !acc +. s.(i)
    done;
    !acc /. float_of_int (hi - lo + 1)
  end

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let argmin xs =
  assert (Array.length xs > 0);
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) < xs.(!best) then best := i
  done;
  !best

let rmse xs ys =
  assert (Array.length xs = Array.length ys);
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = xs.(i) -. ys.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end
