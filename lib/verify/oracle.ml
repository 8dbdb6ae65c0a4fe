module PG = Pebble.Pebble_game
module G = Dag.Graph

type outcome = {
  q_opt : int;
  moves : PG.move list;
  expanded : int;
}

type verdict =
  | Optimal of outcome
  | Budget_exhausted of { expanded : int }

type mode = Normalized | Reference

let default_budget = 400_000

(* The engine below runs A* over game positions (red mask, blue mask).  Cost
   is the I/O performed so far; Compute and Free are free moves.  Every
   transition is produced by [Pebble_game.apply] (via [trace]), so the search
   never re-implements the legality rules; the returned witness replays
   through the same checker.

   The heuristic — one store per output still lacking a blue pebble — is
   admissible (each such output needs its own red->blue transfer) and
   consistent (no edge lowers it by more than its cost), so the first goal
   expansion is optimal.

   [Reference] mode explores raw single moves, restricted only by the
   trivially sound "delete only when full" rule.  [Normalized] mode (the
   default) additionally applies three classic WLOG normalisations of optimal
   play, each an exchange argument on move order:

   - a Store of a non-output is delayed until the moment its red pebble is
     evicted (between the two, the value is red, so nothing can consume the
     blue copy) — so spills appear only as Store;Free eviction compounds;
   - an output is stored the moment it is computed and its red pebble freed
     immediately (outputs have no successors, so the pebble has no further
     use, and an earlier blue pebble is never worse);
   - outputs are never Loaded and never recomputed once blue (nothing reads
     them back).

   Both modes agree exactly — a test checks them against each other on small
   random DAGs — but Normalized expands orders of magnitude fewer positions.

   Dominance pruning: a position is pointless when another position with the
   same red set, a superset of blue pebbles and no more accumulated I/O is
   already known — the dominator reproduces any continuation move-for-move at
   no extra cost (extra blue pebbles only widen the legal loads; a Store the
   follower performs is either legal for the dominator or already done).  The
   per-red-mask Pareto front of (blue mask, cost) pairs stays tiny and
   removes "spill something irrelevant first" orderings. *)

type shared = {
  n : int;
  outputs_mask : int;
  is_output : bool array;
  compute_vs : G.vertex array;
}

(* A position packs both masks into one int key. *)
let max_vertices = (Sys.int_size - 1) / 2

let prepare g ~s =
  let n = G.num_vertices g in
  if n > max_vertices then
    invalid_arg
      (Printf.sprintf "Oracle.solve: %d vertices exceed the %d-vertex limit" n max_vertices);
  if s < G.max_in_degree g + 1 then
    invalid_arg "Oracle.solve: fast memory too small to compute every vertex";
  let outputs = G.outputs g in
  let outputs_mask = List.fold_left (fun m v -> m lor (1 lsl v)) 0 outputs in
  let is_output = Array.make n false in
  List.iter (fun v -> is_output.(v) <- true) outputs;
  { n; outputs_mask; is_output; compute_vs = G.compute_vertices g }

(* Successor generation; [relax] receives each candidate compound. *)
let expand_from sh g ~s ~mode ~relax (st : PG.state) =
  match mode with
  | Reference ->
    if st.red_count < s then begin
      let blue_only = st.blue land lnot st.red in
      for v = 0 to sh.n - 1 do
        if blue_only land (1 lsl v) <> 0 then relax st [ PG.Load v ]
      done;
      Array.iter
        (fun v ->
          if (not (PG.in_red st v)) && List.for_all (PG.in_red st) (G.preds g v) then
            relax st [ PG.Compute v ])
        sh.compute_vs
    end
    else
      for v = 0 to sh.n - 1 do
        if PG.in_red st v then relax st [ PG.Free v ]
      done;
    let red_only = st.red land lnot st.blue in
    for v = 0 to sh.n - 1 do
      if red_only land (1 lsl v) <> 0 then relax st [ PG.Store v ]
    done
  | Normalized ->
    if st.red_count < s then begin
      let blue_only = st.blue land lnot st.red in
      for v = 0 to sh.n - 1 do
        if blue_only land (1 lsl v) <> 0 && not sh.is_output.(v) then
          relax st [ PG.Load v ]
      done;
      Array.iter
        (fun v ->
          if (not (PG.in_red st v)) && List.for_all (PG.in_red st) (G.preds g v) then
            if sh.is_output.(v) then begin
              if not (PG.in_blue st v) then
                relax st [ PG.Compute v; PG.Store v; PG.Free v ]
            end
            else relax st [ PG.Compute v ])
        sh.compute_vs
    end
    else
      for v = 0 to sh.n - 1 do
        if PG.in_red st v then begin
          relax st [ PG.Free v ];
          if not (PG.in_blue st v) then relax st [ PG.Store v; PG.Free v ]
        end
      done

(* --- Frontier engine ---

   Positions are packed int keys [(red lsl n) lor blue], the open list is an
   array of cost-layered frontiers (one append-only Bigarray buffer of keys
   per f value, expanded whole layers at a time — zero-cost successors land
   in the layer being processed and are consumed by the same sweep), and the
   per-red-mask Pareto fronts are flat Bigarray buffers of (blue, cost) pairs
   checked with bitwise subset tests.

   The fronts stand in for per-state best-cost and closed tables: dominance
   is applied at *generation*, every key ever admitted is weakly dominated by
   some current front entry, and a popped key is expanded only if its exact
   (blue, cost) pair is still present — absence means something at least as
   good was admitted since, which the f-ordered sweep expands no later.
   Duplicate admissions are impossible (an equal pair dominates), so each
   (position, cost) is expanded at most once, and the first goal popped is
   optimal just as in plain A*.

   [g] is not stored in the layers: a key's blue mask determines h, and
   within layer f the cost is g = f - h.

   [want_witness] gates the parent table — the only per-state allocation
   left — so pure [q_opt] queries keep no path bookkeeping at all. *)

type buf = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let buf_create cap =
  { data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max cap 4); len = 0 }

let buf_push b x =
  if b.len = Bigarray.Array1.dim b.data then begin
    let bigger = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * b.len) in
    Bigarray.Array1.blit b.data (Bigarray.Array1.sub bigger 0 b.len);
    b.data <- bigger
  end;
  Bigarray.Array1.unsafe_set b.data b.len x;
  b.len <- b.len + 1

exception Found of verdict

let solve ?(budget = default_budget) ?(mode = Normalized) ?(want_witness = true) g ~s =
  let sh = prepare g ~s in
  let n = sh.n in
  let low_mask = (1 lsl n) - 1 in
  let key_of red blue = (red lsl n) lor blue in
  let h blue = PG.popcount (sh.outputs_mask land lnot blue) in
  let fronts : (int, buf) Hashtbl.t = Hashtbl.create 1024 in
  (* Admit (blue, cost) into red's front unless an entry dominates it; on
     admission, entries the new pair dominates are compacted away. *)
  let admit red blue cost =
    let front =
      match Hashtbl.find_opt fronts red with
      | Some f -> f
      | None ->
        let f = buf_create 8 in
        Hashtbl.add fronts red f;
        f
    in
    let d = front.data in
    let pairs = front.len / 2 in
    let dominated = ref false in
    let i = ref 0 in
    while (not !dominated) && !i < pairs do
      let b = Bigarray.Array1.unsafe_get d (2 * !i)
      and c = Bigarray.Array1.unsafe_get d ((2 * !i) + 1) in
      if c <= cost && PG.mask_subset blue b then dominated := true;
      incr i
    done;
    if !dominated then false
    else begin
      let w = ref 0 in
      for j = 0 to pairs - 1 do
        let b = Bigarray.Array1.unsafe_get d (2 * j)
        and c = Bigarray.Array1.unsafe_get d ((2 * j) + 1) in
        if not (c >= cost && PG.mask_subset b blue) then begin
          Bigarray.Array1.unsafe_set d (2 * !w) b;
          Bigarray.Array1.unsafe_set d ((2 * !w) + 1) c;
          incr w
        end
      done;
      front.len <- 2 * !w;
      buf_push front blue;
      buf_push front cost;
      true
    end
  in
  let live red blue cost =
    match Hashtbl.find_opt fronts red with
    | None -> false
    | Some front ->
      let d = front.data in
      let pairs = front.len / 2 in
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < pairs do
        if
          Bigarray.Array1.unsafe_get d (2 * !i) = blue
          && Bigarray.Array1.unsafe_get d ((2 * !i) + 1) = cost
        then found := true;
        incr i
      done;
      !found
  in
  let layers = ref (Array.make 64 None) in
  let max_f = ref 0 in
  let layer f =
    if f >= Array.length !layers then begin
      let bigger = Array.make (2 * max (Array.length !layers) (f + 1)) None in
      Array.blit !layers 0 bigger 0 (Array.length !layers);
      layers := bigger
    end;
    match !layers.(f) with
    | Some l -> l
    | None ->
      let l = buf_create 64 in
      !layers.(f) <- Some l;
      if f > !max_f then max_f := f;
      l
  in
  let parent : (int, PG.move list * int) Hashtbl.t =
    Hashtbl.create (if want_witness then 4096 else 0)
  in
  let relax (prev : PG.state) moves =
    match PG.trace g ~s ~init:prev moves with
    | Error _ -> ()
    | Ok st' ->
      let g' = PG.state_io st' in
      if admit st'.red st'.blue g' then begin
        let k' = key_of st'.red st'.blue in
        if want_witness then
          Hashtbl.replace parent k' (moves, key_of prev.red prev.blue);
        buf_push (layer (g' + h st'.blue)) k'
      end
  in
  let reconstruct goal_key =
    let rec back k acc =
      match Hashtbl.find_opt parent k with
      | None -> acc
      | Some (moves, prev) -> back prev (moves @ acc)
    in
    back goal_key []
  in
  let expanded = ref 0 in
  let init = PG.start g in
  ignore (admit init.red init.blue 0 : bool);
  buf_push (layer (h init.blue)) (key_of init.red init.blue);
  try
    let f = ref 0 in
    (* [max_f] grows as layers are seeded; zero-cost successors appended to
       the layer being swept are picked up by the same [head] walk. *)
    while !f <= !max_f do
      (match !layers.(!f) with
      | None -> ()
      | Some l ->
        (* LIFO within the layer: zero-cost successors appended mid-sweep are
           expanded next, so blue-rich positions (strong dominators) enter
           the fronts early; this depth-first-within-f order prunes
           hardest. *)
        while l.len > 0 do
          l.len <- l.len - 1;
          let k = Bigarray.Array1.unsafe_get l.data l.len in
          let red = k lsr n and blue = k land low_mask in
          let cost = !f - h blue in
          if live red blue cost then begin
            if PG.mask_subset sh.outputs_mask blue then
              raise
                (Found
                   (Optimal { q_opt = cost; moves = reconstruct k; expanded = !expanded }));
            incr expanded;
            if !expanded > budget then
              raise (Found (Budget_exhausted { expanded = !expanded }));
            (* Counters beyond [loads] are not consulted by move legality;
               carrying the cost as [loads] makes [state_io] of successors
               come out as their true g. *)
            let st =
              { PG.red; blue; red_count = PG.popcount red; loads = cost; stores = 0;
                computes = 0 }
            in
            expand_from sh g ~s ~mode ~relax st
          end
        done;
        (* The layer is fully consumed; release its buffer. *)
        !layers.(!f) <- None);
      incr f
    done;
    (* With s >= max in-degree + 1 a store-everything topological play always
       completes the game, so the layers cannot drain before a goal. *)
    assert false
  with Found v -> v

let q_opt_exn ?budget ?mode g ~s =
  match solve ?budget ?mode ~want_witness:false g ~s with
  | Optimal { q_opt; _ } -> q_opt
  | Budget_exhausted { expanded } ->
    failwith (Printf.sprintf "Oracle.q_opt_exn: budget exhausted after %d states" expanded)
