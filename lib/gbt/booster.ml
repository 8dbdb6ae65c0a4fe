type split_method = Exact | Hist

let split_method_tag = function Exact -> "exact" | Hist -> "hist"

let split_method_of_tag = function
  | "exact" -> Some Exact
  | "hist" -> Some Hist
  | _ -> None

type params = {
  rounds : int;
  learning_rate : float;
  tree : Tree.params;
  subsample : float;
  split_method : split_method;
  max_bins : int;
}

let default_params =
  {
    rounds = 60;
    learning_rate = 0.15;
    tree = Tree.default_params;
    subsample = 1.0;
    split_method = Exact;
    max_bins = Dataset.max_supported_bins;
  }

let hist_params = { default_params with split_method = Hist }

(* Trees live in an array: [predict] runs once per explorer step, thousands
   of times per tuning round, and must not chase list links. *)
type t = { base_score : float; learning_rate : float; trees : Tree.t array }

let predict t x =
  let acc = ref t.base_score in
  for k = 0 to Array.length t.trees - 1 do
    acc := !acc +. (t.learning_rate *. Tree.predict t.trees.(k) x)
  done;
  !acc

let predict_many ?domains t rows =
  let domains = Option.value domains ~default:(Util.Parallel.recommended_domains ()) in
  Util.Parallel.map ~domains rows (predict t)

(* Rounds below this many samples update predictions inline: distributing a
   few hundred tree walks costs more than running them. *)
let update_grain = 512

let train ?rng ?domains params data =
  let domains = match domains with Some d -> max 1 d | None -> Util.Parallel.recommended_domains () in
  let n = Dataset.length data in
  if n = 0 then invalid_arg "Booster.train: empty dataset";
  if params.subsample <= 0.0 || params.subsample > 1.0 then
    invalid_arg "Booster.train: subsample out of (0, 1]";
  let targets = Dataset.targets data in
  let base_score = Util.Stats.mean targets in
  let predictions = Array.make n base_score in
  (* Each split method prepares its view of the dataset once per [train]
     call (sorted orders, or bin matrix and cut points); every round's tree
     shares it, since only the gradients change between rounds.  The hist
     path also reuses [leaf_out] across rounds: [fit_hist] fills every slot
     with the owning leaf's weight, sparing it a predict walk per sample. *)
  let fit_tree, leaf_out =
    match params.split_method with
    | Exact ->
      let sorted = Dataset.presort data in
      ((fun ~grad ~hess -> Tree.fit params.tree sorted ~grad ~hess), None)
    | Hist ->
      let binned = Dataset.bin ~max_bins:params.max_bins data in
      let leaf_out = Array.make n 0.0 in
      ( (fun ~grad ~hess -> Tree.fit_hist ~domains ~leaf_out params.tree binned ~grad ~hess),
        Some leaf_out )
  in
  let trees = ref [] in
  for _ = 1 to params.rounds do
    let grad = Array.init n (fun i -> predictions.(i) -. targets.(i)) in
    let hess = Array.make n 1.0 in
    (* Row subsampling: zeroing a sample's hessian and gradient removes it
       from every split statistic, which is equivalent to dropping the row.
       The rng draw stays sequential so training is domain-count invariant. *)
    (match rng with
    | Some rng when params.subsample < 1.0 ->
      for i = 0 to n - 1 do
        if Util.Rng.float rng 1.0 > params.subsample then begin
          grad.(i) <- 0.0;
          hess.(i) <- 0.0
        end
      done
    | _ -> ());
    let tree = fit_tree ~grad ~hess in
    trees := tree :: !trees;
    (* Each slot is touched by exactly one iteration, so the update is a pure
       disjoint-write loop and parallelises without changing any result.  The
       hist path reads the leaf weight recorded during the fit instead of
       re-walking the tree; the values are bit-identical. *)
    let update =
      match leaf_out with
      | Some out ->
        fun i -> predictions.(i) <- predictions.(i) +. (params.learning_rate *. out.(i))
      | None ->
        fun i ->
          predictions.(i) <-
            predictions.(i)
            +. (params.learning_rate *. Tree.predict tree (Dataset.features data i))
    in
    if n >= update_grain then Util.Parallel.for_ ~domains 0 n update
    else
      for i = 0 to n - 1 do
        update i
      done
  done;
  { base_score; learning_rate = params.learning_rate; trees = Array.of_list (List.rev !trees) }

(* Tab-separated fields (trees contain spaces but never tabs); hex floats
   for the exact round-trip that keeps restored models bit-identical. *)
let to_compact t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "gbt1\t%h\t%h\t%d" t.base_score t.learning_rate
       (Array.length t.trees));
  Array.iter
    (fun tree ->
      Buffer.add_char buf '\t';
      Buffer.add_string buf (Tree.to_compact tree))
    t.trees;
  Buffer.contents buf

let of_compact s =
  match String.split_on_char '\t' s with
  | "gbt1" :: base :: lr :: n :: tree_fields -> begin
    match (float_of_string_opt base, float_of_string_opt lr, int_of_string_opt n) with
    | Some base_score, Some learning_rate, Some n
      when Float.is_finite base_score
           && Float.is_finite learning_rate
           && n = List.length tree_fields -> begin
      let trees = List.filter_map Tree.of_compact tree_fields in
      if List.length trees = n then
        Some { base_score; learning_rate; trees = Array.of_list trees }
      else None
    end
    | _ -> None
  end
  | _ -> None

let train_rmse t data =
  let predicted =
    Array.init (Dataset.length data) (fun i -> predict t (Dataset.features data i))
  in
  Util.Stats.rmse predicted (Dataset.targets data)

let num_trees t = Array.length t.trees
