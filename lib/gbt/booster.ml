type params = { rounds : int; learning_rate : float; tree : Tree.params; subsample : float }

let default_params =
  { rounds = 60; learning_rate = 0.15; tree = Tree.default_params; subsample = 1.0 }

(* Trees live in an array: [predict] runs once per explorer step, thousands
   of times per tuning round, and must not chase list links. *)
type t = { base_score : float; learning_rate : float; trees : Tree.t array }

let predict t x =
  let acc = ref t.base_score in
  for k = 0 to Array.length t.trees - 1 do
    acc := !acc +. (t.learning_rate *. Tree.predict t.trees.(k) x)
  done;
  !acc

let train ?rng params data =
  let n = Dataset.length data in
  if n = 0 then invalid_arg "Booster.train: empty dataset";
  if params.subsample <= 0.0 || params.subsample > 1.0 then
    invalid_arg "Booster.train: subsample out of (0, 1]";
  let targets = Dataset.targets data in
  let base_score = Util.Stats.mean targets in
  let predictions = Array.make n base_score in
  (* Sorted once: every round's tree starts from the same orders, since only
     the gradients change between rounds. *)
  let sorted = Dataset.presort data in
  let trees = ref [] in
  for _ = 1 to params.rounds do
    let grad = Array.init n (fun i -> predictions.(i) -. targets.(i)) in
    let hess = Array.make n 1.0 in
    (* Row subsampling: zeroing a sample's hessian and gradient removes it
       from every split statistic, which is equivalent to dropping the row. *)
    (match rng with
    | Some rng when params.subsample < 1.0 ->
      for i = 0 to n - 1 do
        if Util.Rng.float rng 1.0 > params.subsample then begin
          grad.(i) <- 0.0;
          hess.(i) <- 0.0
        end
      done
    | _ -> ());
    let tree = Tree.fit params.tree sorted ~grad ~hess in
    trees := tree :: !trees;
    for i = 0 to n - 1 do
      predictions.(i) <-
        predictions.(i) +. (params.learning_rate *. Tree.predict tree (Dataset.features data i))
    done
  done;
  { base_score; learning_rate = params.learning_rate; trees = Array.of_list (List.rev !trees) }

(* Tab-separated fields (trees contain spaces but never tabs). *)
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

let train_rmse t data =
  let predicted =
    Array.init (Dataset.length data) (fun i -> predict t (Dataset.features data i))
  in
  Util.Stats.rmse predicted (Dataset.targets data)

let num_trees t = Array.length t.trees
