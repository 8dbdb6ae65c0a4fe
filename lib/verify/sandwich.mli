(** The sandwich invariant, executed: for small convolution/matmul/Winograd
    DAGs, [analytic lower bound <= Q_opt <= attainable schedule cost].

    The left inequality checks the paper's Theorems 4.6/4.12/4.20 machinery
    against ground truth (a lower bound above the exact optimum would be a
    soundness bug); the right checks that the repo's schedules are legal
    plays the optimum can only improve on.  [compulsory_lower] (used inputs
    + outputs) is an unconditional second floor that does not depend on the
    paper's theory at all. *)

type instance = {
  name : string;
  graph : Dag.Graph.t;
  lower_bound : s:int -> float;  (** the paper's analytic bound at [S = s] *)
  upper_costs : s:int -> (string * int) list;
      (** attainable plays: named (schedule x eviction policy) replay costs *)
}

type check = {
  instance : string;
  s : int;
  analytic_lower : float;
  compulsory_lower : int;
  q_opt : int;
  schedule_upper : int;  (** cheapest attainable play *)
  expanded : int;
  holds : bool;
      (** [analytic <= q_opt && compulsory <= q_opt && q_opt <= schedule] *)
}

val compulsory_io : Dag.Graph.t -> int
(** Used inputs (those with at least one successor) + outputs (sinks that
    are not inputs). *)

val conv_instance :
  ?stride:int -> w:int -> h:int -> kw:int -> kh:int -> cin:int -> cout:int -> unit ->
  instance

val matmul_instance : m:int -> k:int -> n:int -> unit -> instance

val winograd_instance :
  tiles_w:int -> tiles_h:int -> cin:int -> cout:int -> e:int -> r:int -> unit -> instance

val grid : deep:bool -> (instance * int list) list
(** The (instance, S values) pairs the suite verifies: >= 30 sandwiches in
    the smoke grid, more and larger in the deep grid. *)

val check : ?budget:int -> instance -> s:int -> (check, int) result
(** Solve one sandwich; [Error expanded] when the oracle budget ran out.
    Raises [Failure] if the oracle's witness fails to replay through
    [Pebble_game.trace] to exactly [q_opt] — the cross-validation that keeps
    the solver honest against the rule checker. *)

val pp_check : Format.formatter -> check -> unit
