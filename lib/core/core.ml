(** Library entry point — the paper's primary contribution.

    Theory (Section 4): {!Genfun}, {!Composite_bound}, {!Direct_bound},
    {!Winograd_bound}.  Dataflow analysis (Section 5): {!Dataflow_cost},
    {!Optimality}.  Auto-tuning engine (Section 6): {!Config},
    {!Search_space}, {!Cost_model}, {!Explorer}, {!Tuner}, {!Baselines}. *)

module Genfun = Genfun
module Composite_bound = Composite_bound
module Direct_bound = Direct_bound
module Winograd_bound = Winograd_bound
module Matmul_bound = Matmul_bound
module Dataflow_cost = Dataflow_cost
module Optimality = Optimality
module Config = Config
module Search_space = Search_space
module Cost_model = Cost_model
module Explorer = Explorer
module Tuner = Tuner
module Supervisor = Supervisor
module Baselines = Baselines
module Tune_journal = Tune_journal
module Template = Template
