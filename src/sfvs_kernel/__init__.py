"""Polynomial kernelization for subset feedback vertex set with edge subsets.

An instance is a multigraph, a set S of special edge ids, and a budget k;
a solution deletes at most k vertices so that no remaining cycle uses a
special edge. The package reduces instances in two equivalence-preserving
stages (structural rules that bound S, then a randomized matroid argument
that shrinks the graph around S) and ships exhaustive reference solvers,
generators, a plain-text instance format, and a self-check sweep.
"""

from .generators import bubble_forest, gadget_suite, gnm, planted
from .instancefile import (FormatError, parse_instance, read_instance,
                           serialize_instance, write_instance)
from .multigraph import (Instance, Multigraph, Normalization, PairInstance,
                         find_s_cycle, has_s_cycle, is_solution, normalize,
                         s_cycle_packing, torso)
from .oracle import (FeasibleZ, SolveResult, brute_force_flower,
                     feasible_z_exact, feasible_z_greedy, solve_exact)
from .pipeline import PipelineReport, run_full, run_matroid, run_rules
from .ruleengine import EngineReport, reduce_pairs
from .skernel import KernelReport, kernelize_by_s
from .verify import SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "FeasibleZ", "FormatError", "EngineReport", "Instance", "KernelReport",
    "Multigraph", "Normalization", "PairInstance", "PipelineReport",
    "SolveResult", "SweepReport", "brute_force_flower", "bubble_forest",
    "feasible_z_exact", "feasible_z_greedy", "find_s_cycle", "gadget_suite",
    "gnm", "has_s_cycle", "is_solution", "kernelize_by_s", "normalize",
    "parse_instance", "planted", "read_instance", "reduce_pairs", "run_full",
    "run_matroid", "run_rules", "run_sweep", "s_cycle_packing",
    "serialize_instance", "solve_exact", "torso", "write_instance",
]
