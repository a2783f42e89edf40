"""Budgeted decision making under imprecise probability.

Given acts over a finite state space, a credal set, and a budget k, compute
the minimax-regret and maximin-regret optimal k-subsets, their greedy
approximations, the k-budgeted decision rules, and the maximality set.
"""

from .budget import (
    BudgetSolution,
    CoverFamily,
    Criterion,
    budgeted_rule,
    cover_family,
    domination_graph_dot,
    oracle_optima,
    oracle_solve,
    reachability_check,
    solve_greedy,
    solve_maximin,
    solve_minimax,
)
from .credal import Act, CredalSet, LinearConstraint
from .errors import GuardExceededError, InfeasibleCredalError, ProblemFormatError
from .gen import GenConfig, generate_instance, sample_simplex
from .problemio import Problem, load_problem, problem_from_dict
from .regret import (
    NEG_INFINITY,
    RegretMatrix,
    maximal_acts,
    maximin_regret,
    minimax_regret,
    regret_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Act",
    "BudgetSolution",
    "CoverFamily",
    "CredalSet",
    "Criterion",
    "GenConfig",
    "GuardExceededError",
    "InfeasibleCredalError",
    "LinearConstraint",
    "NEG_INFINITY",
    "Problem",
    "ProblemFormatError",
    "RegretMatrix",
    "budgeted_rule",
    "cover_family",
    "domination_graph_dot",
    "generate_instance",
    "load_problem",
    "maximal_acts",
    "maximin_regret",
    "minimax_regret",
    "oracle_optima",
    "oracle_solve",
    "problem_from_dict",
    "reachability_check",
    "regret_matrix",
    "sample_simplex",
    "solve_greedy",
    "solve_maximin",
    "solve_minimax",
]
