"""Equitable contiguous divisions of the unit interval.

Players value [0, 1] through piecewise densities; the solver finds n - 1
cuts so every player's own piece is worth the same to them, for any fixed
assignment of pieces to players. Sphere-parametrized residuals certify
solutions, an exhaustive grid search provides an independent reference,
and fairness reports judge any division against the classical criteria.
"""

from .analysis import FairnessReport, fairness_report, valuation_matrix, valuation_rows
from .errors import EquicutError
from .measure import (
    Density,
    generalized_inverse,
    integral_on,
    piecewise_constant,
    piecewise_linear,
    uniform,
    validate_and_normalize,
)
from .oracle import grid_search_equitable
from .solver import (
    EquitableSolution,
    Instance,
    SolveStatus,
    chain_cuts,
    plateau_refine,
    solve_equitable,
    sweep_permutations,
)
from .topology import cuts_to_sphere, descent_refine, residual_map, sphere_to_cuts

__version__ = "0.1.0"

__all__ = [
    "Density",
    "EquicutError",
    "EquitableSolution",
    "FairnessReport",
    "Instance",
    "SolveStatus",
    "chain_cuts",
    "cuts_to_sphere",
    "descent_refine",
    "fairness_report",
    "generalized_inverse",
    "grid_search_equitable",
    "integral_on",
    "piecewise_constant",
    "piecewise_linear",
    "plateau_refine",
    "residual_map",
    "solve_equitable",
    "sphere_to_cuts",
    "sweep_permutations",
    "uniform",
    "validate_and_normalize",
    "valuation_matrix",
    "valuation_rows",
]
