"""Load-balancing evaluation for redundant distributed-storage allocations.

The package builds d-choice storage designs (replicated or XOR-coded),
samples demand vectors as uniform spacings, solves the optimal demand-split
problem (minimize the maximum node load), and estimates the robustness
probability and the load-imbalance factor, together with their closed-form
asymptotic predictors and stability conditions.

Importing the package loads numpy but no scipy.  Each function that calls
scipy (or a process pool) imports it in its body, so a command pays only for
the subpackages its code path reaches.  The structure queries behind
``inspect`` run on numpy alone; only a Hall check that the degree-counting
certificate cannot settle loads ``scipy.sparse.csgraph``, for its matching.
The LP route loads only HiGHS's extension module,
``scipy.optimize._highspy._core``, from its file, and no code imports
``scipy.optimize`` itself.
"""

__version__ = "0.1.0"

from .allocation import (
    Allocation,
    AllocationMatrices,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    to_matrices,
)
from .loadsolver import LoadSplit, min_max_load, min_max_load_flow
from .metrics import MetricEstimate, estimate_metrics, exact_p_sigma_k3, t_star_series

__all__ = [
    "__version__",
    "Allocation",
    "AllocationMatrices",
    "build_single_choice",
    "build_clustering",
    "build_cyclic",
    "build_block_design",
    "build_cyclic_xor",
    "to_matrices",
    "LoadSplit",
    "min_max_load",
    "min_max_load_flow",
    "MetricEstimate",
    "estimate_metrics",
    "exact_p_sigma_k3",
    "t_star_series",
]
