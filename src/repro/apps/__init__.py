"""The paper's seven application benchmarks (SPMD over the CHK-LIB API).

Tightly-coupled: SOR, ISING (halo exchange), GAUSS, ASP (pivot broadcast),
NBODY (ring pipeline). Loosely-coupled: TSP, NQUEENS (static task split,
end-only reduction).
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "Application": "base",
    "SOR": "sor",
    "Ising": "ising",
    "ASP": "asp",
    "NBody": "nbody",
    "Gauss": "gauss",
    "TSP": "tsp",
    "NQueens": "nqueens",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
