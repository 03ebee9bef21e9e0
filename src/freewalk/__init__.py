"""Random-walk analysis on free products of abelian groups.

Exact convolution powers, Green functions and their derivatives,
first-return kernels to the free factors, the relative-geodesic automaton,
triangle/multiplicativity audits, and weak Tauberian checks.
"""

from .groups import (
    ComponentRecord,
    FactorElement,
    FactorSpec,
    FreeProduct,
    GroupElement,
    LiftedPath,
    RelativePath,
    free_group,
    free_product,
)
from .engine import BallTable, BudgetExceededError
from .measures import (
    EXACT,
    FLOAT,
    Measure,
    ReturnSequence,
    WalkReport,
    convolve,
    distribution,
    lazy_walk,
    measure_from_pairs,
    return_sequence,
    simple_walk,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentRecord",
    "FactorElement",
    "FactorSpec",
    "FreeProduct",
    "GroupElement",
    "LiftedPath",
    "RelativePath",
    "free_group",
    "free_product",
    "BallTable",
    "BudgetExceededError",
    "EXACT",
    "FLOAT",
    "Measure",
    "ReturnSequence",
    "WalkReport",
    "convolve",
    "distribution",
    "lazy_walk",
    "measure_from_pairs",
    "return_sequence",
    "simple_walk",
    "validate",
    "__version__",
]
