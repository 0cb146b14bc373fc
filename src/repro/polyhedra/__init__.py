"""Polyhedral substrate: affine expressions, inequality systems,
Fourier-Motzkin projection, the Omega integer test, and Ancourt-Irigoin
loop scanning.

The paper's central claim (Section 1) is that data decompositions,
computation decompositions and dataflow information can all be expressed
as systems of linear inequalities, and every code-generation question
answered by projecting those systems onto lower-dimensional spaces.
This package is that machinery.
"""

from .affine import LinExpr, const, linear_combination, var
from .bexpr import (
    BExpr,
    CeilDiv,
    Combo,
    FloorDiv,
    Lin,
    MaxE,
    MinE,
    ModE,
    lower_bound_expr,
    simplify_bexpr,
    upper_bound_expr,
)
from . import diskcache
from . import stats
from .fourier_motzkin import (
    LRUMemo,
    VarBounds,
    eliminate,
    eliminate_exact_flag,
    eliminate_many,
    extract_bounds,
    projection_cache_clear,
    projection_cache_info,
    rational_feasible,
    set_projection_cache_size,
)
from .lexmax import (
    LexMaxUnsupportedError,
    LexPiece,
    parametric_lexmax,
    parametric_lexmin,
    subtract_piece,
)
from .omega import (
    OmegaDepthError,
    eliminate_equalities,
    enumerate_points,
    feasibility_cache_clear,
    implies_equality,
    implies_inequality,
    integer_feasible,
    is_empty,
    remove_redundant,
    sample_point,
    set_feasibility_memo_size,
)
from .simplify import (
    NONE,
    SEMANTIC,
    SUBSUME,
    set_default_level as set_default_prune_level,
    simplify,
)
from .scan import (
    EmptyPolyhedronError,
    ScanLoop,
    ScanResult,
    enumerate_scan,
    scan,
)
from .system import InfeasibleError, System, canonical_equality

__all__ = [
    "BExpr",
    "CeilDiv",
    "Combo",
    "EmptyPolyhedronError",
    "FloorDiv",
    "InfeasibleError",
    "LRUMemo",
    "LexMaxUnsupportedError",
    "LexPiece",
    "Lin",
    "LinExpr",
    "MaxE",
    "MinE",
    "ModE",
    "NONE",
    "OmegaDepthError",
    "SEMANTIC",
    "SUBSUME",
    "ScanLoop",
    "ScanResult",
    "System",
    "VarBounds",
    "canonical_equality",
    "const",
    "eliminate",
    "eliminate_equalities",
    "eliminate_exact_flag",
    "eliminate_many",
    "enumerate_points",
    "enumerate_scan",
    "extract_bounds",
    "feasibility_cache_clear",
    "implies_equality",
    "implies_inequality",
    "integer_feasible",
    "is_empty",
    "linear_combination",
    "lower_bound_expr",
    "parametric_lexmax",
    "parametric_lexmin",
    "projection_cache_clear",
    "projection_cache_info",
    "rational_feasible",
    "remove_redundant",
    "sample_point",
    "scan",
    "set_default_prune_level",
    "set_feasibility_memo_size",
    "set_projection_cache_size",
    "diskcache",
    "simplify",
    "simplify_bexpr",
    "stats",
    "subtract_piece",
    "upper_bound_expr",
    "var",
]
