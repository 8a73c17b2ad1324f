"""Float LP backend via :func:`scipy.optimize.linprog`.

The float reference for the exact simplex: tests assert both agree to
float precision.  No solver path calls it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .simplex import LinearProgram, SimplexError

__all__ = ["solve_with_scipy"]


def solve_with_scipy(lp: LinearProgram) -> List[float]:
    """Solve a :class:`LinearProgram` in floats; returns the variable vector.

    Raises :class:`SimplexError` on infeasible/unbounded problems so callers
    can treat both backends uniformly.
    """
    from scipy.optimize import linprog  # deferred: scipy import is slow

    c = np.array([float(v) for v in lp.c])
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    if lp.a_ub:
        a_ub = np.array([[float(v) for v in row] for row in lp.a_ub])
        b_ub = np.array([float(v) for v in lp.b_ub])
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    if lp.a_eq:
        a_eq = np.array([[float(v) for v in row] for row in lp.a_eq])
        b_eq = np.array([float(v) for v in lp.b_eq])

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * lp.num_vars,
        method="highs",
    )
    if not res.success:
        raise SimplexError(f"scipy linprog failed: {res.message}")
    return [float(x) for x in res.x]
