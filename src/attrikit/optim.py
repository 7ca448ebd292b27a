"""Deterministic Nelder-Mead simplex minimizer.

Hand-rolled so the initial simplex, step ordering, and stopping rule are
fully pinned down; fits that start from the same point always walk the
same path regardless of library versions. The simplex has at most a
handful of vertices, so they are lists of Python floats: each step does
the IEEE operations of the array form, in the same order, without numpy's
per-call overhead on tiny vectors. Only the objective sees arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Standard Nelder-Mead coefficients (reflection, expansion, contraction, shrink).
_RHO, _CHI, _GAMMA, _SIGMA = 1.0, 2.0, 0.5, 0.5
# Initial simplex offset; relative objective and point spreads that stop the search.
_INITIAL_STEP, _F_TOL, _X_TOL = 0.1, 1e-12, 1e-9


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    n_iter: int
    converged: bool


def _centroid(vertices: list[list[float]]) -> list[float]:
    """``np.mean(vertices, axis=0)``: each coordinate summed in vertex order
    from numpy's 0.0 start (so all -0.0 sums to 0.0), then divided."""
    n = len(vertices)
    return [reduce(add, column, 0.0) / n for column in zip(*vertices)]


def nelder_mead(objective: Callable[[np.ndarray], float], x0: np.ndarray,
                max_iter: int = 2000) -> MinimizeResult:
    """Minimize ``objective`` starting from ``x0``.

    The initial simplex is x0 plus one vertex per coordinate offset by
    ``_INITIAL_STEP`` (scaled by |x0_i| when that is larger than 1).
    Raises ConvergenceError carrying the best objective seen when the
    iteration budget is exhausted.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n == 0:
        return MinimizeResult(x=x0, fun=float(objective(x0)), n_iter=0, converged=True)

    def value(vertex: list[float]) -> float:
        return float(objective(np.array(vertex)))

    start = x0.tolist()
    simplex = [start]
    for i in range(n):
        vertex = start.copy()
        vertex[i] += _INITIAL_STEP * max(1.0, abs(start[i]))
        simplex.append(vertex)
    fvals = [value(v) for v in simplex]

    n_iter = 0
    while n_iter < max_iter:
        # np.argsort(fvals, kind="stable"): ascending, NaN last, ties and NaNs kept in order
        ranked = sorted(zip(fvals, simplex), key=lambda pair: (pair[0] != pair[0], pair[0]))
        fvals, simplex = [f for f, _ in ranked], [v for _, v in ranked]

        # A NaN in either spread fails its test, as the array form's NaN
        # maximum does; a NaN in best makes some difference NaN, so the
        # NaN-blind max() in x_bound cannot pass a test that should fail.
        best = simplex[0]
        if abs(fvals[-1] - fvals[0]) <= _F_TOL * (1.0 + abs(fvals[0])):
            x_bound = _X_TOL * (1.0 + max(map(abs, best)))
            if all(abs(a - b) <= x_bound for v in simplex[1:] for a, b in zip(v, best)):
                return MinimizeResult(x=np.array(best), fun=fvals[0], n_iter=n_iter, converged=True)

        n_iter += 1
        centroid = _centroid(simplex[:-1])
        worst = simplex[-1]
        xr = [c + _RHO * (c - w) for c, w in zip(centroid, worst)]
        fr = value(xr)

        if fr < fvals[0]:
            xe = [c + _CHI * (r - c) for c, r in zip(centroid, xr)]
            fe = value(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = [c + _GAMMA * (r - c) for c, r in zip(centroid, xr)]
                fc = value(xc)
                accept = fc <= fr
            else:
                xc = [c - _GAMMA * (c - w) for c, w in zip(centroid, worst)]
                fc = value(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = [b + _SIGMA * (v - b) for b, v in zip(best, simplex[i])]
                    fvals[i] = value(simplex[i])

    # the first NaN, else the first minimum: the value np.argmin picks
    lowest = next((f for f in fvals if f != f), min(fvals))
    raise ConvergenceError(
        f"Nelder-Mead did not converge within {max_iter} iterations "
        f"(best objective {lowest:.6g})",
        objective=lowest,
    )
