"""Deterministic Nelder-Mead simplex minimizer.

Hand-rolled so the initial simplex, step ordering, and stopping rule are
fully pinned down; fits that start from the same point always walk the
same path regardless of library versions.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += _INITIAL_STEP * max(1.0, abs(x0[i]))
    fvals = np.array([objective(v) for v in simplex], dtype=float)

    n_iter = 0
    while n_iter < max_iter:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        f_spread = abs(fvals[-1] - fvals[0])
        x_spread = np.max(np.abs(simplex[1:] - simplex[0]))
        if f_spread <= _F_TOL * (1.0 + abs(fvals[0])) and x_spread <= _X_TOL * (1.0 + np.max(np.abs(simplex[0]))):
            return MinimizeResult(x=simplex[0], fun=float(fvals[0]), n_iter=n_iter, converged=True)

        n_iter += 1
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + _RHO * (centroid - simplex[-1])
        fr = objective(xr)

        if fr < fvals[0]:
            xe = centroid + _CHI * (xr - centroid)
            fe = objective(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + _GAMMA * (xr - centroid)
                fc = objective(xc)
                accept = fc <= fr
            else:
                xc = centroid - _GAMMA * (centroid - simplex[-1])
                fc = objective(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _SIGMA * (simplex[i] - simplex[0])
                    fvals[i] = objective(simplex[i])

    best = int(np.argmin(fvals))
    raise ConvergenceError(
        f"Nelder-Mead did not converge within {max_iter} iterations "
        f"(best objective {fvals[best]:.6g})",
        objective=float(fvals[best]),
    )
