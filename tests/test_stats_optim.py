"""Numerical helpers: normal quantile accuracy and the simplex minimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrikit import optim
from attrikit.errors import ConvergenceError
from attrikit.optim import MinimizeResult, nelder_mead
from attrikit.stats import normal_cdf, normal_quantile


def quantile_by_bisection(p: float) -> float:
    """Independent oracle: invert the erf-based CDF by bisection."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_matches_bisection_oracle():
    for p in [1e-6, 0.001, 0.025, 0.1, 0.25, 0.5, 0.7, 0.9, 0.975, 0.999, 1 - 1e-6]:
        assert abs(normal_quantile(p) - quantile_by_bisection(p)) < 1e-8


def test_normal_quantile_known_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-8)
    assert normal_quantile(0.84134474606854293) == pytest.approx(1.0, abs=1e-8)


def test_normal_quantile_rejects_bad_probability():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_nelder_mead_quadratic():
    res = nelder_mead(lambda x: float((x[0] - 3.0) ** 2 + 2.0 * (x[1] + 1.0) ** 2), np.zeros(2))
    assert res.converged
    assert np.allclose(res.x, [3.0, -1.0], atol=1e-6)


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    res = nelder_mead(rosen, np.array([-1.2, 1.0]), max_iter=5000)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_nelder_mead_zero_dimensional():
    res = nelder_mead(lambda x: 7.5, np.zeros(0))
    assert res.converged and res.fun == 7.5


def test_nelder_mead_deterministic():
    def noisyish(x):
        return float(math.sin(x[0]) + x[0] ** 2 + abs(x[1]))

    a = nelder_mead(noisyish, np.array([2.0, 2.0]))
    b = nelder_mead(noisyish, np.array([2.0, 2.0]))
    assert np.array_equal(a.x, b.x) and a.fun == b.fun and a.n_iter == b.n_iter


def test_nelder_mead_iteration_budget_error_carries_objective():
    with pytest.raises(ConvergenceError) as err:
        nelder_mead(lambda x: float(np.sum(x**2)), np.full(4, 10.0), max_iter=3)
    assert err.value.objective is not None and err.value.objective > 0


def array_nelder_mead(objective, x0, max_iter=2000):
    """Frozen oracle: the simplex on numpy arrays, as the library ran it
    before it moved to Python floats; the same path must give the same bits."""
    rho, chi, gamma, sigma = optim._RHO, optim._CHI, optim._GAMMA, optim._SIGMA
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n == 0:
        return MinimizeResult(x=x0, fun=float(objective(x0)), n_iter=0, converged=True)

    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += optim._INITIAL_STEP * max(1.0, abs(x0[i]))
    fvals = np.array([objective(v) for v in simplex], dtype=float)

    n_iter = 0
    while n_iter < max_iter:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        f_spread = abs(fvals[-1] - fvals[0])
        x_spread = np.max(np.abs(simplex[1:] - simplex[0]))
        if (f_spread <= optim._F_TOL * (1.0 + abs(fvals[0]))
                and x_spread <= optim._X_TOL * (1.0 + np.max(np.abs(simplex[0])))):
            return MinimizeResult(x=simplex[0], fun=float(fvals[0]), n_iter=n_iter, converged=True)

        n_iter += 1
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + rho * (centroid - simplex[-1])
        fr = objective(xr)

        if fr < fvals[0]:
            xe = centroid + chi * (xr - centroid)
            fe = objective(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + gamma * (xr - centroid)
                fc = objective(xc)
                accept = fc <= fr
            else:
                xc = centroid - gamma * (centroid - simplex[-1])
                fc = objective(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = objective(simplex[i])

    best = int(np.argmin(fvals))
    raise ConvergenceError(
        f"Nelder-Mead did not converge within {max_iter} iterations "
        f"(best objective {fvals[best]:.6g})",
        objective=float(fvals[best]),
    )


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _outcome(minimize, objective, x0, max_iter):
    """Everything a run shows: the points it asked for, in order, and its
    result or error, as bits."""
    calls = []

    def recorded(x):
        calls.append(x.tobytes())
        return objective(x)

    with np.errstate(all="ignore"):   # the array oracle warns on inf - inf
        try:
            res = minimize(recorded, x0, max_iter=max_iter)
        except ConvergenceError as err:
            return calls, ("raised", str(err), _bits(err.objective))
    return calls, ("returned", res.x.dtype, res.x.shape, res.x.tobytes(), _bits(res.fun), res.n_iter,
                   res.converged)


SPECIAL_VALUES = [math.nan, math.inf, -math.inf]


@st.composite
def simplex_problems(draw):
    """A start in 0-11 dimensions, a bowl (rounded to plateaus, so values
    tie) that returns NaN or +-inf past a cut in its first coordinate, and
    a budget that is often too small."""
    n = draw(st.integers(0, 11))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    x0 = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
    center = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
    weights = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)), dtype=float)
    offset = draw(st.floats(-10.0, 10.0))
    plateau = draw(st.sampled_from([0.0, 0.5, 8.0]))
    special = draw(st.sampled_from([None, *SPECIAL_VALUES]))
    cut = draw(st.floats(-2.0, 2.0))

    def objective(x):
        if special is not None and n and x[0] - x0[0] > cut:
            return special
        value = float(np.sum(weights * (x - center) ** 2)) + offset
        return math.floor(value / plateau) * plateau if plateau else value

    return objective, x0, draw(st.sampled_from([1, 2, 5, 20, 80, 400]))


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(problem=simplex_problems())
@example(problem=(lambda x: 7.5, np.zeros(0), 10))
# every value NaN: no test of the spreads passes, and the error reports NaN
@example(problem=(lambda x: math.nan, np.array([1.0, -2.0]), 5))
# NaN and -inf at once: -inf sorts first, NaN last, and the reported best is NaN
@example(problem=(lambda x: math.nan if x[1] > 0.05 else -math.inf if x[0] > 0.05 else float(x @ x),
                  np.zeros(3), 30))
def test_nelder_mead_matches_array_oracle(problem):
    # Python floats do the array form's operations in its order: the same
    # points, result, iteration count and error, bit for bit.
    objective, x0, max_iter = problem
    assert _outcome(nelder_mead, objective, x0, max_iter) == _outcome(array_nelder_mead, objective, x0, max_iter)


# Zeros of both signs, subnormals, the largest finite values and infinities.
EDGE_FLOATS = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]))


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(vertices=st.integers(1, 11).flatmap(
    lambda n: st.lists(st.lists(EDGE_FLOATS, min_size=n, max_size=n), min_size=1, max_size=12)))
@example(vertices=[[-0.0, 1.0], [-0.0, -0.0]])
def test_centroid_is_numpy_mean(vertices):
    # A NaN input is left out: which of two NaNs an add keeps is not pinned down.
    with np.errstate(all="ignore"):
        expected = np.mean(np.array(vertices), axis=0)
    assert np.array(optim._centroid(vertices)).tobytes() == expected.tobytes()
