"""Two compiled scipy routines, loaded without importing their packages,
and a pin of numpy's BLAS to one thread.

ARIMA filters its residuals with ``scipy.signal.lfilter`` and decomp
solves its normal equations with ``scipy.linalg.cho_factor``/``cho_solve``.
Importing ``scipy.signal`` takes about a second and ``scipy.linalg`` about
a quarter of one, for one compiled routine each. So each routine is loaded
once, straight from its extension file, and neither package's
``__init__`` runs. Those routine names are scipy internals, so the public
functions are the contract: if a file, a name or a call is not there, the
first use falls back to them for the rest of the process. Both paths give
the same bits, and both refuse a Gram matrix whose columns are dependent.

``one_blas_thread`` sets numpy's bundled OpenBLAS to one thread through
its own thread-count functions, found through numpy's extension module.
Where no such function is there, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path
from typing import Callable

import numpy as np

_ONE = np.ones(1)
# The least U_jj^2 / G_jj a Cholesky factor U of G may have, the share of
# column j's norm that the columns before it do not explain. Below it the
# columns are dependent and the factorization succeeded only by rounding.
MIN_PIVOT_SHARE = 1e-10
# What a moved, renamed or re-signed internal raises when it is loaded or first called.
_UNAVAILABLE = (ImportError, OSError, AttributeError, TypeError, ValueError)


def _extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file alone."""
    qualified = f"scipy.{package}.{name}"
    if qualified in sys.modules:  # scipy has loaded it already
        return sys.modules[qualified]
    scipy_spec = importlib.util.find_spec("scipy")  # finds the package without importing it
    if scipy_spec is None or scipy_spec.origin is None:
        raise ImportError("scipy is not installed")
    folder = Path(scipy_spec.origin).parent / package
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(qualified, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # The loader registers the module; a later import of its package
            # must register it itself, or the package lacks the attribute.
            sys.modules.pop(qualified, None)
            return module
    raise ImportError(f"no compiled {qualified} in {folder}")


def _public_filter(a, x):
    from scipy.signal import lfilter

    return lfilter(_ONE, a, x)


def _check_pivots(gram, factor):
    share = np.diag(factor) ** 2 / np.diag(gram)
    j = int(np.argmin(share))
    if share[j] < MIN_PIVOT_SHARE:
        raise np.linalg.LinAlgError(f"column {j} depends on the columns before it (pivot share {share[j]:.1e})")


def _public_solve(gram, rhs):
    from scipy.linalg import cho_factor, cho_solve

    factor = cho_factor(gram)
    _check_pivots(gram, factor[0])
    return cho_solve(factor, rhs)


@functools.cache
def _filter() -> Callable:
    try:
        kernel = _extension("signal", "_sigtools")._linear_filter
        kernel(_ONE, np.array([1.0, 0.5]), np.zeros(2), -1)
    except _UNAVAILABLE:
        return _public_filter

    def direct(a, x):
        if len(a) == 1:
            # lfilter convolves a one-tap filter instead, which turns -0.0 into +0.0.
            return np.convolve(_ONE / a[0], x)
        return kernel(_ONE, a, x, -1)

    return direct


@functools.cache
def _solver() -> Callable:
    try:
        flapack = _extension("linalg", "_flapack")
        potrf, potrs = flapack.dpotrf, flapack.dpotrs
        potrs(potrf(np.eye(1), lower=0, clean=0)[0], _ONE, lower=0)
    except _UNAVAILABLE:
        return _public_solve

    def direct(gram, rhs):
        # cho_factor and cho_solve reject non-finite input with this same ValueError.
        gram, rhs = np.asarray_chkfinite(gram), np.asarray_chkfinite(rhs)
        factor, info = potrf(gram, lower=0, clean=0)
        # A negative info flags an illegal argument, which the wrapper's shape checks rule out.
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
        _check_pivots(gram, factor)
        return potrs(factor, rhs, lower=0)[0]

    return direct


def linear_filter(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter([1.0], a, x)``: x through the all-pole filter 1 / A."""
    return _filter()(a, x)


def cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``cho_solve(cho_factor(gram), rhs)`` for a symmetric positive-definite ``gram``.

    Raises ``numpy.linalg.LinAlgError`` when ``gram`` is not positive
    definite, or its factor U has a U_jj^2 / G_jj below ``MIN_PIVOT_SHARE``,
    and ``ValueError`` when an input is not finite.
    """
    return _solver()(gram, rhs)


# The thread-count functions of OpenBLAS builds: scipy-openblas (numpy's
# wheels) with 64-bit integers or 32, and plain OpenBLAS the same two ways.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                        "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _thread_controls(lib) -> tuple[Callable, Callable] | None:
    """The (get, set) thread-count functions ``lib`` exports, if any."""
    for symbol in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, symbol.format("get"), None), getattr(lib, symbol.format("set"), None)
        if get is not None and set_ is not None:
            return get, set_
    return None


@functools.cache
def _blas_controls() -> tuple[Callable, Callable] | None:
    """numpy's OpenBLAS thread controls. A handle on numpy's extension
    module resolves symbols through the libraries it links, its BLAS too."""
    try:
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath
        return _thread_controls(ctypes.CDLL(_multiarray_umath.__file__))
    except _UNAVAILABLE:
        return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's BLAS on one thread, then restore the
    caller's count. Overlapping bodies on several Python threads share the
    pin: the count is restored when the last of them exits."""
    global _pin_depth, _pin_saved
    controls = _blas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)
