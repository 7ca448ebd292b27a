"""Minimal reverse-mode automatic differentiation over float64 arrays.

The sequence models train through their own kernels and take only
``parameter`` and ``Adam`` from here. The op set (broadcasting
add/sub/mul, matmul with batched left operands, the usual activations,
axis slicing, and left zero-padding along the time axis) remains the
reference the tests check those kernels against, bit for bit. Everything
is plain numpy, which keeps training bit-reproducible for a fixed seed.

``Adam`` owns the parameters' storage: it packs their values into one
flat buffer, rebinds each ``p.value`` to a view of it, and updates that
buffer in place on every step. Code that keeps a parameter's values
across steps must copy ``p.value``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ModelError

GradFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents")

    def __init__(self, value, requires_grad: bool = False,
                 parents: tuple[tuple["Tensor", GradFn], ...] = ()):
        self.value = np.asarray(value, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # (input, grad_fn) pairs; grad_fn maps this tensor's gradient to the input's.
        self.parents = parents

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar tensor through the recorded graph."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node.parents:
                stack.append((parent, False))

        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            for parent, grad_fn in node.parents:
                if parent.requires_grad or parent.parents:
                    parent._accumulate(grad_fn(node.grad))


def parameter(value, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Leaf tensor with gradient tracking; optionally uniform(-scale, scale)
    of shape ``value``. A shape numpy cannot allocate is a ModelError."""
    if rng is not None:
        try:
            value = rng.uniform(-scale, scale, size=value)
        except (MemoryError, ValueError) as err:
            raise ModelError(f"cannot allocate a parameter of shape {value}: {err}") from err
    return Tensor(value, requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


def _record(value: np.ndarray, *pairs: tuple[Tensor, GradFn]) -> Tensor:
    """An op's result; keeps its (input, grad_fn) pairs only if some input needs a gradient."""
    if any(t.requires_grad or t.parents for t, _ in pairs):
        return Tensor(value, parents=pairs)
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _axis_key(ndim: int, axis: int, span: slice) -> tuple[slice, ...]:
    key = [slice(None)] * ndim
    key[axis] = span
    return tuple(key)


def _scatter(grad: np.ndarray, like: np.ndarray, key: tuple[slice, ...]) -> np.ndarray:
    full = np.zeros_like(like)
    full[key] = grad
    return full


def add(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.value + b.value,
                   (a, lambda g: _unbroadcast(g, a.value.shape)),
                   (b, lambda g: _unbroadcast(g, b.value.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.value - b.value,
                   (a, lambda g: _unbroadcast(g, a.value.shape)),
                   (b, lambda g: -_unbroadcast(g, b.value.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.value * b.value,
                   (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
                   (b, lambda g: _unbroadcast(g * a.value, b.value.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b where a may carry leading batch axes and b is 2-D."""
    return _record(a.value @ b.value,
                   (a, lambda g: g @ b.value.T),
                   (b, lambda g: a.value.reshape(-1, a.value.shape[-1]).T @ g.reshape(-1, g.shape[-1])))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)
    return _record(out, (a, lambda g: g * (1.0 - out**2)))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.value))
    return _record(out, (a, lambda g: g * out * (1.0 - out)))


def relu(a: Tensor) -> Tensor:
    return _record(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0.0)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradients scatter back into place."""
    key = _axis_key(a.value.ndim, axis, slice(start, start + length))
    return _record(a.value[key], (a, lambda g: _scatter(g, a.value, key)))


def pad_left(a: Tensor, axis: int, amount: int) -> Tensor:
    """Zero-pad at the start of one axis (causal padding)."""
    widths = [(0, 0)] * a.value.ndim
    widths[axis] = (amount, 0)
    key = _axis_key(a.value.ndim, axis, slice(amount, None))
    return _record(np.pad(a.value, widths), (a, lambda g: g[key]))


def mean(a: Tensor) -> Tensor:
    return _record(np.asarray(a.value.mean()),
                   (a, lambda g: np.full_like(a.value, float(g) / a.value.size)))


def mse(pred: Tensor, target: Tensor) -> Tensor:
    diff = sub(pred, target)
    return mean(mul(diff, diff))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; full-batch use keeps it deterministic.

    The optimizer owns one flat float64 buffer each for the parameter
    values, ``m`` and ``v``. The constructor rebinds every ``p.value`` to a
    view of the value buffer (same shape, same numbers), and ``step``
    updates all parameters in place with a few whole-buffer ufunc calls.
    Each element goes through the same operations in the same order as the
    formula applied to one parameter at a time, so the results are
    bit-identical to that. A caller that wants a snapshot of a parameter
    must copy ``p.value``.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.value = np.concatenate([p.value.ravel() for p in params])
        offset = 0
        for p in params:
            shape, size = p.value.shape, p.value.size
            p.value = self.value[offset:offset + size].reshape(shape)
            offset += size
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self._scratch = tuple(np.empty_like(self.value) for _ in range(3))

    def step(self) -> None:
        """One update from each parameter's ``grad`` (None counts as zeros)."""
        self.t += 1
        g, step, denom = self._scratch
        np.concatenate([np.zeros(p.value.size) if p.grad is None else np.ravel(p.grad)
                        for p in self.params], out=g)
        # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g
        self.m *= _BETA1
        self.m += np.multiply(g, 1.0 - _BETA1, out=step)
        self.v *= _BETA2
        np.multiply(g, 1.0 - _BETA2, out=step)
        self.v += np.multiply(step, g, out=step)
        # value -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(self.v, 1.0 - _BETA2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        np.divide(self.m, 1.0 - _BETA1**self.t, out=step)
        step *= self.lr
        step /= denom
        self.value -= step
