"""Minimal reverse-mode automatic differentiation over float64 arrays.

Just enough ops for the sequence models in this package: broadcasting
add/sub/mul, matmul with batched left operands, the usual activations,
axis slicing, and left zero-padding along the time axis. Everything is
plain numpy, which keeps training bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents", "_backward")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.value = np.asarray(value, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

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
            for parent in node.parents:
                stack.append((parent, False))

        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def parameter(value, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Leaf tensor with gradient tracking; optionally uniform(-scale, scale)."""
    if rng is not None:
        value = rng.uniform(-scale, scale, size=value)
    return Tensor(value, requires_grad=True)


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t.parents for t in tensors)


def constant(value) -> Tensor:
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_value = a.value + b.value

    def backward(grad):
        if a.requires_grad or a.parents:
            a._accumulate(_unbroadcast(grad, a.value.shape))
        if b.requires_grad or b.parents:
            b._accumulate(_unbroadcast(grad, b.value.shape))

    if not _needs_graph(a, b):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a, b), backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_value = a.value - b.value

    def backward(grad):
        if a.requires_grad or a.parents:
            a._accumulate(_unbroadcast(grad, a.value.shape))
        if b.requires_grad or b.parents:
            b._accumulate(-_unbroadcast(grad, b.value.shape))

    if not _needs_graph(a, b):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a, b), backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_value = a.value * b.value

    def backward(grad):
        if a.requires_grad or a.parents:
            a._accumulate(_unbroadcast(grad * b.value, a.value.shape))
        if b.requires_grad or b.parents:
            b._accumulate(_unbroadcast(grad * a.value, b.value.shape))

    if not _needs_graph(a, b):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a, b), backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b where a may carry leading batch axes and b is 2-D."""
    out_value = a.value @ b.value

    def backward(grad):
        if a.requires_grad or a.parents:
            a._accumulate(grad @ b.value.T)
        if b.requires_grad or b.parents:
            flat_a = a.value.reshape(-1, a.value.shape[-1])
            flat_g = grad.reshape(-1, grad.shape[-1])
            b._accumulate(flat_a.T @ flat_g)

    if not _needs_graph(a, b):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a, b), backward=backward)


def tanh(a: Tensor) -> Tensor:
    out_value = np.tanh(a.value)

    def backward(grad):
        a._accumulate(grad * (1.0 - out_value**2))

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def sigmoid(a: Tensor) -> Tensor:
    out_value = 1.0 / (1.0 + np.exp(-a.value))

    def backward(grad):
        a._accumulate(grad * out_value * (1.0 - out_value))

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def relu(a: Tensor) -> Tensor:
    out_value = np.maximum(a.value, 0.0)

    def backward(grad):
        a._accumulate(grad * (a.value > 0.0))

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradients scatter back into place."""
    key = [slice(None)] * a.value.ndim
    key[axis] = slice(start, start + length)
    key = tuple(key)
    out_value = a.value[key]

    def backward(grad):
        full = np.zeros_like(a.value)
        full[key] = grad
        a._accumulate(full)

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def pad_left(a: Tensor, axis: int, amount: int) -> Tensor:
    """Zero-pad at the start of one axis (causal padding)."""
    if amount == 0:
        return a
    widths = [(0, 0)] * a.value.ndim
    widths[axis] = (amount, 0)
    out_value = np.pad(a.value, widths)
    key = [slice(None)] * a.value.ndim
    key[axis] = slice(amount, None)
    key = tuple(key)

    def backward(grad):
        a._accumulate(grad[key])

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def mean(a: Tensor) -> Tensor:
    out_value = np.asarray(a.value.mean())

    def backward(grad):
        a._accumulate(np.full_like(a.value, float(grad) / a.value.size))

    if not _needs_graph(a):
        return Tensor(out_value)
    return Tensor(out_value, parents=(a,), backward=backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    diff = sub(pred, target)
    return mean(mul(diff, diff))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; full-batch use keeps it deterministic."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * g * g
            m_hat = self.m[i] / (1.0 - _BETA1**self.t)
            v_hat = self.v[i] / (1.0 - _BETA2**self.t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
