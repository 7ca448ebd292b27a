"""Op-level gradient checks for the reverse-mode core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrikit import autodiff as ad
from attrikit.autodiff import Adam, Tensor


def finite_diff(build_loss, param: Tensor, h=1e-6):
    numeric = np.zeros_like(param.value)
    flat = param.value.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(build_loss().value)
        flat[i] = orig - h
        down = float(build_loss().value)
        flat[i] = orig
        num_flat[i] = (up - down) / (2.0 * h)
    return numeric


def check_param(build_loss, param: Tensor, tol=1e-6):
    param.grad = None
    loss = build_loss()
    loss.backward()
    numeric = finite_diff(build_loss, param)
    assert np.allclose(param.grad, numeric, rtol=1e-4, atol=tol), (param.grad, numeric)


def test_matmul_grad_batched_and_plain():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = rng.normal(size=(5, 4, 3))

    check_param(lambda: ad.mean(ad.matmul(a, b)), a)
    check_param(lambda: ad.mean(ad.matmul(a, b)), b)
    check_param(lambda: ad.mean(ad.matmul(ad.constant(x), b)), b)


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(1)
    bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = ad.constant(rng.normal(size=(3, 4)))

    check_param(lambda: ad.mean(ad.add(x, bias)), bias)
    check_param(lambda: ad.mean(ad.mul(w, w)), w)
    check_param(lambda: ad.mean(ad.sub(ad.mul(x, bias), bias)), bias)


def test_activation_grads():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(6,)), requires_grad=True)
    check_param(lambda: ad.mean(ad.tanh(w)), w)
    check_param(lambda: ad.mean(ad.sigmoid(w)), w)
    relu_w = Tensor(np.array([-2.0, -0.5, 0.3, 1.7]), requires_grad=True)
    check_param(lambda: ad.mean(ad.relu(relu_w)), relu_w)


def test_narrow_and_pad_grads():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    check_param(lambda: ad.mean(ad.narrow(w, 1, 1, 3)), w)
    check_param(lambda: ad.mean(ad.mul(ad.pad_left(w, 1, 2), ad.pad_left(w, 1, 2))), w)


def test_mse_matches_hand_value():
    pred = ad.constant(np.array([[1.0], [2.0]]))
    target = ad.constant(np.array([[0.0], [4.0]]))
    assert float(ad.mse(pred, target).value) == pytest.approx((1.0 + 4.0) / 2.0)


def test_shared_node_accumulates_grad():
    w = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.mean(ad.mul(w, w))  # d/dw w^2 = 2w
    loss.backward()
    assert w.grad[0] == pytest.approx(6.0)


def test_constants_carry_no_graph():
    rng = np.random.default_rng(4)
    x = ad.constant(rng.normal(size=(2, 5, 3)))
    b = ad.constant(rng.normal(size=(3,)))
    m = ad.constant(rng.normal(size=(3, 3)))
    results = [ad.add(x, b), ad.sub(x, b), ad.mul(x, b), ad.matmul(x, m), ad.tanh(x), ad.sigmoid(x),
               ad.relu(x), ad.narrow(x, 1, 1, 3), ad.pad_left(x, 1, 2), ad.mean(x), ad.mse(x, b)]
    assert all(r.parents == () for r in results)

    w = ad.parameter((3, 2), rng, 0.5)
    ad.mean(ad.matmul(x, w)).backward()
    assert x.grad is None
    assert w.grad is not None and w.grad.shape == (3, 2)


def test_backward_requires_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(w, w).backward()


def test_adam_descends_quadratic():
    w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    for _ in range(500):
        w.grad = None
        loss = ad.mean(ad.mul(w, w))
        loss.backward()
        opt.step()
    assert np.all(np.abs(w.value) < 0.05)


class PerParameterAdam:
    """Adam as it was written before the flat buffer: one update per
    parameter, rebinding ``p.value`` each step. The oracle for ``Adam``."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g
            m_hat = self.m[i] / (1.0 - beta1**self.t)
            v_hat = self.v[i] / (1.0 - beta2**self.t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def adam_cases(draw):
    """1-12 parameters of 0-3 axes of length 1-4, 1-8 steps in which each
    gradient is drawn or None, and gradients spread over many magnitudes."""
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple), min_size=1, max_size=12))
    steps = draw(st.integers(1, 8))
    missing = draw(st.lists(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)),
                            min_size=steps, max_size=steps))
    lr = draw(st.sampled_from([1e-3, 0.02, 0.1, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = [rng.normal(size=shape) for shape in shapes]
    grads = [[None if gone else rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
              for shape, gone in zip(shapes, row)] for row in missing]
    return values, grads, lr


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(case=adam_cases())
def test_adam_bit_equals_per_parameter_update(case):
    values, grads, lr = case
    params = [Tensor(v.copy(), requires_grad=True) for v in values]
    oracle = [Tensor(v.copy(), requires_grad=True) for v in values]
    opt, ref = Adam(params, lr), PerParameterAdam(oracle, lr)
    for p, v in zip(params, values):
        assert p.value.shape == v.shape
        assert np.array_equal(bits(p.value), bits(v))
    for row in grads:
        for p, q, g in zip(params, oracle, row):
            p.grad = q.grad = g
        opt.step()
        ref.step()
        for p, q in zip(params, oracle):
            assert p.value.shape == q.value.shape
            assert np.array_equal(bits(p.value), bits(q.value))
            assert np.shares_memory(p.value, opt.value)  # updated in place, never rebound
