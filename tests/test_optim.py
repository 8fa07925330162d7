"""Optimizer updates and the step-decay schedule."""

import tracemalloc

import numpy as np
import pytest

from graphlift import optim
from graphlift.errors import DomainError, UsageError
from graphlift.optim import SGD, Adam, SgdSchedule
from graphlift.pipeline import HopePipeline, PipelineConfig
from graphlift.tensor import Tensor


def test_schedule_closed_form():
    s = SgdSchedule(0.001, 0.9, 100)
    assert s.lr_at(0) == 0.001
    assert s.lr_at(99) == 0.001
    assert s.lr_at(100) == pytest.approx(0.0009)
    assert s.lr_at(250) == pytest.approx(0.001 * 0.9 ** 2)
    assert s.lr_at(4000) == pytest.approx(0.001 * 0.9 ** 40)


def test_schedule_constant_when_factor_one():
    s = SgdSchedule(0.01)
    assert s.lr_at(12345) == 0.01


def test_schedule_validation():
    with pytest.raises(DomainError):
        SgdSchedule(0.0)
    with pytest.raises(DomainError):
        SgdSchedule(0.1, 0.0)
    with pytest.raises(DomainError):
        SgdSchedule(0.1, 1.5)
    with pytest.raises(DomainError):
        SgdSchedule(0.1, 0.9, 0)
    with pytest.raises(DomainError):
        SgdSchedule(0.1).lr_at(-1)


def test_sgd_step_updates_and_zeroes():
    p = Tensor([1.0, 2.0], requires_grad=True, name="p")
    p.grad = np.array([10.0, -10.0])
    SGD({"p": p}).step(0.1)
    np.testing.assert_allclose(p.data, [0.0, 3.0])
    assert p.grad is None


def test_sgd_step_uses_schedule_step():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    SGD({"p": p}).step(SgdSchedule(1.0, 0.5, 10).lr_at(20))
    np.testing.assert_allclose(p.data, [0.75])


def test_sgd_step_missing_grad_is_usage_error():
    p = Tensor([1.0], requires_grad=True, name="w")
    q = Tensor([1.0], requires_grad=True, name="frozen")
    p.grad = np.array([1.0])
    with pytest.raises(UsageError):
        SGD({"w": p, "frozen": q}).step(0.1)
    # nothing was updated before the error surfaced
    np.testing.assert_array_equal(p.data, [1.0])


def test_sgd_step_rejects_non_positive_lr():
    p = Tensor([1.0], requires_grad=True, name="p")
    p.grad = np.array([1.0])
    opt = SGD({"p": p})
    for lr in (0.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            opt.step(lr)
    np.testing.assert_array_equal(p.data, [1.0])


def test_adam_first_step_is_signed_lr():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = Tensor([0.0, 0.0], requires_grad=True, name="p")
    opt = Adam({"p": p})
    p.grad = np.array([3.0, -7.0])
    opt.step(0.01)
    np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)
    assert p.grad is None


def test_adam_state_persists_across_steps():
    p = Tensor([0.0], requires_grad=True, name="p")
    opt = Adam({"p": p})
    for _ in range(5):
        p.grad = np.array([1.0])
        opt.step(0.1)
    # constant gradient keeps the corrected update near -lr each step
    np.testing.assert_allclose(p.data, [-0.5], atol=1e-6)


def test_adam_missing_grad_and_bad_lr():
    p = Tensor([0.0], requires_grad=True, name="p")
    opt = Adam({"p": p})
    with pytest.raises(UsageError):
        opt.step(0.1)
    p.grad = np.array([1.0])
    with pytest.raises(DomainError):
        opt.step(0.0)


# ---- the blocked in-place Adam update --------------------------------------


def _plain_adam(init, steps, b1=0.9, b2=0.999, eps=1e-8):
    """The whole-array formula the blocked update replaces, over (lr, grad) steps."""
    p, m, v = init.copy(), np.zeros(init.shape), np.zeros(init.shape)
    for t, (lr, g) in enumerate(steps, start=1):
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * (g * g)
        p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p


def _grad_layouts(rng, shape):
    """Gradients for `shape`: contiguous, transposed view, read-only broadcast view."""
    transposed = rng.normal(size=shape[::-1]).T
    broadcast = np.broadcast_to(rng.normal(size=shape[-1:]), shape)
    assert not broadcast.flags.writeable
    return [rng.normal(size=shape), transposed, broadcast]


@pytest.mark.parametrize("shape, layout", [
    ((2 * optim._ADAM_BLOCK + 7,), "contiguous"),
    ((3, optim._ADAM_BLOCK // 2 + 5), "contiguous"),
    ((3, optim._ADAM_BLOCK // 2 + 5), "transposed"),
    ((1,), "contiguous"),
    ((), "contiguous"),
    ((5, 3), "transposed"),
])
def test_adam_blocked_update_is_bitwise_the_plain_formula(shape, layout):
    rng = np.random.default_rng(11)
    init = rng.normal(size=shape)
    if layout == "transposed":
        init = np.ascontiguousarray(init.T).T
        assert not init.flags.c_contiguous
    steps = list(zip((0.01, 0.003, 0.02), _grad_layouts(rng, shape)))
    want = _plain_adam(init, steps)
    p = Tensor(init, requires_grad=True, name="p")
    opt = Adam({"p": p})
    for lr, g in steps:
        p.grad = g
        opt.step(lr)
    assert p.data.shape == shape
    np.testing.assert_array_equal(p.data, want)


def test_adam_step_allocates_no_parameter_sized_temporaries():
    # The desk stub W1 alone is 1024 x 2048 floats = 16.8 MB; the whole-array
    # formula makes several temporaries that size in one step.
    params = HopePipeline(PipelineConfig(), seed=0).stub_refine_parameters()
    rng = np.random.default_rng(2)
    opt = Adam(params)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    tracemalloc.start()
    try:
        opt.step(1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is None for p in params.values())
    assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"
