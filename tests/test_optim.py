"""Adam's updates."""

import tracemalloc

import numpy as np
import pytest

from graphlift import optim
from graphlift.errors import DomainError, UsageError
from graphlift.optim import Adam
from graphlift.pipeline import HopePipeline, PipelineConfig
from graphlift.tensor import Tensor


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
    a = Tensor([1.0, 2.0], requires_grad=True, name="a")
    b = Tensor([3.0], requires_grad=True, name="b")
    opt = Adam({"a": a, "b": b})
    a.grad = np.array([0.5, -0.5])
    # b has no gradient, so the step raises before it updates a
    with pytest.raises(UsageError):
        opt.step(0.1)
    b.grad = np.array([1.0])
    for lr in (0.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            opt.step(lr)
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(b.data, [3.0])
    assert opt.t == 0
    opt.step(0.1)
    assert opt.t == 1 and a.data[0] < 1.0 and b.data[0] < 3.0


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
