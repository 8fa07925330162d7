"""Adam's updates."""

import math
import tracemalloc

import numpy as np
import pytest

from graphlift import optim
from graphlift.errors import DomainError
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
    with pytest.raises(DomainError, match="no gradient"):
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
    """The textbook whole-array formula, over (lr, grad) steps."""
    p, m, v = init.copy(), np.zeros(init.shape), np.zeros(init.shape)
    for t, (lr, g) in enumerate(steps, start=1):
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * (g * g)
        p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p


def _short_order_adam(init, steps, b1=0.9, b2=0.999, eps=1e-8):
    """The whole-array form of the order Adam.step runs (Kingma & Ba, Sec. 2):
    bias corrections folded into alpha_t and eps_t, moments stored divided
    by (1 - b1) and (1 - b2).  Returns the parameter and both moments."""
    p, m, v = init.copy(), np.zeros(init.shape), np.zeros(init.shape)
    for t, (lr, g) in enumerate(steps, start=1):
        c2 = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
        alpha = lr * (1.0 - b1) / (1.0 - b1 ** t) * c2
        m = m * b1 + g
        v = v * b2 + g * g
        p = p - m / (np.sqrt(v) + eps * c2) * alpha
    return p, m, v


def _grad_layouts(rng, shape):
    """Gradients for `shape`: contiguous, transposed view, read-only broadcast view."""
    transposed = rng.normal(size=shape[::-1]).T
    broadcast = np.broadcast_to(rng.normal(size=shape[-1:]), shape)
    assert not broadcast.flags.writeable
    return [rng.normal(size=shape), transposed, broadcast]


def _adam_run(init, steps):
    """Adam.step over (lr, grad) steps from `init`: the parameter and the optimizer."""
    p = Tensor(init.copy(order="K"), requires_grad=True, name="p")   # keeps the layout
    opt = Adam({"p": p})
    for lr, g in steps:
        p.grad = g
        opt.step(lr)
    return p.data, opt


def _initial(rng, shape, layout):
    init = rng.normal(size=shape)
    if layout == "transposed":
        init = np.ascontiguousarray(init.T).T
        assert not init.flags.c_contiguous
    return init


_SHAPES = [
    ((2 * optim._ADAM_BLOCK + 7,), "contiguous"),
    ((3, optim._ADAM_BLOCK // 2 + 5), "contiguous"),
    ((3, optim._ADAM_BLOCK // 2 + 5), "transposed"),
    ((1,), "contiguous"),
    ((), "contiguous"),
    ((5, 3), "transposed"),
]


@pytest.mark.parametrize("shape, layout", _SHAPES + [
    ((0, 3), "contiguous"),
    ((3, 0), "contiguous"),
])
def test_adam_matches_the_textbook_formula_over_50_steps(shape, layout):
    # The short order only rounds differently (ROADMAP aim 3: 1e-12 relative).
    rng = np.random.default_rng(5)
    init = _initial(rng, shape, layout)
    grads = [g for _ in range(17) for g in _grad_layouts(rng, shape)]
    lrs = 1e-2 * 0.95 ** np.arange(len(grads))
    steps = list(zip(lrs, grads))
    got, _ = _adam_run(init, steps)
    assert got.shape == shape
    np.testing.assert_allclose(got, _plain_adam(init, steps), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shape, layout", _SHAPES)
def test_adam_blocked_update_is_bitwise_the_plain_formula(shape, layout):
    rng = np.random.default_rng(11)
    init = _initial(rng, shape, layout)
    steps = list(zip((0.01, 0.003, 0.02), _grad_layouts(rng, shape)))
    want, _, _ = _short_order_adam(init, steps)
    got, _ = _adam_run(init, steps)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)


def _row_skip_steps(rng, n, width=5):
    """(lr, grad) steps on a (6, width) parameter: rows 1 and 4 are zero at
    every step, row 2 is zero for the first 3 steps."""
    steps = []
    for t in range(n):
        g = rng.normal(size=(6, width))
        g[[1, 4]] = 0.0
        if t < 3:
            g[2] = 0.0
        steps.append((0.01 * 0.9 ** t, g))
    return steps


@pytest.mark.parametrize("width", [5, optim._MIN_GAP], ids=["gaps updated", "gaps skipped"])
def test_adam_skips_rows_no_step_has_touched(width):
    rng = np.random.default_rng(13)
    init = rng.normal(size=(6, width))
    steps = _row_skip_steps(rng, 8, width)
    got, opt = _adam_run(init, steps)
    want, want_m, want_v = _short_order_adam(init, steps)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[[1, 4]], init[[1, 4]])
    for state, ref in ((opt._m["p"], want_m), (opt._v["p"], want_v)):
        state = state.reshape(6, width)
        np.testing.assert_array_equal(state, ref)
        assert not state[[1, 4]].any()
    assert opt._live["p"].tolist() == [True, False, True, True, False, True]
    runs = [(0, 6)] if width < optim._MIN_GAP else [(0, 1), (2, 4), (5, 6)]
    assert opt._runs["p"] == [(lo * width, hi * width) for lo, hi in runs]


@pytest.mark.parametrize("width", [5, optim._MIN_GAP], ids=["gaps updated", "gaps skipped"])
def test_adam_nan_in_a_never_live_row_propagates_as_the_formula_does(width):
    rng = np.random.default_rng(17)
    init = rng.normal(size=(6, width))
    steps = _row_skip_steps(rng, 6, width)
    steps[4][1][1, 3] = np.nan
    got, _ = _adam_run(init, steps)
    want, _, _ = _short_order_adam(init, steps)
    np.testing.assert_array_equal(got, want)        # NaN positions equal too
    assert np.isnan(got[1, 3]) and np.isnan(got).sum() == 1
    np.testing.assert_array_equal(got[4], init[4])


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
