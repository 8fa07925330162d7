"""Optimizer updates and the step-decay schedule."""

import numpy as np
import pytest

from graphlift.errors import DomainError, UsageError
from graphlift.optim import SGD, Adam, SgdSchedule
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


def test_adam_validates_betas():
    p = Tensor([0.0], requires_grad=True, name="p")
    with pytest.raises(DomainError):
        Adam({"p": p}, beta1=1.0)
