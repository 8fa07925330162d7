"""Finite-difference checker: verifies correct gradients pass and broken
gradients are caught."""

import numpy as np
import pytest

from graphlift.errors import DomainError, NumericError
from graphlift.gradcheck import grad_check
from graphlift.tensor import Tensor, _record, matmul, mse, relu


def test_linear_layer_tight_tolerance():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(6, 4)), requires_grad=True, name="w")
    x = Tensor(rng.normal(size=(5, 6)))
    t = rng.normal(size=(5, 4))
    report = grad_check(lambda: mse(matmul(x, w), t), {"w": w}, eps=1e-5,
                        rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-6
    assert report.num_checked == 24


def test_relu_network_passes():
    rng = np.random.default_rng(4)
    w1 = Tensor(rng.normal(size=(5, 8)), requires_grad=True, name="w1")
    w2 = Tensor(rng.normal(size=(8, 2)), requires_grad=True, name="w2")
    x = Tensor(rng.normal(size=(7, 5)))
    t = rng.normal(size=(7, 2))
    report = grad_check(lambda: mse(matmul(relu(matmul(x, w1)), w2), t),
                        {"w1": w1, "w2": w2}, eps=1e-5, rng=np.random.default_rng(0))
    assert report.ok(1e-4)


def test_broken_gradient_is_caught():
    w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True, name="w")

    def wrong_grad():
        # The gradient should be 2 * w.
        return _record(np.asarray((w.data ** 2).sum()), (w, lambda g: g * 3.0 * w.data))

    report = grad_check(wrong_grad, {"w": w}, eps=1e-5, rng=np.random.default_rng(0))
    assert report.max_rel_err > 0.1
    assert report.worst_param == "w"
    assert not report.ok()


def test_non_contiguous_parameter_is_perturbed_in_place():
    # A transposed array is not C-contiguous: reshape(-1) would be a copy.
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(3, 4)).T, requires_grad=True, name="w")
    assert not w.data.flags.c_contiguous
    before = w.data.copy()
    report = grad_check(lambda: (w * w).sum(), {"w": w}, rng=np.random.default_rng(0))
    assert report.num_checked == 12
    assert report.max_rel_err < 1e-6
    np.testing.assert_array_equal(w.data, before)


def test_coordinate_sampling_bound():
    w = Tensor(np.zeros((10, 10)), requires_grad=True, name="w")
    report = grad_check(lambda: (w * w).sum(), {"w": w}, num_coords=17,
                        rng=np.random.default_rng(0))
    assert report.num_checked == 17


def test_worst_index_is_reported():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, name="w")
    report = grad_check(lambda: (w * w).sum(), {"w": w}, rng=np.random.default_rng(0))
    assert report.num_checked == 3 and report.worst_param == "w"
    assert report.worst_index in {(0,), (1,), (2,)}


def test_non_finite_function_raises():
    w = Tensor(np.array([0.0]), requires_grad=True, name="w")

    def nan_fn():
        return _record(np.asarray(np.nan), (w, lambda g: None))

    with pytest.raises(NumericError):
        grad_check(nan_fn, {"w": w}, rng=np.random.default_rng(0))


def test_parameter_validation():
    w = Tensor(np.array([1.0]), requires_grad=True, name="w")
    with pytest.raises(DomainError):
        grad_check(lambda: (w * w).sum(), {}, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        grad_check(lambda: (w * w).sum(), {"w": w}, eps=0.0, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        grad_check(lambda: (w * w).sum(), {"w": w}, num_coords=0,
                   rng=np.random.default_rng(0))


def test_deterministic_under_rng():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    w = Tensor(np.arange(1.0, 201.0).reshape(10, 20), requires_grad=True, name="w")
    fn = lambda: (w * w).sum()
    with pytest.raises(TypeError):          # rng is a required keyword
        grad_check(fn, {"w": w}, 1e-5, 50, rng_a)
    ra = grad_check(fn, {"w": w}, num_coords=50, rng=rng_a)
    rb = grad_check(fn, {"w": w}, num_coords=50, rng=rng_b)
    assert ra.max_rel_err == rb.max_rel_err
    assert ra.worst_index == rb.worst_index
