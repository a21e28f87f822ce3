import numpy as np
import pytest

from hesskit import autodiff as ad
from hesskit.errors import ContractViolation
from hesskit.functions import (
    FUNCTION_NAMES,
    QuadraticForm,
    RotatedSeparable,
    SeparablePolynomial,
    as_batch,
    get_function,
)


def test_registry_names_resolve():
    for name in FUNCTION_NAMES:
        fn = get_function(name)
        out = fn(np.zeros(fn.input_dim))
        assert out.shape == (1, fn.output_dim)


def test_unknown_name_rejected():
    with pytest.raises(ContractViolation, match="unknown function"):
        get_function("cubic")


def test_quadratic_form_value_and_hessian():
    h = np.array([[2.0, 1.0], [1.0, 4.0]])
    fn = QuadraticForm(h)
    z = np.array([0.5, -1.0])
    assert fn(z).values[0, 0] == pytest.approx(0.5 * z @ h @ z)
    assert np.array_equal(fn.hessians(z)[0], h)


def test_z1z2_is_the_exchange_quadratic():
    fn = get_function("z1z2")
    z = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.allclose(fn(z).values[:, 0], z[:, 0] * z[:, 1])


def test_separable_polynomial_matches_direct_evaluation():
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, 4))
    fn = SeparablePolynomial(a, b, c)
    z = rng.normal(size=(5, 4))
    direct = np.sum(a * z**3 + b * z**2 + c * z, axis=1)
    assert np.allclose(fn(z).values[:, 0], direct)
    hess = fn.hessians(z[0])[0]
    assert np.array_equal(hess, np.diag(np.diag(hess)))


def test_scaled_cubic_scales_linearly():
    z = np.array([0.7, -0.3])
    one = get_function("beta-cubic", beta=1.0)(z).values
    ten = get_function("beta-cubic", beta=10.0)(z).values
    assert np.allclose(ten, 10.0 * one)


def test_rotated_separable_rotation_is_orthogonal():
    fn = RotatedSeparable(dim=5, seed=4)
    r = fn.rotation
    assert np.allclose(r.T @ r, np.eye(5), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)
    z = np.random.default_rng(1).normal(size=5)
    assert np.allclose(fn(z).values[0], (z @ r) ** 3)


def test_rotated_separable_seed_controls_rotation():
    a = RotatedSeparable(dim=4, seed=1).rotation
    b = RotatedSeparable(dim=4, seed=1).rotation
    c = RotatedSeparable(dim=4, seed=2).rotation
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_as_batch_validates_dimensions():
    assert as_batch(np.zeros(3), 3).shape == (1, 3)
    assert as_batch(np.zeros((4, 3)), 3).shape == (4, 3)
    with pytest.raises(ContractViolation):
        as_batch(np.zeros(2), 3)
    with pytest.raises(ContractViolation):
        as_batch(np.zeros((1, 2, 3)), 3)


def test_functions_evaluate_on_tape():
    fn = get_function("rotated-separable", dim=3, seed=0)
    w = ad.Parameter("w", np.eye(3))

    def loss_fn():
        return fn(ad.matmul(ad.Tensor(np.ones((1, 3))), w)).sum()

    report = ad.gradient_check(loss_fn, [w], step=1e-5, tolerance=1e-5)
    assert report.passed
