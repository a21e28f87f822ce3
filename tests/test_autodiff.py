import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import autodiff as ad
from hesskit.errors import ContractViolation, NumericError


def test_matmul_identity_column_selection():
    out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [0.0]]))
    assert np.array_equal(out.values, [[1.0], [3.0]])


def test_feature_normalize_hand_value():
    out = ad.feature_normalize(ad.Tensor([3.0, 4.0]))
    # mean(x^2) = 12.5, sqrt(12.5 + 1e-8) ~ 3.5355
    assert np.allclose(out.values, [0.8485, 1.1314], atol=1e-4)


def test_variance_of_constant_is_zero():
    assert ad._reduce_var(ad.Tensor([1.0, 1.0, 1.0, 1.0]), None, 1).item() == 0.0


def test_backward_sum_of_matvec():
    w = ad.Parameter("w", np.eye(2))
    loss = ad.matmul(w, ad.Tensor([[1.0], [2.0]])).sum()
    ad.backward(loss)
    assert np.array_equal(w.grad, [[1.0, 2.0], [1.0, 2.0]])


def test_backward_constant_loss_gives_zero_gradient():
    p = ad.Parameter("p", [5.0])
    loss = ad.Tensor(3.0, requires_grad=False) * 1.0
    ad.backward(ad.Tensor(0.0))
    assert np.array_equal(p.grad, [0.0])
    assert not loss.requires_grad


def test_backward_mean_square_scalar():
    p = ad.Parameter("p", 3.0)
    ad.backward(ad.square(p).mean())
    assert p.grad == pytest.approx(6.0)


def test_backward_rejects_nonscalar_loss():
    p = ad.Parameter("p", [1.0, 2.0])
    with pytest.raises(ContractViolation):
        ad.backward(ad.square(p))


def test_backward_accumulates_until_reset():
    p = ad.Parameter("p", 2.0)
    ad.backward(ad.square(p).sum())
    ad.backward(ad.square(p).sum())
    assert p.grad == pytest.approx(8.0)
    p.zero_grad()
    assert p.grad == pytest.approx(0.0)


def test_shape_mismatch_is_contract_violation():
    with pytest.raises(ContractViolation):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    with pytest.raises(ContractViolation):
        ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4,))))


@pytest.mark.parametrize("shape_a, shape_b", [((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))])
def test_matmul_rejects_a_1d_operand(shape_a, shape_b):
    with pytest.raises(ContractViolation, match="2-D"):
        ad.matmul(ad.Tensor(np.ones(shape_a)), ad.Tensor(np.ones(shape_b)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_result_names_the_op():
    huge = ad.Tensor(np.full(3, 1e200))
    with pytest.raises(NumericError, match="square"):
        ad.square(huge)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_feature_normalize_refuses_a_mean_square_that_overflows():
    # dividing by the infinite root of 1e400 / 3 would silently zero the row
    x = ad.Tensor([[1e200, 1.0, -3.0]], requires_grad=True)
    with pytest.raises(NumericError, match="feature_normalize"):
        ad.feature_normalize(x)
    with ad.no_grad(), pytest.raises(NumericError, match="feature_normalize"):
        ad.feature_normalize(x)


def test_repeated_forward_records_identical_ops_and_values():
    rng = np.random.default_rng(0)
    w = ad.Parameter("w", rng.normal(size=(4, 3)))
    x = ad.Tensor(rng.normal(size=(5, 4)))

    def forward():
        return ad._reduce_max(ad._reduce_var(ad.feature_normalize(ad.tanh(ad.matmul(x, w))), 0, 1),
                              None)

    first, second = ad.record(forward()), ad.record(forward())
    assert [node.op for node in first] == [node.op for node in second]
    assert len(first) == 7  # x, w, matmul, tanh, feature_normalize, var, max
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)


def test_replay_determinism_across_evaluations():
    rng = np.random.default_rng(1)
    w = ad.Parameter("w", rng.normal(size=(3, 3)))
    x = rng.normal(size=(2, 3))

    def forward():
        return ad.softplus(ad.matmul(ad.Tensor(x), w)).sum()

    assert forward().item() == forward().item()


def test_no_grad_suppresses_recording():
    p = ad.Parameter("p", [1.0, 2.0])
    with ad.no_grad():
        out = ad.square(p).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_is_thread_local():
    import threading

    p = ad.Parameter("p", [1.0, 2.0])
    tracked_elsewhere = []

    def other_thread():
        tracked_elsewhere.append(ad.square(p).requires_grad)

    with ad.no_grad():
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert not ad.square(p).requires_grad
    assert tracked_elsewhere == [True]


_PRIMITIVES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: ad.mul(a, b),
    "matmul": lambda a, b: ad.matmul(a, b),
    "scale": lambda a, b: a * 1.7,
    "tanh": lambda a, b: ad.tanh(a),
    "leaky_relu": lambda a, b: ad.leaky_relu(a),
    "softplus": lambda a, b: ad.softplus(a),
    "square": lambda a, b: ad.square(a),
    "feature_normalize": lambda a, b: ad.feature_normalize(a),
    "sum_axis": lambda a, b: a.sum(axis=0),
    "mean_axis": lambda a, b: a.mean(axis=1),
    "var_axis": lambda a, b: ad._reduce_var(a, 0, 1),
    "max_axis": lambda a, b: ad._reduce_max(a, 1),
    "stack": lambda a, b: ad.stack([a, b], axis=0),
    "reshape": lambda a, b: a.reshape((12,)),
    "transpose": lambda a, b: ad.transpose(a),
    # (2, k, b, m) stencil rows: k=3 probes, one row, 2 components; k=2, 3 components
    "probe_variance_max": lambda a, b: ad.probe_variance(ad.reshape(a, (2, 3, 1, 2)), 1.7, "max",
                                                         np.empty((1, 2))),
    "probe_variance_mean": lambda a, b: ad.probe_variance(ad.reshape(a, (2, 2, 1, 3)), 1.7,
                                                          "mean", np.empty((1, 3))),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_primitive_gradient_matches_central_differences(name):
    rng = np.random.default_rng(hash(name) % (2**32))
    a = ad.Parameter("a", rng.normal(size=(3, 4)))
    b = ad.Parameter("b", rng.normal(size=(4, 2)) if name == "matmul" else rng.normal(size=(3, 4)))
    weights = None

    def loss_fn():
        nonlocal weights
        out = _PRIMITIVES[name](a, b)
        if weights is None:
            weights = np.random.default_rng(7).normal(size=out.shape)
        return ad.mul(out, ad.Tensor(weights)).sum()

    report = ad.gradient_check(loss_fn, [a, b], step=1e-5, tolerance=1e-6)
    assert report.passed, f"{name}: max rel error {report.max_rel_error:.3e}"


# (op, shape of a, shape of b): broadcasting and the 2-D matmul
_BINARY = {
    "add": (ad.add, (3, 4), (4,)),
    "sub": (ad.sub, (3, 4), (1, 4)),
    "mul": (ad.mul, (3, 4), (3, 4)),
    "matmul": (ad.matmul, (3, 4), (4, 2)),
}


@pytest.mark.parametrize("frozen", [0, 1])
@pytest.mark.parametrize("name", sorted(_BINARY))
def test_vjp_computes_nothing_for_a_frozen_operand(name, frozen):
    op, shape_a, shape_b = _BINARY[name]

    def run(freeze):
        rng = np.random.default_rng(5)
        params = [ad.Parameter("a", rng.normal(size=shape_a)),
                  ad.Parameter("b", rng.normal(size=shape_b))]
        params[frozen].requires_grad = not freeze
        out = op(*params)
        weights = rng.normal(size=out.shape)
        ad.backward(ad.mul(out, ad.Tensor(weights)).sum())
        return params, out._vjp(weights)

    reference, _ = run(freeze=False)
    params, parts = run(freeze=True)
    assert parts[frozen] is None
    assert np.array_equal(params[frozen].grad, np.zeros(params[frozen].shape))
    trained = 1 - frozen
    assert np.array_equal(params[trained].grad, reference[trained].grad)


def test_backward_linearity():
    rng = np.random.default_rng(3)
    p = ad.Parameter("p", rng.normal(size=(4, 4)))
    x = rng.normal(size=(2, 4))

    def l1():
        return ad.tanh(ad.matmul(ad.Tensor(x), p)).sum()

    def l2():
        return ad.square(ad.matmul(ad.Tensor(x), p)).mean()

    a_coef, b_coef = 1.3, -0.7
    p.zero_grad()
    ad.backward(l1())
    g1 = p.grad.copy()
    p.zero_grad()
    ad.backward(l2())
    g2 = p.grad.copy()
    p.zero_grad()
    ad.backward(l1() * a_coef + l2() * b_coef)
    combined = p.grad.copy()
    assert np.max(np.abs(combined - (a_coef * g1 + b_coef * g2))) <= 1e-12


def test_gradient_check_quadratic_tight():
    p = ad.Parameter("p", np.array([0.5, -1.5, 2.0]))

    def loss_fn():
        return ad.square(p).sum()

    report = ad.gradient_check(loss_fn, [p], step=1e-5, tolerance=1e-7)
    assert report.passed


def test_gradient_check_tanh_network():
    rng = np.random.default_rng(11)
    w1 = ad.Parameter("w1", rng.normal(size=(3, 8)))
    w2 = ad.Parameter("w2", rng.normal(size=(8, 1)))
    x = rng.normal(size=(4, 3))

    def loss_fn():
        return ad.matmul(ad.tanh(ad.matmul(ad.Tensor(x), w1)), w2).mean()

    report = ad.gradient_check(loss_fn, [w1, w2], step=1e-5, tolerance=1e-4)
    assert report.passed


def test_gradient_check_zero_parameters_passes_empty():
    report = ad.gradient_check(lambda: ad.Tensor(1.0), [], step=1e-5, tolerance=1e-6)
    assert report.passed
    assert report.per_parameter == {}
    assert report.max_rel_error == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_feature_normalize_output_has_unit_rms(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 6)) * 10.0
    out = ad.feature_normalize(ad.Tensor(x)).values
    rms = np.sqrt(np.mean(out * out, axis=-1))
    assert np.allclose(rms, 1.0, atol=1e-3)
