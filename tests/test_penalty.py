import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import autodiff as ad
from hesskit import penalty
from hesskit.errors import ContractViolation, NumericError
from hesskit.functions import QuadraticForm, SeparablePolynomial, get_function
from hesskit.metrics import PPLConfig, ppl
from hesskit.nets import Generator
from hesskit.penalty import (
    REDUCTIONS,
    PenaltyConfig,
    evaluate_with_taps,
    exact_offdiag_penalty,
    hessian_penalty_estimate,
    sample_rademacher,
    second_directional_fd,
)


def all_sign_vectors(n):
    return [np.array(v, dtype=np.float64) for v in itertools.product((-1.0, 1.0), repeat=n)]


def sequential_reference(fn, z, probes, epsilon, names, reduction):
    """The estimator in plain numpy: 2k+1 separate forwards, centre pass included.

    Returns the penalty value, the per-tap (B, m) variances and the mean
    squared second difference, which sets the scale of rounding error.
    """
    def taps_at(x):
        with ad.no_grad():
            out, taps = evaluate_with_taps(fn, ad.Tensor(x))
        return {name: (out if name == "output" else taps[name]).values for name in names}

    centre = taps_at(z)
    diffs = {name: [] for name in names}
    for v in probes:
        plus, minus = taps_at(z + epsilon * v), taps_at(z - epsilon * v)
        for name in names:
            diffs[name].append((plus[name] + minus[name] - 2.0 * centre[name]) / epsilon**2)
    variances, reduced, scale = {}, [], 0.0
    for name in names:
        d = np.stack(diffs[name])
        variances[name] = np.var(d, axis=0, ddof=1)
        per_row = variances[name].max(axis=-1) if reduction == "max" else variances[name].mean(axis=-1)
        reduced.append(per_row.mean())
        scale = max(scale, float(np.mean(d * d)))
    return float(np.mean(reduced)), variances, scale


def counting(fn, calls):
    """Wrap ``fn`` so every call appends the shape of its input to ``calls``."""
    def wrapped(z):
        calls.append(z.shape)
        return fn(z)
    return wrapped


def enumerate_estimator_mean(fn, z, config):
    """Average the k=2 estimator over every ordered probe pair (the exact expectation)."""
    values = []
    for v1 in all_sign_vectors(len(z)):
        for v2 in all_sign_vectors(len(z)):
            pv = hessian_penalty_estimate(fn, z, config, probes=np.stack([v1, v2]))
            values.append(pv.value)
    return float(np.mean(values))


class TestConfig:
    def test_rejects_k_below_two(self):
        with pytest.raises(ContractViolation):
            PenaltyConfig(k=1)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ContractViolation):
            PenaltyConfig(epsilon=0.0)

    def test_rejects_unknown_reduction(self):
        with pytest.raises(ContractViolation):
            PenaltyConfig(reduction="median")

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, float("inf"), float("nan")])
    def test_rejects_epsilon_without_finite_inverse_square(self, eps):
        # 1e-300 squares to zero and 1e-160 to a subnormal whose reciprocal overflows
        with pytest.raises(ContractViolation, match="epsilon"):
            PenaltyConfig(epsilon=eps)

    def test_accepts_smallest_scalable_epsilon(self):
        assert PenaltyConfig(epsilon=1e-154).epsilon == 1e-154

    def test_empty_taps_mean_the_output(self):
        assert PenaltyConfig().taps == ("output",)
        assert PenaltyConfig(taps=[]).taps == ("output",)


class TestRademacher:
    def test_entries_are_signs(self):
        batch = sample_rademacher(3, 2, seed=0)
        assert batch.shape == (2, 3)
        assert np.all(np.abs(batch) == 1.0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(sample_rademacher(5, 4, seed=9), sample_rademacher(5, 4, seed=9))

    def test_coordinate_means_concentrate(self):
        n = 10**5
        batch = sample_rademacher(4, n, seed=3)
        assert np.all(np.abs(batch.mean(axis=0)) <= 3.0 / np.sqrt(n))

    def test_rejects_k_below_two(self):
        with pytest.raises(ContractViolation):
            sample_rademacher(3, 1)


class TestSecondDirectionalFD:
    def test_quadratic_cross_term(self):
        fd = second_directional_fd(get_function("z1z2"), np.zeros(2), np.ones(2), 0.1)
        assert fd.values[0] == pytest.approx(2.0, abs=1e-9)

    def test_linear_function_is_flat(self):
        lin = SeparablePolynomial(np.zeros(3), linear=np.array([2.0, -1.0, 0.5]))
        fd = second_directional_fd(lin, np.array([0.3, -0.7, 1.1]), np.array([1.0, -1.0, 1.0]), 0.1)
        assert abs(fd.values[0]) <= 1e-12

    def test_pure_square_along_axis(self):
        sq = QuadraticForm([[2.0, 0.0], [0.0, 0.0]])  # G = z1^2
        for eps in (0.1, 0.01, 1.0):
            fd = second_directional_fd(sq, np.array([0.4, -0.2]), np.array([1.0, 0.0]), eps)
            assert fd.values[0] == pytest.approx(2.0, abs=1e-9)

    def test_tiny_epsilon_is_a_contract_violation(self):
        with pytest.raises(ContractViolation, match="epsilon"):
            second_directional_fd(get_function("z1z2"), np.zeros(2), np.ones(2), 1e-300)

    def test_one_call_with_centre_rows(self):
        calls = []
        fd = second_directional_fd(counting(get_function("z1z2"), calls), np.zeros((3, 2)),
                                   np.ones(2), 0.1)
        assert calls == [(9, 2)]
        assert np.allclose(fd.values, 2.0, atol=1e-9)

    def test_probe_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            second_directional_fd(get_function("z1z2"), np.zeros(2), np.ones(3), 0.1)
        with pytest.raises(ContractViolation, match="probe rows"):
            second_directional_fd(get_function("z1z2"), np.zeros((2, 2)), np.ones((3, 2)), 0.1)

    def test_tap_selection_returns_per_tap_differences(self):
        class Tapped:
            def __call__(self, z):
                out = get_function("z1z2")(z)
                return out, {"half": out * 0.5}

        fd = second_directional_fd(Tapped(), np.zeros(2), np.ones(2), 0.1,
                                   taps=("half", "output"))
        assert fd["output"].values[0] == pytest.approx(2.0, abs=1e-9)
        assert fd["half"].values[0] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ContractViolation, match="tap"):
            second_directional_fd(Tapped(), np.zeros(2), np.ones(2), 0.1, taps=("norm9",))

    def test_differentiable_through_parameters(self):
        w = ad.Parameter("w", np.array([[0.5, -0.2], [0.1, 0.8]]))

        def fn(z):
            return ad.square(ad.matmul(z, w)).sum(axis=1).reshape((z.shape[0], 1))

        def loss_fn():
            return second_directional_fd(fn, np.array([0.3, 0.7]), np.ones(2), 0.1).sum()

        report = ad.gradient_check(loss_fn, [w], step=1e-5, tolerance=1e-6)
        assert report.passed


class TestExactOffdiag:
    def test_identity_is_zero(self):
        assert exact_offdiag_penalty(np.eye(3)) == 0.0

    def test_exchange_matrix(self):
        assert exact_offdiag_penalty([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(2.0)

    def test_asymmetric_entries(self):
        assert exact_offdiag_penalty([[2.0, 3.0], [-1.0, 5.0]]) == pytest.approx(10.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_overflowing_squares_raise(self):
        with pytest.raises(NumericError, match="off-diagonal penalty"):
            exact_offdiag_penalty(np.full((2, 2), 1e200))  # inf - inf at the parent: NaN

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolation):
            exact_offdiag_penalty(np.ones((2, 3)))
        with pytest.raises(ContractViolation):
            exact_offdiag_penalty(np.ones((1, 2, 2, 2)))

    def test_stack_equals_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 17):
            mats = rng.normal(size=(5, n, n))
            assert exact_offdiag_penalty(mats).tolist() == [exact_offdiag_penalty(m) for m in mats]


class TestEstimator:
    def test_probe_enumeration_recovers_population_value(self):
        cfg = PenaltyConfig(epsilon=0.1, k=2, reduction="max")
        mean = enumerate_estimator_mean(get_function("z1z2"), np.zeros(2), cfg)
        assert mean == pytest.approx(4.0, abs=1e-9)

    def test_vector_output_max_reduction_with_dead_component(self):
        # G(z) = (z1*z2, 0): second component contributes nothing under max
        class TwoOut:
            def __call__(self, z):
                q = get_function("z1z2")(z)
                return ad.stack([q, q * 0.0], axis=1).reshape((q.shape[0], 2))

        cfg = PenaltyConfig(epsilon=0.1, k=2, reduction="max")
        mean = enumerate_estimator_mean(TwoOut(), np.zeros(2), cfg)
        assert mean == pytest.approx(4.0, abs=1e-9)

    def test_separable_cubics_are_invisible(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            dim = int(rng.integers(2, 6))
            fn = SeparablePolynomial(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim),
                                     rng.uniform(-1, 1, dim))
            z = rng.normal(size=dim)
            pv = hessian_penalty_estimate(fn, z, PenaltyConfig(seed=trial))
            assert pv.value <= 1e-8

    def test_scale_covariance(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(4, 4))
        h = raw + raw.T
        probes = sample_rademacher(4, 2, seed=1)
        z = rng.normal(size=4)
        cfg = PenaltyConfig(epsilon=0.1, k=2)
        base = hessian_penalty_estimate(QuadraticForm(h), z, cfg, probes=probes).value
        for c in (2.0, -3.0, 10.0):
            scaled = hessian_penalty_estimate(QuadraticForm(c * h), z, cfg, probes=probes).value
            assert scaled == pytest.approx(c * c * base, rel=1e-10)

    def test_diagonal_blindness(self):
        # adding a separable cubic to a quadratic leaves the penalty unchanged
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(3, 3))
        h = raw + raw.T
        quad = QuadraticForm(h)
        sep = SeparablePolynomial(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
                                  rng.uniform(-1, 1, 3))

        class Summed:
            def __call__(self, z):
                return quad(z) + sep(z)

        z = rng.normal(size=3)
        probes = sample_rademacher(3, 2, seed=5)
        cfg = PenaltyConfig(epsilon=0.1, k=2)
        a = hessian_penalty_estimate(quad, z, cfg, probes=probes).value
        b = hessian_penalty_estimate(Summed(), z, cfg, probes=probes).value
        assert abs(a - b) <= 1e-8

    def test_offdiag_estimate_is_half_the_variance(self):
        pv = hessian_penalty_estimate(get_function("z1z2"), np.zeros(2), PenaltyConfig(seed=2))
        assert pv.offdiag_estimate == pytest.approx(0.5 * pv.value)

    def test_batched_rows_are_independent_trials(self):
        fn = get_function("z1z2")
        z = np.zeros((64, 2))
        pv = hessian_penalty_estimate(fn, z, PenaltyConfig(seed=0))
        assert pv.per_sample.shape == (64,)
        assert pv.value == pytest.approx(float(pv.per_sample.mean()))

    def test_rejects_misshaped_probes(self):
        for probes in (np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 4, 2))):
            with pytest.raises(ContractViolation, match="probes must have shape"):
                hessian_penalty_estimate(get_function("z1z2"), np.zeros((1, 2)),
                                         PenaltyConfig(k=2), probes=probes)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0,)])
    def test_empty_batch_is_rejected(self, shape):
        with pytest.raises(ContractViolation, match="non-empty"):
            hessian_penalty_estimate(get_function("z1z2"), np.zeros(shape), PenaltyConfig())

    def test_unknown_tap_is_rejected(self):
        with pytest.raises(ContractViolation, match="tap"):
            hessian_penalty_estimate(get_function("z1z2"), np.zeros(2),
                                     PenaltyConfig(taps=("norm1",)))

    def test_mean_across_taps(self):
        class Tapped:
            def __call__(self, z):
                out = get_function("z1z2")(z)
                return out, {"a": out, "b": out * 0.0}

        z = np.zeros(2)
        probes = sample_rademacher(2, 2, seed=6)
        both = hessian_penalty_estimate(Tapped(), z, PenaltyConfig(taps=("a", "b")),
                                        probes=probes)
        only_a = hessian_penalty_estimate(Tapped(), z, PenaltyConfig(taps=("a",)),
                                          probes=probes)
        assert both.value == pytest.approx(0.5 * only_a.value)
        assert set(both.per_component) == {"a", "b"}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
    def test_nonnegative_for_random_quadratics(self, seed, dim):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(dim, dim))
        fn = QuadraticForm(raw + raw.T)
        pv = hessian_penalty_estimate(fn, rng.normal(size=dim), PenaltyConfig(seed=seed))
        assert pv.value >= -1e-12

    def test_beta_cubic_counterexample(self):
        # zero off-diagonal penalty at every scale, strictly growing path length
        rng = np.random.default_rng(3)
        penalties, lengths = [], []
        for beta in (1.0, 10.0, 100.0):
            fn = get_function("beta-cubic", beta=beta)
            z = rng.normal(size=2)
            penalties.append(hessian_penalty_estimate(fn, z, PenaltyConfig(seed=1)).value)
            lengths.append(ppl(fn, 2, PPLConfig(samples=10000), seed=0).value)
        assert all(p <= 1e-8 for p in penalties)
        assert lengths[0] < lengths[1] < lengths[2]


class TestFusedKernel:
    @pytest.mark.parametrize("k,rows", [(2, 1), (2, 16), (5, 3)])
    def test_fn_called_once_with_2kb_rows(self, k, rows):
        calls = []
        fn = counting(get_function("z1z2"), calls)
        hessian_penalty_estimate(fn, np.zeros((rows, 2)), PenaltyConfig(k=k, seed=0))
        assert calls == [(2 * k * rows, 2)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           k=st.integers(min_value=2, max_value=8),
           rows=st.sampled_from([1, 3, 16]),
           reduction=st.sampled_from(REDUCTIONS),
           use_generator=st.booleans())
    def test_matches_sequential_reference_with_centre_pass(self, seed, k, rows, reduction,
                                                           use_generator):
        rng = np.random.default_rng(seed)
        if use_generator:
            dim = 4
            fn = Generator(latent_dim=dim, output_dim=5, hidden_width=8, hidden_layers=3,
                           seed=seed)
            taps = ("norm1", "norm2", "output")
        else:
            dim = int(rng.integers(2, 6))
            raw = rng.normal(size=(dim, dim))
            fn = QuadraticForm(raw + raw.T)
            taps = ()
        z = rng.normal(size=(rows, dim))
        probes = rng.integers(0, 2, size=(k, rows, dim)) * 2.0 - 1.0
        config = PenaltyConfig(epsilon=0.1, k=k, reduction=reduction, taps=taps)
        pv = hessian_penalty_estimate(fn, z, config, probes=probes)
        want, variances, scale = sequential_reference(fn, z, probes, 0.1, taps or ("output",),
                                                      reduction)
        # relative to the squared second differences, so a value that is zero in
        # exact arithmetic compares by the size of its rounding error
        tol = 1e-10 * max(abs(want), scale)
        assert abs(pv.value - want) <= tol
        for name, var in variances.items():
            assert np.max(np.abs(pv.per_component[name] - var)) <= tol


def block_latent_rows(monkeypatch, rows, k, width=6):
    """Split every batch into blocks of ``rows`` latent rows after a one-row first block.

    ``width`` is the widest array of a call: the hidden width 6 of ``setup_case``.
    """
    monkeypatch.setattr(penalty, "_WHOLE_ROWS", 0)
    monkeypatch.setattr(penalty, "_BLOCK_VALUES", rows * 2 * k * width)


class TestRowBlocks:
    def setup_case(self, rows=7, k=3):
        rng = np.random.default_rng(12)
        g = Generator(latent_dim=3, output_dim=5, hidden_width=6, hidden_layers=2, seed=8)
        z = rng.normal(size=(rows, 3))
        probes = rng.integers(0, 2, size=(k, rows, 3)) * 2.0 - 1.0
        return g, z, probes

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_blocks_match_one_block_run(self, monkeypatch, reduction):
        g, z, probes = self.setup_case()
        config = PenaltyConfig(k=3, reduction=reduction, taps=("norm1", "output"))
        calls = []
        whole = hessian_penalty_estimate(counting(g, calls), z, config, probes=probes)
        assert calls == [(42, 3)]  # 42 stencil rows <= _WHOLE_ROWS: one call
        block_latent_rows(monkeypatch, 3, k=3)
        calls = []
        blocked = hessian_penalty_estimate(counting(g, calls), z, config, probes=probes)
        assert calls == [(6, 3), (18, 3), (18, 3)]  # 2k rows per latent row, blocks 1+3+3
        assert np.array_equal(blocked.per_sample, whole.per_sample)
        for name in ("norm1", "output"):
            assert np.array_equal(blocked.per_component[name], whole.per_component[name])
        assert abs(blocked.value - whole.value) <= 1e-12 * abs(whole.value)

    def test_row_blocks_sizes_later_blocks_by_the_first_width(self, monkeypatch):
        monkeypatch.setattr(penalty, "_WHOLE_ROWS", 30)
        monkeypatch.setattr(penalty, "_BLOCK_VALUES", 24)
        spans = []

        def run(lo, hi, width=2):
            spans.append((lo, hi))
            return lo, width

        assert list(penalty.row_blocks(10, 3, run)) == [(0, 0)]  # 30 rows: one call
        assert spans == [(0, 10)]
        spans.clear()
        assert [lo for lo, _ in penalty.row_blocks(11, 3, run)] == [0, 1, 5, 9]
        assert spans == [(0, 1), (1, 5), (5, 9), (9, 11)]  # 24 // (2 * 3) = 4 units
        spans.clear()
        list(penalty.row_blocks(11, 3, lambda lo, hi: run(lo, hi, width=100)))
        assert spans == [(0, 1)] + [(i, i + 1) for i in range(1, 11)]  # at least one unit

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_narrow_output_blocks_agree_within_rounding(self, monkeypatch, block_rows):
        # for some narrow widths BLAS rounds a row by the row count of its call,
        # so a split is held to 1e-12 relative where it is not bit for bit
        rng = np.random.default_rng(12)
        g = Generator(latent_dim=3, output_dim=4, hidden_width=6, hidden_layers=2, seed=8)
        z = rng.normal(size=(7, 3))
        probes = rng.integers(0, 2, size=(3, 7, 3)) * 2.0 - 1.0
        config = PenaltyConfig(k=3, taps=("norm1", "output"))
        whole = hessian_penalty_estimate(g, z, config, probes=probes)
        block_latent_rows(monkeypatch, block_rows, k=3)
        blocked = hessian_penalty_estimate(g, z, config, probes=probes)

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        assert close(blocked.per_sample, whole.per_sample)
        for name in ("norm1", "output"):
            assert close(blocked.per_component[name], whole.per_component[name])
        assert close(blocked.value, whole.value)

    def test_wide_output_blocks_fit_the_budget(self):
        g = Generator(latent_dim=3, seed=2)  # 768 outputs, the widest array of a call
        z = np.random.default_rng(3).normal(size=(300, 3))
        calls = []
        with ad.no_grad():
            hessian_penalty_estimate(counting(g, calls), z, PenaltyConfig(k=2))
        first, *rest = [rows for rows, _ in calls]
        assert first == 4  # one latent row: 2k stencil rows
        assert len(rest) > 1 and max(rest) <= penalty._BLOCK_VALUES // 768
        assert first + sum(rest) == 2 * 2 * 300

    def test_probes_are_drawn_for_the_whole_batch(self, monkeypatch):
        g, z, _ = self.setup_case()
        config = PenaltyConfig(k=3, taps=("norm2",))
        whole = hessian_penalty_estimate(g, z, config, rng=np.random.default_rng(5))
        block_latent_rows(monkeypatch, 2, k=3)
        blocked = hessian_penalty_estimate(g, z, config, rng=np.random.default_rng(5))
        assert np.array_equal(blocked.per_sample, whole.per_sample)
        # each block turns its own slice of the drawn bits into the signs it would be given
        signs = np.random.default_rng(5).integers(0, 2, size=(3, len(z), 3)) * 2.0 - 1.0
        injected = hessian_penalty_estimate(g, z, config, probes=signs)
        assert np.array_equal(injected.per_sample, blocked.per_sample)
        assert np.array_equal(injected.per_component["norm2"], blocked.per_component["norm2"])
        assert injected.value == blocked.value

    def test_blocked_call_holds_no_float_copy_of_the_probes(self):
        raw = np.random.default_rng(4).normal(size=(8, 8))
        fn = QuadraticForm((raw + raw.T) / 2.0)
        zeros = np.zeros((200_000, 8))  # a verify-sized call
        tracemalloc.start()
        try:
            hessian_penalty_estimate(fn, zeros, PenaltyConfig(k=2), rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bits = 2 * zeros.size * 8  # the k sign bits per latent entry as int64 (drawn as int32)
        assert peak < 1.5 * bits  # a whole float64 copy of the signs would reach 2 * bits

    def test_gradient_check_through_blocks(self, monkeypatch):
        g, z, probes = self.setup_case(rows=5, k=2)
        block_latent_rows(monkeypatch, 2, k=2)
        config = PenaltyConfig(k=2, reduction="mean", taps=("norm2", "output"))

        def loss_fn():
            return hessian_penalty_estimate(g, z, config, probes=probes).scalar

        # the head bias cancels out of every second difference: its gradient is 0
        # and a finite difference of it is rounding only
        report = ad.gradient_check(loss_fn, g.parameters(), step=1e-5, tolerance=1e-4)
        assert "head.bias" in report.per_parameter
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_gradient_check_catches_a_vjp_one_percent_off(self, monkeypatch):
        g, z, probes = self.setup_case(rows=5, k=2)
        block_latent_rows(monkeypatch, 2, k=2)
        config = PenaltyConfig(k=2, reduction="mean", taps=("norm2", "output"))
        real_tanh = ad.tanh

        def wrong_tanh(a):
            out = real_tanh(a)
            if out._vjp is not None:
                vjp = out._vjp
                out._vjp = lambda grad: tuple(1.01 * x for x in vjp(grad))
            return out

        monkeypatch.setattr(ad, "tanh", wrong_tanh)

        def loss_fn():
            return hessian_penalty_estimate(g, z, config, probes=probes).scalar

        report = ad.gradient_check(loss_fn, g.parameters(), step=1e-5, tolerance=1e-4)
        assert not report.passed
        # the hidden blocks sit below a tanh whose vjp is wrong, the head does not
        assert min(report.per_parameter[f"hidden.{i}.weight"] for i in (0, 1)) > 1e-3
        assert max(report.per_parameter[f"head.{n}"] for n in ("weight", "bias")) <= 1e-4


def repeated_point(n, rows, seed=1):
    return np.repeat(np.random.default_rng(seed).normal(size=(1, n)), rows, axis=0)


def assert_same_value(got, want):
    assert np.array_equal(got.per_sample, want.per_sample)
    assert got.per_component.keys() == want.per_component.keys()
    for name in want.per_component:
        assert np.array_equal(got.per_component[name], want.per_component[name])
    assert got.value == want.value


class TestDistinctProbes:
    """Off the record, a batch that repeats one point evaluates each sign vector once."""

    functions = {
        "generator-norms": (lambda: Generator(6, 768, 64, 3), ("norm1", "norm2"), 6),
        "generator-output": (lambda: Generator(6, 768, 64, 3), ("output",), 6),
        "quadratic": (lambda: QuadraticForm(sum(np.random.default_rng(4).normal(size=(2, 8, 8)))),
                      (), 8),
        "rotated-separable": (lambda: get_function("rotated-separable"), (), 4),
    }

    @pytest.mark.parametrize("case", list(functions))
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("source", ["drawn", "float", "broadcast"])
    def test_matches_the_full_path_bit_for_bit(self, monkeypatch, case, reduction, k, source):
        make, taps, n = self.functions[case]
        fn, rows = make(), 300  # blocked: one latent row first, then blocks that repeat probes
        z = repeated_point(n, rows)
        signs = np.random.default_rng(7).integers(0, 2, size=(k, rows, n)) * 2.0 - 1.0
        kwargs = {"drawn": lambda: {"rng": np.random.default_rng(7)},
                  "float": lambda: {"probes": signs},
                  "broadcast": lambda: {"probes": signs[:, 0]}}[source]
        config = PenaltyConfig(k=k, reduction=reduction, taps=taps)
        stencil_rows = []
        real = penalty._stencil_taps

        def spy(f, zarr, probes, *args, **kw):
            stencil_rows.append(2 * probes.shape[0] * probes.shape[1])
            return real(f, zarr, probes, *args, **kw)

        monkeypatch.setattr(penalty, "_stencil_taps", spy)
        full = hessian_penalty_estimate(fn, z, config, **kwargs())
        full_rows, stencil_rows[:] = sum(stencil_rows), []
        with ad.no_grad():
            distinct = hessian_penalty_estimate(fn, z, config, **kwargs())
        assert sum(stencil_rows) < full_rows
        assert np.array_equal(distinct.per_sample, full.per_sample)
        for name in config.taps:
            assert np.array_equal(distinct.per_component[name], full.per_component[name])
        assert distinct.value == full.value

    @pytest.mark.parametrize("rows", [16, 3000])
    def test_repeated_point_off_the_record_evaluates_each_sign_vector_once(self, rows):
        calls = []
        with ad.no_grad():
            hessian_penalty_estimate(counting(get_function("z1z2"), calls), repeated_point(2, rows),
                                     PenaltyConfig(k=2), rng=np.random.default_rng(3))
        assert calls == [(2 * 2**2, 2)]  # one table of the 4 sign vectors for any batch size

    @pytest.mark.parametrize("case,rows,expected", [
        ("distinct-rows", 16, [(64, 2)]),
        ("distinct-rows", 3000, [(4, 2), (11996, 2)]),
        ("recorded", 16, [(64, 2)]),
        ("recorded", 3000, [(4, 2), (11996, 2)]),
        ("no-more-draws-than-sign-vectors", 2, [(8, 2)]),  # k*b = 4 = 2**n
    ])
    def test_other_calls_are_unchanged(self, case, rows, expected):
        z = repeated_point(2, rows)
        if case == "distinct-rows":
            z[-1, 0] += 1.0
        calls = []
        with contextlib.nullcontext() if case == "recorded" else ad.no_grad():
            hessian_penalty_estimate(counting(get_function("z1z2"), calls), z,
                                     PenaltyConfig(k=2), rng=np.random.default_rng(3))
        assert calls == expected

    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("case", ["generator-norms", "generator-output", "quadratic"])
    def test_stride_zero_batch_equals_its_copy(self, case, recorded):
        make, taps, n = self.functions[case]
        fn, point = make(), np.random.default_rng(2).normal(size=n)
        config = PenaltyConfig(k=3, taps=taps)
        values = []
        for z in (np.broadcast_to(point, (300, n)), np.repeat(point[None], 300, axis=0)):
            with contextlib.nullcontext() if recorded else ad.no_grad():
                values.append(hessian_penalty_estimate(fn, z, config, rng=np.random.default_rng(6)))
        assert_same_value(*values)

    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("case", ["generator-norms", "quadratic"])
    def test_call_without_components_gives_the_same_samples(self, case, recorded):
        make, taps, n = self.functions[case]
        z = np.broadcast_to(np.random.default_rng(2).normal(size=n), (300, n))
        config = PenaltyConfig(k=3, taps=taps)
        values, grads = [], []
        for components in (True, False):
            fn = make()
            with contextlib.nullcontext() if recorded else ad.no_grad():
                values.append(hessian_penalty_estimate(fn, z, config, rng=np.random.default_rng(6),
                                                       components=components))
            if recorded:
                ad.backward(values[-1].scalar)
                grads.append([p.grad.copy() for p in getattr(fn, "parameters", list)()])
        full, bare = values
        assert bare.per_component == {} and set(full.per_component) == set(config.taps)
        assert np.array_equal(bare.per_sample, full.per_sample)
        assert bare.value == full.value
        for got, expected in zip(*grads):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_stride_zero_batch_with_nan_is_rejected(self, recorded):
        z = np.broadcast_to(np.array([0.0, np.nan]), (50, 2))
        with contextlib.nullcontext() if recorded else ad.no_grad():
            with pytest.raises(ContractViolation, match="finite"):
                hessian_penalty_estimate(get_function("z1z2"), z, PenaltyConfig(k=2))

    def test_large_table_runs_in_row_blocks(self):
        raw = np.random.default_rng(8).normal(size=(10, 10))
        fn, z, config = QuadraticForm(raw + raw.T), repeated_point(10, 600), PenaltyConfig(k=2)
        full = hessian_penalty_estimate(fn, z, config, rng=np.random.default_rng(4))
        calls = []
        with ad.no_grad():
            table = hessian_penalty_estimate(counting(fn, calls), z, config,
                                             rng=np.random.default_rng(4))
        # 1,024 sign vectors of 2 rows each: one vector first, then the rest within 1 MiB
        assert calls == [(2, 10), (2 * 1023, 10)]
        assert_same_value(table, full)

    def test_drawn_probes_are_the_default_int64_draw(self):
        # the estimator draws int32 bits: numpy gives them the values and stream of this draw
        z = np.random.default_rng(3).normal(size=(40, 6))
        fn, config = Generator(6, 768, 64, 3), PenaltyConfig(k=3, taps=("norm1", "output"))
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        for gen in (rng, reference):  # an odd int32 draw leaves a high half buffered
            gen.integers(0, 2, 3, dtype=np.int32)
        drawn = hessian_penalty_estimate(fn, z, config, rng=rng)
        signs = reference.integers(0, 2, size=(3, 40, 6)) * 2.0 - 1.0
        injected = hessian_penalty_estimate(fn, z, config, probes=signs)
        assert np.array_equal(drawn.per_sample, injected.per_sample)
        assert drawn.value == injected.value
        assert_same_stream_ahead(rng, reference)

    def test_caller_rng_advances_as_on_the_full_path(self):
        z, config = repeated_point(6, 300), PenaltyConfig(k=3, taps=("norm1",))
        g = Generator(6, 768, 64, 3)
        rng, recorded, reference = (np.random.default_rng(9) for _ in range(3))
        for gen in (rng, recorded, reference):  # an odd int32 draw leaves a high half buffered
            gen.integers(0, 2, 3, dtype=np.int32)
        with ad.no_grad():
            hessian_penalty_estimate(g, z, config, rng=rng)
        hessian_penalty_estimate(g, z, config, rng=recorded)
        reference.integers(0, 2, size=(3, 300, 6))  # the one draw of the probe bits
        assert int32_draw_state(rng) == int32_draw_state(recorded) == int32_draw_state(reference)
        assert_same_stream_ahead(rng, reference)


def int32_draw_state(rng):
    """What an int32 draw leaves observable: the PCG64 state and any buffered high half."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


def assert_same_stream_ahead(rng, reference):
    """An odd 32-bit draw reads a buffered half whole (a 64-bit draw skips it), then the
    next 64-bit draw reads the next whole word."""
    assert np.array_equal(rng.integers(0, 2**32, 5, dtype=np.uint32),
                          reference.integers(0, 2**32, 5, dtype=np.uint32))
    assert rng.integers(0, 2**62) == reference.integers(0, 2**62)


class TestRawWordDraw:
    """``_top_bits`` and ``_draw_codes`` against numpy's int32 draw: values and state."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drawn_before", [0, 1, 3])  # 1 and 3 leave a high half buffered
    @pytest.mark.parametrize("count", [1, 7, 64, 2 * penalty._BLOCK_VALUES + 3])
    def test_top_bits_are_the_int32_draw(self, seed, drawn_before, count):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for gen in (rng, reference):
            gen.integers(0, 2, drawn_before, dtype=np.int32)
        got = penalty._top_bits(rng, count)
        want = reference.integers(0, 2, count, dtype=np.int32)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert int32_draw_state(rng) == int32_draw_state(reference)
        assert_same_stream_ahead(rng, reference)

    @pytest.mark.parametrize("n,draws", [
        (3, 100_001),  # odd n, over several chunks
        (5, 2 * (penalty._BLOCK_VALUES // 5) + 7),  # k*N not a multiple of the chunk
        (24, 2 * 3),  # the widest code the float32 product keeps exact, small N
    ])
    @pytest.mark.parametrize("drawn_before", [0, 1])
    def test_draw_codes_are_the_code_product(self, n, draws, drawn_before):
        rng, reference = np.random.default_rng(n), np.random.default_rng(n)
        for gen in (rng, reference):
            gen.integers(0, 2, drawn_before, dtype=np.int32)
        codes = penalty._draw_codes(rng, draws, n)
        bits = reference.integers(0, 2, size=(draws, n), dtype=np.int32)
        assert codes.dtype == np.int32
        assert np.array_equal(codes, bits @ (1 << np.arange(n)))
        assert int32_draw_state(rng) == int32_draw_state(reference)
        assert_same_stream_ahead(rng, reference)

    def test_codes_are_exact_at_24_bits(self):
        bits = np.random.default_rng(2).integers(0, 2, size=(500, 24)).astype(bool)
        bits[0], bits[1] = True, False  # the largest code, and zero
        codes = penalty._codes(bits)
        assert codes.dtype == np.int32
        assert np.array_equal(codes, bits @ (1 << np.arange(24)))
        assert codes[0] == 2**24 - 1 and codes[1] == 0

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
    def test_other_bit_generators_draw_with_integers(self, bit_generator):
        rng, reference = (np.random.Generator(bit_generator(3)) for _ in range(2))
        for gen in (rng, reference):
            gen.integers(0, 2, 1, dtype=np.int32)
        assert np.array_equal(penalty._top_bits(rng, 101),
                              reference.integers(0, 2, 101, dtype=np.int32))
        codes = penalty._draw_codes(rng, 2 * 700, 5)
        assert np.array_equal(codes, reference.integers(0, 2, size=(1400, 5), dtype=np.int32)
                              @ (1 << np.arange(5)))
        assert_same_stream_ahead(rng, reference)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    def test_table_path_reads_the_drawn_probes(self, bit_generator):
        raw = np.random.default_rng(5).normal(size=(5, 5))
        fn, z, config = QuadraticForm(raw + raw.T), repeated_point(5, 501), PenaltyConfig(k=3)
        with ad.no_grad():
            drawn = hessian_penalty_estimate(fn, z, config,
                                             rng=np.random.Generator(bit_generator(5)))
            signs = np.random.Generator(bit_generator(5)).integers(0, 2, size=(3, 501, 5))
            injected = hessian_penalty_estimate(fn, z, config, probes=signs * 2.0 - 1.0)
        assert_same_value(drawn, injected)

    def test_table_path_holds_no_bit_array(self):
        raw = np.random.default_rng(4).normal(size=(8, 8))
        fn = QuadraticForm((raw + raw.T) / 2.0)
        z = np.broadcast_to(np.zeros(8), (200_000, 8))  # verify's repeated point
        tracemalloc.start()
        try:
            with ad.no_grad():
                hessian_penalty_estimate(fn, z, PenaltyConfig(k=2), rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bits = 2 * z.size * 4  # the k probe bits per latent entry as int32: 12.8 MB
        assert peak < bits / 2


def five_op_tail(stencil, inv, reduction, out):
    """The penalty tail as five recorded ops (sum, scale, sub, var, max or mean): the
    reference ``ad.probe_variance`` repeats bit for bit, values and vjps."""
    sums = stencil.sum(axis=0) * inv
    var = (sums - sums.values.mean(axis=0)).var(axis=0, ddof=1)
    out[...] = var.values
    return var.max(axis=-1) if reduction == "max" else var.mean(axis=-1)


class TestProbeVariance:
    """The fused tail against its five-op reference, on and off the record."""

    functions = {
        "generator-three-taps": (lambda: Generator(6, 768, 64, 3, seed=2),
                                 ("norm1", "norm2", "output"), 6),
        "generator-output": (lambda: Generator(6, 768, 64, 3, seed=2), ("output",), 6),
        "quadratic": (lambda: QuadraticForm(sum(np.random.default_rng(4).normal(size=(2, 8, 8)))),
                      (), 8),
    }

    def run(self, case, reduction, k, rows, recorded=True):
        make, taps, n = self.functions[case]
        fn = make()
        z = np.random.default_rng(rows).normal(size=(rows, n))
        with contextlib.nullcontext() if recorded else ad.no_grad():
            pv = hessian_penalty_estimate(fn, z, PenaltyConfig(k=k, reduction=reduction, taps=taps),
                                          rng=np.random.default_rng(9))
        if recorded:
            ad.backward(pv.scalar)
        return pv, [p.grad.copy() for p in getattr(fn, "parameters", list)()]

    @pytest.mark.parametrize("case", list(functions))
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("rows", [16, 300])  # one block, and blocks with one row first
    @pytest.mark.parametrize("recorded", [True, False])
    def test_matches_the_five_op_tail_bit_for_bit(self, monkeypatch, case, reduction, k, rows,
                                                  recorded):
        fused, fused_grads = self.run(case, reduction, k, rows, recorded)
        monkeypatch.setattr(ad, "probe_variance", five_op_tail)
        want, want_grads = self.run(case, reduction, k, rows, recorded)
        assert_same_value(fused, want)
        assert len(fused_grads) == len(want_grads)
        for got, expected in zip(fused_grads, want_grads):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("m", [1, 5])  # one component, and a row of several
    def test_kernel_matches_the_five_op_tail(self, reduction, k, m):
        sums = np.random.default_rng(k).normal(size=(k, 7, m)) * 1e3 + 50.0
        want_out = np.empty((7, m))
        want = five_op_tail(ad.Tensor(sums[None]), 1.0, reduction, want_out)
        for keep in (False, True):
            out = np.empty((7, m))
            got = ad._probe_variance(sums.copy(), reduction, out, keep)
            assert np.array_equal(out, want_out)
            assert np.array_equal(got, want.values)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_caller_writes_to_per_component_change_no_gradient(self, reduction):
        _, want = self.run("generator-three-taps", reduction, 2, 16)
        make, taps, n = self.functions["generator-three-taps"]
        fn = make()
        z = np.random.default_rng(16).normal(size=(16, n))
        pv = hessian_penalty_estimate(fn, z, PenaltyConfig(k=2, reduction=reduction, taps=taps),
                                      rng=np.random.default_rng(9))
        for variances in pv.per_component.values():
            variances[:, ::-1] = np.arange(variances.size).reshape(variances.shape)  # new argmax
        ad.backward(pv.scalar)
        for p, expected in zip(fn.parameters(), want):
            assert np.array_equal(p.grad, expected)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_nonfinite_tail_names_the_op(self, recorded):
        # finite function values whose squared spread over the probes overflows
        fn = QuadraticForm(np.array([[0.0, 1e200], [1e200, 0.0]]))
        with contextlib.nullcontext() if recorded else ad.no_grad():
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericError, match="probe_variance"):
                    hessian_penalty_estimate(fn, repeated_point(2, 50), PenaltyConfig(k=2),
                                             rng=np.random.default_rng(0))

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_kernel_rejects_an_overflowing_variance(self, reduction, m):
        sums = np.zeros((2, 4, m))
        sums[0, 2, -1], sums[1, 2, -1] = 1e200, -1e200  # finite sums whose squares overflow
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="probe_variance"):
                ad._probe_variance(sums, reduction, np.empty((4, m)))

    def test_reconstruction_loss_records_45_ops(self):
        g = Generator(6, 768, 64, 3, seed=2)
        rng = np.random.default_rng(1)
        z, target = rng.normal(size=(16, 6)), rng.normal(size=(16, 768))
        out, _ = g(z)
        pv = hessian_penalty_estimate(g, z, PenaltyConfig(k=2, taps=("norm1", "norm2", "output")),
                                      rng=rng)
        loss = ad.square(out - target).mean() + pv.scalar * 0.1
        assert sum(node.op != "leaf" for node in ad.record(loss)) == 45


class Summed:
    """Pointwise sum of analytic functions that share one input dimension."""

    def __init__(self, *fns):
        self.fns = fns

    def __call__(self, z):
        out = self.fns[0](z)
        for fn in self.fns[1:]:
            out = out + fn(z)
        return out


class TestInvariance:
    """With the probes fixed, the estimate of a quadratic form depends on v^T H v alone.

    Differences are measured against ||H||_F^2, the scale of the estimate: a
    pair of probes that agree on v^T H v gives an estimate of exactly zero.
    """

    cases = given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 6),
                  st.integers(2, 5), st.integers(1, 4))

    @staticmethod
    def draw(seed, n, k, rows):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n, n))
        z = rng.normal(size=(rows, n))
        probes = rng.integers(0, 2, size=(k, rows, n)) * 2.0 - 1.0
        return rng, raw + raw.T, z, probes

    @staticmethod
    def estimate(fn, z, probes):
        config = PenaltyConfig(epsilon=0.1, k=probes.shape[0], reduction="mean")
        return hessian_penalty_estimate(fn, z, config, probes=probes).value

    def assert_unchanged(self, got, want, h):
        assert abs(got - want) <= 1e-10 * max(abs(want), float(np.sum(h * h)))

    @settings(max_examples=30, deadline=None)
    @cases
    def test_latent_permutation(self, seed, n, k, rows):
        rng, h, z, probes = self.draw(seed, n, k, rows)
        want = self.estimate(QuadraticForm(h), z, probes)
        perm = rng.permutation(n)
        got = self.estimate(QuadraticForm(h[np.ix_(perm, perm)]), z[:, perm], probes[..., perm])
        self.assert_unchanged(got, want, h)

    @settings(max_examples=30, deadline=None)
    @cases
    def test_latent_sign_flips(self, seed, n, k, rows):
        rng, h, z, probes = self.draw(seed, n, k, rows)
        want = self.estimate(QuadraticForm(h), z, probes)
        d = rng.choice([-1.0, 1.0], size=n)
        got = self.estimate(QuadraticForm(d[:, None] * h * d), z * d, probes * d)
        self.assert_unchanged(got, want, h)

    @settings(max_examples=30, deadline=None)
    @cases
    def test_added_separable_cubic(self, seed, n, k, rows):
        rng, h, z, probes = self.draw(seed, n, k, rows)
        want = self.estimate(QuadraticForm(h), z, probes)
        cubic = SeparablePolynomial(*(rng.uniform(-1.0, 1.0, n) for _ in range(3)))
        got = self.estimate(Summed(QuadraticForm(h), cubic), z, probes)
        self.assert_unchanged(got, want, h)
