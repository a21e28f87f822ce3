import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import autodiff as ad
from hesskit import penalty
from hesskit.errors import ContractViolation, NumericError
from hesskit.functions import QuadraticForm, SeparablePolynomial, get_function
from hesskit.nets import Generator
from hesskit.oracle import (
    diagonality_metrics,
    enumerate_variance,
    exact_hessian_fd,
    export_hessian_heatmaps,
    hessian_sets_for,
)
from hesskit.penalty import PenaltyConfig, exact_offdiag_penalty, hessian_penalty_estimate


class TestExactHessianFD:
    def test_quadratic_cross(self):
        hs = exact_hessian_fd(get_function("z1z2"), np.zeros(2), 1e-3)
        assert np.allclose(hs[0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)

    def test_linear_function_zero_matrix(self):
        lin = SeparablePolynomial(np.zeros(2), linear=np.array([3.0, -2.0]))
        hs = exact_hessian_fd(lin, np.array([0.5, 0.5]), 1e-3)
        assert np.max(np.abs(hs)) <= 1e-9

    def test_mixed_cubic_hand_hessian(self):
        # G(z) = z1^2 z2 at (1,1): [[2, 2], [2, 0]]
        class Cubic:
            def __call__(self, z):
                a = ad.matmul(z, ad.Tensor([[1.0], [0.0]]))
                b = ad.matmul(z, ad.Tensor([[0.0], [1.0]]))
                return ad.mul(ad.square(a), b)

        hs = exact_hessian_fd(Cubic(), np.array([1.0, 1.0]), 1e-3)
        assert np.allclose(hs[0], [[2.0, 2.0], [2.0, 0.0]], atol=1e-6)

    def test_symmetry_residual_of_smooth_function(self):
        fn = get_function("rotated-separable", dim=4, seed=3)
        hs = exact_hessian_fd(fn, np.random.default_rng(0).normal(size=4), 1e-3)
        assert np.allclose(hs, np.swapaxes(hs, 1, 2))

    def test_registry_functions_match_analytic(self):
        rng = np.random.default_rng(5)
        for name in ("z1z2", "separable-cubic", "beta-cubic", "rotated-separable"):
            fn = get_function(name, beta=7.0, seed=2)
            z = rng.normal(size=fn.input_dim)
            hs = exact_hessian_fd(fn, z, 1e-3)
            assert np.max(np.abs(hs - fn.hessians(z))) <= 1e-6, name

    def test_stacked_points_match_single_point_calls(self):
        fn = get_function("rotated-separable", dim=3, seed=1)
        zs = np.random.default_rng(2).normal(size=(4, 3))
        calls = []

        def counted(z):
            calls.append(z.shape)
            return fn(z)

        stacked = hessian_sets_for(counted, zs, 1e-3)
        assert calls == [(4 * 19, 3)]  # 1 + 2n + 2n(n-1) stencil rows per point, one call
        assert isinstance(stacked, np.ndarray) and stacked.shape == (4, 3, 3, 3)
        for z, hs in zip(zs, stacked):
            single = exact_hessian_fd(fn, z, 1e-3)
            assert np.array_equal(hs, single)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (3,)])
    def test_empty_or_flat_point_array_rejected(self, shape):
        with pytest.raises(ContractViolation, match="non-empty"):
            hessian_sets_for(get_function("z1z2"), np.zeros(shape), 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ContractViolation, match="finite"):
            hessian_sets_for(get_function("z1z2"), np.array([[0.0, 1.0], [bad, 1.0]]), 1e-3)

    def test_one_dimensional_function(self):
        cube = SeparablePolynomial(np.array([2.0]))  # G(z) = 2 z^3, G'' = 12 z
        hs = hessian_sets_for(cube, np.array([[0.5], [-1.0]]), 1e-3)
        assert [h.shape for h in hs] == [(1, 1, 1), (1, 1, 1)]
        assert hs[0][0, 0, 0] == pytest.approx(6.0, abs=1e-6)
        assert hs[1][0, 0, 0] == pytest.approx(-12.0, abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_hessian_raises():
    # f = 1e308 z^2 is finite near 0, its second derivative 2e308 is not
    with pytest.raises(NumericError, match="Hessian"):
        hessian_sets_for(lambda z: ad.scale(ad.square(z), 1e308), np.full((2, 2), 0.01), 1e-3)


class TestRowBlocks:
    """A small budget splits the stacked stencils into calls of whole points."""

    P = 1 + 2 * 3 + 2 * 3 * 2  # stencil rows per point at n = 3

    def test_blocks_match_one_call(self, monkeypatch):
        g = Generator(latent_dim=3, output_dim=5, hidden_width=6, hidden_layers=2, seed=1)
        zs = np.random.default_rng(4).normal(size=(7, 3))
        whole = hessian_sets_for(g, zs, 1e-3)
        monkeypatch.setattr(penalty, "_WHOLE_ROWS", 0)
        budget = 2 * self.P * 6  # two points at the hidden width 6, the call's widest array
        monkeypatch.setattr(penalty, "_BLOCK_VALUES", budget)
        calls = []

        def counted(z):
            calls.append(z.shape[0])
            return g(z)

        blocked = hessian_sets_for(counted, zs, 1e-3)
        assert calls == [self.P, 2 * self.P, 2 * self.P, 2 * self.P]
        assert all(rows % self.P == 0 for rows in calls)
        assert max(calls[1:]) <= budget // 6
        assert isinstance(blocked, np.ndarray) and blocked.shape == whole.shape == (7, 5, 3, 3)
        assert blocked.tobytes() == whole.tobytes()

    def test_small_batches_are_one_call(self):
        calls = []
        fn = get_function("rotated-separable")

        def counted(z):
            calls.append(z.shape[0])
            return fn(z)

        # 1 + 2n + 2n(n-1) = 33 rows per point at n = 4
        hessian_sets_for(counted, np.zeros((31, 4)), 1e-3)
        assert calls == [31 * 33]
        calls.clear()
        hessian_sets_for(counted, np.zeros((32, 4)), 1e-3)  # 1056 > _WHOLE_ROWS rows
        assert calls == [33, 31 * 33]


class TestEnumeration:
    def test_exchange_matrix(self):
        assert enumerate_variance([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(4.0)

    def test_diagonal_matrix_is_constant(self):
        assert enumerate_variance(np.diag([3.0, -1.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_offdiag_identity_8x8(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(8, 8))
        h = (raw + raw.T) / 2.0
        target = 2.0 * exact_offdiag_penalty(h)
        assert enumerate_variance(h) == pytest.approx(target, rel=1e-12)

    def test_refuses_large_dimension(self):
        with pytest.raises(ContractViolation, match="n <= 20"):
            enumerate_variance(np.eye(21))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolation, match="symmetric"):
            enumerate_variance([[0.0, 1.0], [0.5, 0.0]])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=7))
    def test_identity_for_random_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n, n))
        h = (raw + raw.T) / 2.0
        target = 2.0 * exact_offdiag_penalty(h)
        assert enumerate_variance(h) == pytest.approx(target, rel=1e-10, abs=1e-12)

    def test_estimator_mean_over_enumerated_probes_matches(self):
        # central differences are exact on quadratics, so averaging the
        # estimator over every probe pair reproduces the enumerated value
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(3, 3))
        h = raw + raw.T
        fn = QuadraticForm(h)
        z = rng.normal(size=3)
        cfg = PenaltyConfig(epsilon=0.1, k=2)
        signs = [np.array(v, dtype=np.float64)
                 for v in __import__("itertools").product((-1.0, 1.0), repeat=3)]
        values = [hessian_penalty_estimate(fn, z, cfg, probes=np.stack([v1, v2])).value
                  for v1 in signs for v2 in signs]
        assert np.mean(values) == pytest.approx(enumerate_variance(h), abs=1e-9)


class TestDiagonality:
    def test_identity_collection(self):
        report = diagonality_metrics(np.stack([np.eye(3)] * 4))
        assert report.d_percent == 1.0
        assert math.isinf(report.d_ratio)
        assert report.offdiag_all_zero
        assert report.to_dict()["d_ratio"] is None

    def test_two_to_one_ratio(self):
        m = np.full((3, 3), 1.0)
        np.fill_diagonal(m, 2.0)
        report = diagonality_metrics(m[None])
        assert report.d_percent == 1.0
        assert report.d_ratio == pytest.approx(2.0)
        assert not report.offdiag_all_zero

    def test_offdiagonal_max(self):
        report = diagonality_metrics(np.array([[[0.0, 3.0], [3.0, 0.0]]]))
        assert report.d_percent == 0.0

    def test_tie_counts_as_diagonal(self):
        report = diagonality_metrics(np.zeros((1, 2, 2)))
        assert report.d_percent == 1.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("diag, off", [(1e308, 1.0), (1e308, 1e308), (1e300, 1e-20)])
    def test_overflowing_sums_or_ratio_raise(self, diag, off):
        # an infinite diagonal sum or ratio read as "all off-diagonals zero"; two as NaN
        with pytest.raises(NumericError, match="overflow"):
            diagonality_metrics(np.array([[[diag, off], [off, diag]]]))

    def test_pools_across_hessian_sets(self):
        a = np.stack([np.eye(2)] * 2)
        b = np.array([[[0.0, 3.0], [3.0, 0.0]]])
        report = diagonality_metrics(np.concatenate([a, b]))
        assert report.count == 3
        assert report.d_percent == pytest.approx(2.0 / 3.0)

    def test_empty_collection_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            diagonality_metrics([])
        with pytest.raises(ContractViolation, match="empty"):
            export_hessian_heatmaps([], str(tmp_path))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3)])
    def test_non_square_matrices_rejected(self, tmp_path, shape):
        with pytest.raises(ContractViolation, match="square"):
            diagonality_metrics(np.ones(shape))
        with pytest.raises(ContractViolation, match="square"):
            export_hessian_heatmaps(np.ones(shape), str(tmp_path))


def test_hessian_array_reads_as_its_flat_stack(tmp_path):
    # hessian_sets_for's (S, m, n, n) array is the (S*m, n, n) stack, component by component
    g = Generator(latent_dim=3, output_dim=4, hidden_width=5, hidden_layers=1, seed=2)
    mats = hessian_sets_for(g, np.random.default_rng(3).normal(size=(2, 3)), 1e-3)
    assert mats.shape == (2, 4, 3, 3)
    flat = mats.reshape(8, 3, 3)
    assert diagonality_metrics(mats) == diagonality_metrics(flat)
    index = export_hessian_heatmaps(mats, str(tmp_path / "points"), top=5)
    assert index == export_hessian_heatmaps(flat, str(tmp_path / "flat"), top=5)
    for name in sorted(os.listdir(tmp_path / "flat")):
        assert (tmp_path / "points" / name).read_bytes() == (tmp_path / "flat" / name).read_bytes()


class TestHeatmapExport:
    def test_csv_roundtrip_and_pgm(self, tmp_path):
        rng = np.random.default_rng(1)
        mats = rng.normal(size=(2, 4, 4))
        index = export_hessian_heatmaps(mats, str(tmp_path))
        assert len(index) == 2
        for entry in index:
            loaded = np.loadtxt(tmp_path / entry["csv"], delimiter=",")
            assert np.array_equal(loaded, mats[entry["component"]])
            pgm = (tmp_path / entry["pixmap"]).read_bytes()
            assert pgm.startswith(b"P5\n4 4\n255\n")
            assert len(pgm) == len(b"P5\n4 4\n255\n") + 16
        assert json.loads((tmp_path / "index.json").read_text()) == index

    def test_rewrite_in_place_matches_a_fresh_export(self, tmp_path):
        reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
        export_hessian_heatmaps(np.random.default_rng(5).normal(size=(2, 4, 4)), reused)
        inode = os.stat(os.path.join(reused, "hessian_00000.csv")).st_ino
        mats = np.zeros((2, 4, 4))  # shorter CSV rows and index than the first export
        export_hessian_heatmaps(mats, reused)
        export_hessian_heatmaps(mats, fresh)
        assert sorted(os.listdir(reused)) == sorted(os.listdir(fresh))
        for name in os.listdir(fresh):
            assert (tmp_path / "reused" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()
        assert os.stat(os.path.join(reused, "hessian_00000.csv")).st_ino == inode

    def test_all_zero_matrix_renders_mid_gray(self, tmp_path):
        index = export_hessian_heatmaps(np.zeros((1, 3, 3)), str(tmp_path))
        pgm = (tmp_path / index[0]["pixmap"]).read_bytes()
        assert set(pgm[len(b"P5\n3 3\n255\n"):]) == {128}

    def test_ranking_penalties_equal_exact_offdiag_penalty(self, tmp_path):
        rng = np.random.default_rng(6)
        for n in range(1, 17):
            mats = rng.normal(size=(5, n, n))
            index = export_hessian_heatmaps(mats, str(tmp_path / str(n)))
            exact = [exact_offdiag_penalty(m) for m in mats]
            assert [e["offdiag_penalty"] for e in index] == sorted(exact, reverse=True)
            for entry in index:
                assert entry["offdiag_penalty"] == exact[entry["component"]]
                csv = np.loadtxt(tmp_path / str(n) / entry["csv"], delimiter=",", ndmin=2)
                assert np.array_equal(csv, mats[entry["component"]])

    def test_top_selection_ranks_by_offdiag_penalty(self, tmp_path):
        quiet = np.eye(2)
        loud = np.array([[0.0, 2.0], [2.0, 0.0]])  # off-diagonal penalty 8 vs 0
        index = export_hessian_heatmaps(np.stack([quiet, loud]), str(tmp_path), top=1)
        assert len(index) == 1
        assert index[0]["component"] == 1
        assert index[0]["offdiag_penalty"] == pytest.approx(8.0)
