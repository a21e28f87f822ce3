import numpy as np
import pytest

from hesskit import autodiff as ad
from hesskit import penalty
from hesskit.errors import ContractViolation, DegeneracyError, NumericError
from hesskit.functions import QuadraticForm, get_function
from hesskit.metrics import PPLConfig, activeness, activeness_profile, ppl, slerp
from hesskit.nets import Generator


class Linear:
    """G(z) = z @ W for test matrices W."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)
        self.input_dim = self.w.shape[0]

    def __call__(self, z):
        return ad.matmul(z, ad.Tensor(self.w))


class TestActiveness:
    def test_dependent_vs_dead_component(self):
        fn = Linear([[1.0, 0.0], [0.0, 0.0]])  # G(z) = (z1, 0)
        assert activeness(fn, 2, 0, seed=0) > 0.0
        assert activeness(fn, 2, 1, seed=0) == 0.0

    def test_variance_scaling(self):
        fn = Linear([[2.0]])  # G(z) = 2 z1, prior variance 1 -> score 4
        score = activeness(fn, 1, 0, n_base=64, n_sweep=160, seed=1)
        assert score == pytest.approx(4.0, rel=0.05)

    def test_constant_function_scores_zero(self):
        fn = Linear(np.zeros((3, 2)))
        assert np.array_equal(activeness_profile(fn, 3, seed=2), np.zeros(3))

    def test_component_bounds(self):
        fn = Linear(np.eye(2))
        with pytest.raises(ContractViolation):
            activeness(fn, 2, 2)

    def test_profile_tracks_column_norms(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 4))
        scores = activeness_profile(Linear(w), 3, n_base=48, n_sweep=64, seed=3)
        # linear G: score_i = Var(prior) * mean_j W[i, j]^2
        target = np.mean(w * w, axis=1)
        assert np.allclose(scores, target, rtol=0.2)


class TestSlerp:
    def test_endpoints(self):
        a, b = np.array([1.0, 0.0]), np.array([0.3, 0.8])
        assert np.allclose(slerp(a, b, 0.0), a, atol=1e-12)
        assert np.allclose(slerp(a, b, 1.0), b, atol=1e-12)

    def test_orthogonal_midpoint(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.allclose(slerp(a, b, 0.5), (a + b) / np.sqrt(2.0), atol=1e-12)

    def test_antiparallel_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            slerp(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 0.5)

    def test_near_parallel_falls_back_to_lerp(self):
        a = np.array([1.0, 0.0])
        out = slerp(a, 2.0 * a, 0.25)
        assert np.allclose(out, 1.25 * a, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolation):
            slerp(np.zeros(2), np.ones(2), 0.5)


class TestPPL:
    def test_constant_function_is_zero(self):
        fn = Linear(np.zeros((3, 2)))
        result = ppl(fn, 3, PPLConfig(samples=200), seed=0)
        assert result.value == 0.0

    def test_beta_family_strictly_increases(self):
        values = [ppl(get_function("beta-cubic", beta=b), 2, PPLConfig(samples=10000),
                      seed=0).value for b in (1.0, 10.0, 100.0)]
        assert values[0] < values[1] < values[2]

    def test_linear_function_stable_across_seeds(self):
        rng = np.random.default_rng(7)
        fn = Linear(rng.normal(size=(3, 5)))
        a = ppl(fn, 3, PPLConfig(samples=10000), seed=1).value
        b = ppl(fn, 3, PPLConfig(samples=10000), seed=2).value
        assert abs(a - b) <= 0.1 * max(a, b)

    def test_relabeling_invariance_within_error_bars(self):
        rng = np.random.default_rng(9)
        quad = QuadraticForm(np.diag([1.0, 4.0, 0.25]))
        perm = np.eye(3)[[2, 0, 1]]

        class Permuted:
            def __call__(self, z):
                return quad(ad.matmul(z, ad.Tensor(perm)))

        base = ppl(quad, 3, PPLConfig(samples=20000), seed=4)
        swapped = ppl(Permuted(), 3, PPLConfig(samples=20000), seed=4)
        margin = 4.0 * (base.std_error + swapped.std_error)
        assert abs(base.value - swapped.value) <= margin

    def test_reports_skipped_pairs(self):
        fn = Linear(np.eye(2))
        result = ppl(fn, 2, PPLConfig(samples=500), seed=3)
        assert result.skipped == 0
        assert result.samples == 500

    def test_config_validation(self):
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ContractViolation):
                PPLConfig(alpha=alpha)


class Recorded:
    """Delegates to ``fn`` and records the rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []

    def __call__(self, z):
        self.rows.append(z.shape[0])
        return self.fn(z)


BLOCKED_FNS = {
    "generator-768": lambda: (Generator(latent_dim=3, seed=4), 3, 768),
    "generator-768-dim1": lambda: (Generator(latent_dim=1, seed=5), 1, 768),
    "rotated-separable": lambda: (get_function("rotated-separable", seed=2), 4, 4),
}


def block_rows(monkeypatch, width):
    """Split every batch into blocks of 12 rows after a one-unit first block: 6
    path-length pairs, or 3 sweeps of 4, for a call whose widest array is ``width``."""
    monkeypatch.setattr(penalty, "_WHOLE_ROWS", 0)
    monkeypatch.setattr(penalty, "_BLOCK_VALUES", 12 * width)


class TestRowBlocks:
    """A small budget splits each metric into many blocks, the last one ragged;
    every value must equal the one-call value bit for bit."""

    @staticmethod
    def both(monkeypatch, width, run):
        whole = run()  # at most _WHOLE_ROWS rows: one call
        block_rows(monkeypatch, width)
        return run(), whole

    def test_small_batches_are_one_call(self):
        fn, dim, _ = BLOCKED_FNS["generator-768"]()
        # 41 pairs, or 3 components x 5 base latents x sweeps of 4
        for run, rows in ((lambda f: ppl(f, dim, PPLConfig(samples=41), seed=3), 82),
                          (lambda f: activeness_profile(f, dim, n_base=5, n_sweep=4, seed=6), 60)):
            recorded = Recorded(fn)
            run(recorded)
            assert recorded.rows == [rows]

    @pytest.mark.parametrize("name", sorted(BLOCKED_FNS))
    def test_ppl_matches_one_block(self, monkeypatch, name):
        fn, dim, width = BLOCKED_FNS[name]()
        blocked, whole = self.both(
            monkeypatch, width, lambda: ppl(fn, dim, PPLConfig(samples=41), seed=3))
        assert blocked.to_dict() == whole.to_dict()
        if dim == 1:  # half the pairs are antiparallel in one dimension
            assert blocked.skipped > 0

    @pytest.mark.parametrize("name", sorted(BLOCKED_FNS))
    def test_activeness_matches_one_block(self, monkeypatch, name):
        fn, dim, width = BLOCKED_FNS[name]()
        blocked, whole = self.both(monkeypatch, width, lambda: (
            activeness_profile(fn, dim, n_base=5, n_sweep=4, seed=6),
            activeness(fn, dim, dim - 1, n_base=11, n_sweep=4, seed=7)))
        assert blocked[0].tobytes() == whole[0].tobytes()
        assert blocked[1] == whole[1]

    def test_calls_after_the_first_fit_the_budget(self, monkeypatch):
        fn, dim, width = BLOCKED_FNS["generator-768"]()
        budget = 12 * width
        block_rows(monkeypatch, width)
        for run in (lambda f: ppl(f, dim, PPLConfig(samples=41), seed=3),
                    lambda f: activeness_profile(f, dim, n_base=5, n_sweep=4, seed=6)):
            recorded = Recorded(fn)
            run(recorded)
            first, *rest = recorded.rows
            assert first in (2, 4)  # one pair, or one sweep
            assert len(rest) > 2 and max(rest) <= budget // width
            assert rest[-1] < rest[0]  # ragged last block


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_overflowing_metrics_raise_instead_of_reporting_inf():
    # the outputs stay finite; their squared differences and variances overflow
    g = Generator(latent_dim=3, output_dim=8, hidden_width=6, hidden_layers=2, seed=0)
    w = g.parameters()[-2]  # head.weight
    w.assign(w.values * 1e306)
    with pytest.raises(NumericError, match="path length"):
        ppl(g, 3, PPLConfig(samples=20), seed=0)
    with pytest.raises(NumericError, match="activeness"):
        activeness_profile(g, 3, n_base=4, n_sweep=2, seed=0)


class TestGramPath:
    """A generator's metrics reduce its head through ``W Wᵀ``; ``Recorded`` hides
    ``head_gram``, so it runs the generic path on the same generator."""

    @staticmethod
    def both(fn, dim):
        return [(ppl(f, dim, PPLConfig(samples=300), seed=3),
                 activeness_profile(f, dim, n_base=7, n_sweep=5, seed=6))
                for f in (fn, Recorded(fn))]

    @pytest.mark.parametrize("arch", [(6, 768, 64, 3), (3, 12, 8, 1), (4, 5, 7, 2)])
    def test_agrees_with_the_generic_path(self, arch):
        g = Generator(*arch, seed=8)
        assert g.head_gram()[0] == g.tap_names[-1]
        (gram_ppl, gram_act), (ppl_ref, act_ref) = self.both(g, arch[0])
        assert gram_ppl.value == pytest.approx(ppl_ref.value, rel=1e-12, abs=0.0)
        assert gram_ppl.std_error == pytest.approx(ppl_ref.std_error, rel=1e-12, abs=0.0)
        assert np.allclose(gram_act, act_ref, rtol=1e-12, atol=0.0)
        assert act_ref.min() > 0.0

    def test_no_hidden_layer_is_the_generic_path(self):
        g = Generator(3, 8, 6, 0, seed=1)
        assert g.head_gram() is None
        (gram_ppl, gram_act), (ppl_ref, act_ref) = self.both(g, 3)
        assert gram_ppl.to_dict() == ppl_ref.to_dict()
        assert gram_act.tobytes() == act_ref.tobytes()

    def test_a_dead_component_scores_exactly_zero(self):
        g = Generator(seed=2)
        w = g.parameters()[0]  # hidden.0.weight
        values = w.values.copy()
        values[4] = 0.0
        w.assign(values)
        assert g.head_gram() is not None
        scores = activeness_profile(g, 6, n_base=7, n_sweep=5, seed=6)
        assert scores[4] == 0.0 and np.all(np.delete(scores, 4) > 0.0)
        assert activeness(g, 6, 4, n_base=5, n_sweep=3, seed=1) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @pytest.mark.parametrize("factor", [1e306, 1e308])  # W Wᵀ overflows; the bound too
    def test_an_unbounded_head_takes_the_generic_path(self, tmp_path, factor):
        from hesskit.cli import main
        from hesskit.nets import save_checkpoint

        g = Generator(latent_dim=3, output_dim=8, hidden_width=6, hidden_layers=2, seed=0)
        w = g.parameters()[-2]  # head.weight
        w.assign(w.values * factor)
        assert g.head_gram() is None
        with pytest.raises(NumericError):
            ppl(g, 3, PPLConfig(samples=20), seed=0)
        path = str(tmp_path / "g.npz")
        save_checkpoint(g, path)
        assert main(["eval", "--checkpoint", path, "--ppl-samples", "20", "--act-base", "4",
                     "--act-sweep", "2", "--hess-samples", "2",
                     "--out", str(tmp_path / "ev")]) == 2
