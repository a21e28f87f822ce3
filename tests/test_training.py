import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import autodiff as ad
from hesskit.data import Dataset, dataset_spec, sample_dataset
from hesskit.errors import ContractViolation, DegeneracyError, NumericError
from hesskit.functions import SeparablePolynomial, get_function
from hesskit.metrics import activeness_profile
from hesskit.penalty import PenaltyConfig
from hesskit.training import (
    Adam,
    TrainConfig,
    discover_directions,
    gram_schmidt,
    random_orthogonal,
    signed_permutation_score,
    train,
    warmup_weight,
)
from seeded_runs import train_all


def strip_clock(records):
    return [{k: v for k, v in r.items() if k != "wall_clock"} for r in records]


class TestWarmup:
    def test_ramp_endpoints(self):
        assert warmup_weight(0, 100, 0.1) == 0.0
        assert warmup_weight(50, 100, 0.1) == pytest.approx(0.05)
        assert warmup_weight(200, 100, 0.1) == pytest.approx(0.1)

    def test_negative_step_rejected(self):
        with pytest.raises(ContractViolation):
            warmup_weight(-1, 100, 0.1)

    def test_schedule_monotone_and_clamped_in_logs(self):
        cfg = TrainConfig(mode="reconstruction", dataset="1fov", latent_dim=2, steps=30,
                          batch_size=4, dataset_size=32, penalty_weight=0.2,
                          warmup_steps=10, seed=0)
        log = train(cfg).log
        lam = log.values("lambda_t")
        assert np.all(np.diff(lam) >= 0.0)
        assert np.all(lam[10:] == 0.2)


class TestConfig:
    def test_baseline_forces_zero_weight(self):
        cfg = TrainConfig(mode="baseline", penalty_weight=0.7)
        assert cfg.penalty_weight == 0.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ContractViolation):
            TrainConfig(mode="vae")

    def test_rejects_negative_weight(self):
        with pytest.raises(ContractViolation):
            TrainConfig(penalty_weight=-0.1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_nonfinite_weight(self, weight):
        with pytest.raises(ContractViolation, match="finite"):
            TrainConfig(penalty_weight=weight)

    def test_rejects_zero_warmup(self):
        with pytest.raises(ContractViolation):
            TrainConfig(warmup_steps=0)

    def test_momentum_defaults_by_mode(self):
        assert TrainConfig(mode="gan").momentum == (0.0, 0.99)
        assert TrainConfig(mode="reconstruction").momentum == (0.9, 0.999)


class TestAdam:
    def test_minimizes_a_quadratic(self):
        p = ad.Parameter("p", np.array([3.0, -2.0, 1.5]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ad.backward(ad.square(p).sum())
            opt.step()
        assert np.max(np.abs(p.values)) <= 1e-3

    @staticmethod
    def mixed_parameters():
        rng = np.random.default_rng(21)
        shapes = {"w": (4, 3), "b": (3,), "s": (), "c": (1, 5)}
        return [ad.Parameter(name, rng.normal(size=shape)) for name, shape in shapes.items()]

    @staticmethod
    def loss(params):
        w, b, s, c = params
        h = ad.tanh(ad.matmul(ad.Tensor(np.ones((2, 4))), w) + b)
        return ad.square(h).sum() + ad.square(s) * 3.0 + ad.softplus(c).mean()

    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.0, 0.99)])
    def test_flat_buffer_matches_per_parameter_formula_bit_for_bit(self, betas):
        b1, b2 = betas
        lr, eps = 0.05, 1e-8
        params, ref = self.mixed_parameters(), self.mixed_parameters()
        opt = Adam(params, lr, b1, b2, eps)
        m = [np.zeros_like(p.values) for p in ref]
        v = [np.zeros_like(p.values) for p in ref]
        for t in range(1, 51):
            opt.zero_grad()
            ad.backward(self.loss(params))
            opt.step()
            for p in ref:
                p.zero_grad()
            ad.backward(self.loss(ref))
            for i, p in enumerate(ref):
                g = p.grad
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                p.assign(p.values - lr * m_hat / (np.sqrt(v_hat) + eps))
            for p, q in zip(params, ref):
                assert p.values.shape == q.values.shape
                assert np.array_equal(p.values, q.values), (t, p.name)
                assert np.array_equal(p.grad, q.grad), (t, p.name)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_update_names_the_parameter_and_changes_nothing(self):
        params = self.mixed_parameters()
        opt = Adam(params, lr=0.1)
        opt.zero_grad()
        ad.backward(self.loss(params))
        before = [p.values.copy() for p in params]
        params[2].grad[...] = np.inf  # the 0-d "s": its update is inf / inf
        with pytest.raises(NumericError, match="'s'"):
            opt.step()
        for p, old in zip(params, before):
            assert np.array_equal(p.values, old)

    def test_parameter_never_writes_into_its_source_array(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = ad.Parameter("p", source)
        p.assign(np.zeros((2, 2)))
        opt = Adam([p], lr=0.1)
        ad.backward(ad.square(p).sum() + p.sum())
        opt.step()
        assert np.array_equal(source, [[1.0, 2.0], [3.0, 4.0]])
        assert p.values[0, 0] == pytest.approx(-0.1)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_learning_rate_that_is_not_positive_and_finite(self, lr):
        with pytest.raises(ContractViolation, match="learning rate"):
            Adam([ad.Parameter("p", np.zeros(2))], lr=lr)


class TestTrainerDeterminism:
    def test_lambda_zero_matches_baseline_trajectory(self):
        common = dict(dataset="1fov", latent_dim=2, steps=60, batch_size=8,
                      dataset_size=64, warmup_steps=10, seed=4)
        res_zero = train(TrainConfig(mode="gan", penalty_weight=0.0, **common))
        res_base = train(TrainConfig(mode="baseline", penalty_weight=0.0, **common))
        for a, b in zip(res_zero.generator.parameters(), res_base.generator.parameters()):
            assert np.array_equal(a.values, b.values)
        assert strip_clock(res_zero.log.records) == strip_clock(res_base.log.records)

    def test_gan_step_leaves_discriminator_gradients_as_its_update_left_them(self):
        from hesskit.training import Trainer

        trainer = Trainer(TrainConfig(mode="gan", dataset="1fov", latent_dim=2, steps=0,
                                      batch_size=8, dataset_size=64, warmup_steps=2,
                                      penalty_weight=0.1, seed=2))
        d_params = trainer.discriminator.parameters()
        left = []
        d_step = trainer.opt_d.step

        def step_and_record():
            d_step()
            left[:] = [p.grad.copy() for p in d_params]

        trainer.opt_d.step = step_and_record
        for t in range(3):
            trainer.gan_step(trainer.dataset.observations[8 * t:8 * t + 8], t)
            assert any(np.any(g != 0.0) for g in left)
            for p, g in zip(d_params, left):
                assert np.array_equal(p.grad, g), p.name

    def test_gan_step_keeps_a_discriminator_flag_the_caller_froze(self):
        from hesskit.training import Trainer

        trainer = Trainer(TrainConfig(mode="gan", dataset="1fov", latent_dim=2, steps=0,
                                      batch_size=8, dataset_size=64, seed=2))
        params = trainer.discriminator.parameters()
        head = next(p for p in params if p.name == "head.weight")
        head.requires_grad = False
        trainer.gan_step(trainer.dataset.observations[:8], 0)
        assert [p.requires_grad for p in params] == [p is not head for p in params]

    @pytest.mark.parametrize("mode", ["reconstruction", "gan"])
    def test_zero_weight_steps_evaluate_the_penalty_off_the_record(self, monkeypatch, mode):
        from hesskit import training

        recorded = []
        real = training.hessian_penalty_estimate

        def spy(*args, **kwargs):
            recorded.append(ad.grad_enabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "hessian_penalty_estimate", spy)
        common = dict(mode=mode, dataset="1fov", latent_dim=2, steps=3, batch_size=8,
                      dataset_size=64, warmup_steps=2, seed=3)
        for weight, expected in ((0.0, [False] * 3), (0.1, [False, True, True])):
            recorded.clear()
            log = train(TrainConfig(penalty_weight=weight, **common)).log
            assert recorded == expected  # lambda_0 = 0 under the warm-up
            assert np.all(np.isfinite(log.values("penalty"))) and len(log.values("penalty")) == 3

    def test_penalty_gradient_vanishes_at_step_zero(self):
        # lambda_0 = 0, so one step with any weight matches one lambda=0 step
        common = dict(mode="reconstruction", dataset="1fov", latent_dim=2, steps=1,
                      batch_size=8, dataset_size=64, warmup_steps=10, seed=7)
        heavy = train(TrainConfig(penalty_weight=5.0, **common))
        zero = train(TrainConfig(penalty_weight=0.0, **common))
        for a, b in zip(heavy.generator.parameters(), zero.generator.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_reconstruction_log_reproducible(self):
        cfg = TrainConfig(mode="reconstruction", dataset="2factor", latent_dim=3, steps=25,
                          batch_size=8, dataset_size=64, penalty_weight=0.05,
                          warmup_steps=5, seed=9)
        a = train(cfg).log
        b = train(cfg).log
        assert strip_clock(a.records) == strip_clock(b.records)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_numeric_blowup_aborts_with_diagnostic_record(self):
        cfg = TrainConfig(mode="reconstruction", dataset="1fov", latent_dim=2, steps=50,
                          batch_size=8, dataset_size=64, penalty_weight=0.0,
                          warmup_steps=10, lr_g=1e150, seed=0)
        from hesskit.training import Trainer

        trainer = Trainer(cfg)
        with pytest.raises(NumericError):
            trainer.run()
        assert "error" in trainer.log.records[-1]


def test_finetuning_resumes_from_given_networks():
    common = dict(mode="reconstruction", dataset="1fov", latent_dim=2, batch_size=8,
                  dataset_size=64, penalty_weight=0.05, warmup_steps=10)
    first = train(TrainConfig(steps=15, seed=3, **common))
    snapshot = [p.values.copy() for p in first.generator.parameters()]
    train(TrainConfig(steps=0, seed=3, **common), generator=first.generator)
    for before, p in zip(snapshot, first.generator.parameters()):
        assert np.array_equal(before, p.values)
    continued = train(TrainConfig(steps=5, seed=3, **common), generator=first.generator)
    assert len(continued.log) == 5
    assert any(not np.array_equal(before, p.values)
               for before, p in zip(snapshot, first.generator.parameters()))

    mismatched = TrainConfig(steps=1, seed=3, mode="reconstruction", dataset="1fov",
                             latent_dim=3, batch_size=8, dataset_size=64)
    with pytest.raises(ContractViolation):
        train(mismatched, generator=first.generator)


def test_linear_target_linear_generator_converges():
    spec = dataset_spec("2factor")
    base = sample_dataset(spec, 256, seed=0)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(2, 12))
    c = rng.normal(size=12)
    linear = Dataset(spec=spec, seed=0, factors=base.factors,
                     observations=base.latents(2) @ w + c)
    cfg = TrainConfig(mode="reconstruction", latent_dim=2, hidden_layers=0, steps=800,
                      batch_size=32, dataset_size=256, penalty_weight=0.0,
                      warmup_steps=1, lr_g=0.05, seed=0)
    result = train(cfg, dataset=linear)
    assert result.log.records[-1]["recon_loss"] <= 1e-6


def test_gan_penalty_drops_after_warmup_aggregated_over_seeds():
    # directional check on the 1-factor dataset: mean penalty right after the
    # warm-up horizon vs the final stretch, averaged over 5 seeds
    early, late = [], []
    for seed in range(5):
        cfg = TrainConfig(mode="gan", dataset="1fov", latent_dim=2, steps=200,
                          batch_size=16, dataset_size=512, penalty_weight=0.025,
                          warmup_steps=30, seed=seed)
        pen = train(cfg).log.values("penalty")
        early.append(pen[30:60].mean())
        late.append(pen[170:200].mean())
    assert np.mean(late) < np.mean(early)


class TestGramSchmidt:
    def test_orthonormal_input_is_fixed_point(self):
        q = random_orthogonal(5, 5, np.random.default_rng(0))
        assert np.max(np.abs(gram_schmidt(q) - q)) <= 1e-12

    def test_hand_example(self):
        out = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_first_column_direction_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3))
        out = gram_schmidt(a)
        cos = a[:, 0] @ out[:, 0] / np.linalg.norm(a[:, 0])
        assert cos == pytest.approx(1.0)

    def test_duplicate_columns_degenerate(self):
        with pytest.raises(DegeneracyError):
            gram_schmidt(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ContractViolation):
            gram_schmidt(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=6))
    def test_output_is_orthonormal(self, seed, cols):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, cols))
        q = gram_schmidt(a)
        assert np.max(np.abs(q.T @ q - np.eye(cols))) <= 1e-6


class TestDiscovery:
    def test_disentangled_function_keeps_identity(self):
        fn = SeparablePolynomial(np.array([1.0, 0.5, -0.75]))
        matrix, _ = discover_directions(fn, 3, steps=100, seed=0, init=np.eye(3))
        assert np.max(np.abs(matrix.matrix - np.eye(3))) <= 0.05

    def test_single_direction_is_unit_vector(self):
        fn = get_function("rotated-separable", dim=3, seed=2)
        matrix, _ = discover_directions(fn, 1, steps=20, seed=0)
        assert matrix.matrix.shape == (3, 1)
        assert np.linalg.norm(matrix.matrix[:, 0]) == pytest.approx(1.0)

    def test_generator_gradients_stay_exactly_zero(self):
        from hesskit.nets import Generator

        g = Generator(latent_dim=3, output_dim=5, hidden_width=6, hidden_layers=1, seed=1)
        flags_before = [p.requires_grad for p in g.parameters()]
        _, log = discover_directions(g, 2, steps=15, seed=3)
        assert len(log) == 15
        for p in g.parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.values))
        assert [p.requires_grad for p in g.parameters()] == flags_before

    def test_orthonormal_throughout(self):
        fn = get_function("rotated-separable", dim=4, seed=5)
        matrix, log = discover_directions(fn, 4, steps=50, seed=1)
        assert matrix.ortho_residual() <= 1e-6
        assert max(r["ortho_residual"] for r in log.records) <= 1e-6

    def test_recovers_known_rotation(self):
        fn = get_function("rotated-separable", dim=4, seed=11)
        matrix, _ = discover_directions(fn, 4, steps=1500, seed=0)
        overlap = np.abs(matrix.matrix.T @ fn.rotation)
        assert np.min(np.max(overlap, axis=0)) >= 0.9
        score, _perm = signed_permutation_score(matrix.matrix.T @ fn.rotation)
        assert score >= 0.9

    def test_rejects_too_many_directions(self):
        fn = get_function("rotated-separable", dim=3, seed=0)
        with pytest.raises(ContractViolation):
            discover_directions(fn, 4, steps=1)


def test_signed_permutation_score_identity():
    score, perm = signed_permutation_score(np.eye(3))
    assert score == pytest.approx(1.0)
    assert perm == [0, 1, 2]


def test_pool_runs_equal_in_process_runs():
    # the slow tests train on a spawn pool with one BLAS thread per child
    configs = [TrainConfig(mode="reconstruction", dataset="2factor", latent_dim=3, steps=12,
                           batch_size=8, dataset_size=64, penalty_weight=lam, warmup_steps=4,
                           penalty=PenaltyConfig(taps=("norm1", "output")), seed=seed)
               for seed, lam in ((0, 0.1), (1, 0.0))]
    for config, run in zip(configs, train_all(configs)):
        expected = train(config)
        assert [p.values.tobytes() for p in run.generator.parameters()] == \
            [p.values.tobytes() for p in expected.generator.parameters()]
        assert run.dataset.observations.tobytes() == expected.dataset.observations.tobytes()


@pytest.mark.slow
def test_shrinkage_invariant_on_two_factor_data():
    # overparameterized latent space (6 components, 2 true factors): penalty
    # runs deactivate at least two components in >= 4 of 5 seeds; lambda = 0
    # baselines never show that gap
    taps = ("norm1", "norm2", "output")
    runs = [(tag, seed, TrainConfig(
        mode="reconstruction", dataset="2factor", latent_dim=6, steps=2500,
        batch_size=16, dataset_size=1024, penalty_weight=lam, warmup_steps=500,
        penalty=PenaltyConfig(epsilon=0.1, k=2, reduction="max", taps=taps, seed=0),
        seed=seed,
    )) for tag, lam in (("penalty", 0.1), ("baseline", 0.0)) for seed in range(5)]
    counts = {"penalty": [], "baseline": []}
    for (tag, seed, _), result in zip(runs, train_all([cfg for *_, cfg in runs])):
        act = activeness_profile(result.generator, 6, n_base=24, n_sweep=12, seed=900 + seed)
        counts[tag].append(int(np.sum(act < 0.1 * act.max())))
    assert sum(c >= 2 for c in counts["penalty"]) >= 4, counts
    assert sum(c >= 2 for c in counts["baseline"]) == 0, counts
