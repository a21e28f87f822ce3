import json

import numpy as np
import pytest

from hesskit import autodiff as ad
from hesskit import nets
from hesskit.errors import ContractViolation
from hesskit.nets import Discriminator, Generator, load_checkpoint, save_checkpoint
from hesskit.penalty import PenaltyConfig, hessian_penalty_estimate


def test_zero_weight_generator_outputs_zero():
    g = Generator(latent_dim=3, output_dim=5, hidden_width=4, hidden_layers=2, seed=0)
    for p in g.parameters():
        p.assign(np.zeros_like(p.values))
    out, taps = g(np.array([0.7, -1.2, 0.4]))
    assert np.array_equal(out.values, np.zeros((1, 5)))
    assert set(taps) == {"norm1", "norm2"}


def test_generator_deterministic_per_seed():
    z = np.random.default_rng(0).normal(size=(4, 6))
    a = Generator(seed=3)(z)[0].values
    b = Generator(seed=3)(z)[0].values
    assert np.array_equal(a, b)


def test_latent_dimension_mismatch():
    g = Generator(latent_dim=6)
    with pytest.raises(ContractViolation):
        g(np.zeros(5))


def test_default_taps_skip_last_hidden_layer():
    assert Generator(hidden_layers=3).default_taps == ("norm1", "norm2")
    assert Generator(hidden_layers=1).default_taps == ("norm1",)
    assert Generator(latent_dim=2, hidden_layers=0).default_taps == ()


def test_tap_consistency_with_isolated_prefix():
    g = Generator(latent_dim=4, output_dim=8, hidden_width=8, hidden_layers=2, seed=5)
    z = np.random.default_rng(1).normal(size=(3, 4))
    _, taps = g(z)
    params = {p.name: p.values for p in g.parameters()}
    h = z
    for i in range(2):
        pre = h @ params[f"hidden.{i}.weight"] + params[f"hidden.{i}.bias"]
        normed = pre / np.sqrt(np.mean(pre * pre, axis=-1, keepdims=True) + 1e-8)
        assert np.array_equal(taps[f"norm{i + 1}"].values, normed)
        h = np.tanh(normed)


def test_penalty_through_taps_passes_gradient_check():
    g = Generator(latent_dim=3, output_dim=6, hidden_width=8, hidden_layers=2, seed=2)
    z = np.random.default_rng(4).normal(size=(2, 3))
    cfg = PenaltyConfig(epsilon=0.1, k=2, reduction="mean", taps=g.default_taps, seed=11)

    def loss_fn():
        return hessian_penalty_estimate(g, z, cfg).scalar

    report = ad.gradient_check(loss_fn, g.parameters(), step=1e-5, tolerance=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error:.3e}"


def test_zero_weight_discriminator_logit():
    d = Discriminator(input_dim=4, hidden_width=3, hidden_layers=1, seed=0)
    for p in d.parameters():
        p.assign(np.zeros_like(p.values))
    assert d(np.ones((2, 4))).values.tolist() == [[0.0], [0.0]]


def test_discriminator_batch_order_preserved():
    d = Discriminator(input_dim=5, seed=1)
    x = np.random.default_rng(2).normal(size=(6, 5))
    batched = d(x).values
    assert batched.shape == (6, 1)
    singles = np.concatenate([d(row).values for row in x])
    # rows are independent; tolerance covers BLAS summation-order drift
    assert np.allclose(batched, singles, rtol=0.0, atol=1e-12)
    perm = np.array([3, 1, 5, 0, 2, 4])
    assert np.allclose(d(x[perm]).values, batched[perm], rtol=0.0, atol=1e-12)


def test_discriminator_gradient_check():
    d = Discriminator(input_dim=4, hidden_width=6, hidden_layers=2, seed=3)
    x = np.random.default_rng(3).normal(size=(3, 4))

    def loss_fn():
        return ad.softplus(d(x)).mean()

    report = ad.gradient_check(loss_fn, d.parameters(), step=1e-5, tolerance=1e-4)
    assert report.passed


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    g = Generator(latent_dim=4, output_dim=12, hidden_width=8, hidden_layers=2, seed=9)
    path = str(tmp_path / "gen.npz")
    manifest_path = save_checkpoint(g, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, Generator)
    assert loaded.arch() == g.arch()
    for a, b in zip(g.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.values, b.values)
    z = np.random.default_rng(0).normal(size=(2, 4))
    assert np.array_equal(g(z)[0].values, loaded(z)[0].values)

    with open(manifest_path) as f:
        manifest = json.load(f)
    assert manifest["kind"] == "generator"
    names = {entry["name"] for entry in manifest["parameters"]}
    assert names == {p.name for p in g.parameters()}
    assert all(len(entry["sha256"]) == 64 for entry in manifest["parameters"])


def test_checkpoint_rejects_non_checkpoint_npz(tmp_path):
    path = str(tmp_path / "junk.npz")
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(ContractViolation):
        load_checkpoint(path)


def test_discriminator_checkpoint_roundtrip(tmp_path):
    d = Discriminator(input_dim=6, hidden_width=4, hidden_layers=2, seed=7)
    path = str(tmp_path / "disc.npz")
    save_checkpoint(d, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, Discriminator)
    x = np.random.default_rng(1).normal(size=(3, 6))
    assert np.array_equal(d(x).values, loaded(x).values)


@pytest.mark.parametrize("net", [Generator(latent_dim=3, output_dim=5, hidden_width=4, seed=2),
                                 Discriminator(input_dim=5, hidden_width=4, seed=3)],
                         ids=lambda net: net.kind)
def test_loading_draws_no_random_numbers(tmp_path, monkeypatch, net):
    path = str(tmp_path / "net.npz")
    save_checkpoint(net, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(nets.np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path)
    assert type(loaded) is type(net) and loaded.arch() == net.arch()
    assert [p.name for p in loaded.parameters()] == [p.name for p in net.parameters()]
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert a.values.tobytes() == b.values.tobytes()


def counting_matmul(monkeypatch):
    """Count the rows of every matmul's left operand, one entry per call."""
    rows = []
    original = ad.matmul

    def counted(a, b):
        rows.append(a.shape[0])
        return original(a, b)

    monkeypatch.setattr(ad, "matmul", counted)
    return rows


def test_tap_only_call_matches_full_call_and_skips_head(monkeypatch):
    g = Generator(latent_dim=3, output_dim=7, hidden_width=5, hidden_layers=3, seed=4)
    z = np.random.default_rng(2).normal(size=(4, 3))
    full_out, full = g(z)
    rows = counting_matmul(monkeypatch)
    out, taps = g(z, ("norm2", "norm1"))
    assert out is None
    assert set(taps) == {"norm1", "norm2"}
    for name, tensor in taps.items():
        assert np.array_equal(tensor.values, full[name].values)
    assert rows == [4, 4]  # two hidden layers; neither the third nor the head ran
    rows.clear()
    out, taps = g(z, ("output",))
    assert np.array_equal(out.values, full_out.values)
    assert rows == [4, 4, 4, 4]


def test_unknown_tap_on_generator_is_rejected():
    g = Generator(latent_dim=3, output_dim=4, hidden_width=5, hidden_layers=2, seed=0)
    with pytest.raises(ContractViolation, match="no tap named 'norm3'"):
        g(np.zeros(3), ("norm1", "norm3"))


def test_penalty_on_default_taps_never_runs_the_head(monkeypatch):
    g = Generator(latent_dim=3, output_dim=7, hidden_width=5, hidden_layers=3, seed=4)
    rows = counting_matmul(monkeypatch)
    hessian_penalty_estimate(g, np.zeros((2, 3)), PenaltyConfig(taps=g.default_taps))
    assert rows == [8, 8]  # 2k * B stencil rows through two hidden layers
