import numpy as np
import pytest

from hesskit.data import (
    Factor,
    FactorSpec,
    dataset_from_manifest,
    dataset_spec,
    export_dataset,
    render,
    sample_dataset,
)
from hesskit.errors import ContractViolation


def test_centered_red_square_stays_off_borders():
    spec = dataset_spec("simple-4factor")
    img = render(spec, [0.5, 0.5, 0.0, 0.2]).reshape(16, 16, 3)
    border = np.concatenate([img[0], img[-1], img[:, 0], img[:, -1]])
    assert np.allclose(border, -0.25)
    center = img[8, 8]
    assert center[0] > 0.9  # hue 0 is red
    assert center[1] < 0.0 and center[2] < 0.0


def test_position_sensitivity():
    spec = dataset_spec("simple-4factor")
    a = render(spec, [0.25, 0.5, 0.1, 0.18])
    b = render(spec, [0.75, 0.5, 0.1, 0.18])
    assert np.sum(a != b) > 0


def test_render_deterministic():
    spec = dataset_spec("simple-4factor")
    factors = [0.4, 0.6, 0.3, 0.16]
    assert np.array_equal(render(spec, factors), render(spec, factors))


def test_out_of_range_factor_rejected():
    spec = dataset_spec("simple-4factor")
    with pytest.raises(ContractViolation, match="range"):
        render(spec, [0.5, 0.5, 0.9, 0.18])


def test_pixels_stay_in_unit_range():
    ds = sample_dataset(dataset_spec("complex-2object"), 64, seed=1)
    assert ds.observations.min() >= -1.0 and ds.observations.max() <= 1.0


def test_factor_independence():
    ds = sample_dataset(dataset_spec("simple-4factor"), 1000, seed=0)
    corr = np.corrcoef(ds.factors.T) - np.eye(4)
    assert np.max(np.abs(corr)) <= 0.1


def test_1fov_varies_single_factor():
    spec = dataset_spec("1fov")
    assert spec.factor_names == ("x",)
    ds = sample_dataset(spec, 16, seed=2)
    assert ds.factors.shape == (16, 1)


def test_same_seed_identical_dataset():
    spec = dataset_spec("2factor")
    a = sample_dataset(spec, 32, seed=5)
    b = sample_dataset(spec, 32, seed=5)
    assert np.array_equal(a.factors, b.factors)
    assert np.array_equal(a.observations, b.observations)


def test_channel_means_are_stable():
    ds = sample_dataset(dataset_spec("simple-4factor"), 512, seed=3)
    means = ds.observations.reshape(-1, 16, 16, 3).mean(axis=(0, 1, 2))
    assert np.all(means >= -0.5) and np.all(means <= 0.5)


def test_linear_decoder_identifies_factors():
    spec = dataset_spec("simple-4factor")
    ds = sample_dataset(spec, 5000, seed=0)
    features = np.hstack([ds.observations, np.ones((ds.count, 1))])
    n_train = 4000
    coef, *_ = np.linalg.lstsq(features[:n_train], ds.factors[:n_train], rcond=None)
    predicted = features[n_train:] @ coef
    residual = ds.factors[n_train:] - predicted
    r2 = 1.0 - residual.var(axis=0) / ds.factors[n_train:].var(axis=0)
    assert np.all(r2 >= 0.9), dict(zip(spec.factor_names, np.round(r2, 4)))


def test_latents_pad_normalized_factors():
    ds = sample_dataset(dataset_spec("2factor"), 8, seed=1)
    z = ds.latents(6)
    assert z.shape == (8, 6)
    assert np.all(np.abs(z[:, :2]) <= 1.0)
    assert np.array_equal(z[:, 2:], np.zeros((8, 4)))
    with pytest.raises(ContractViolation):
        ds.latents(1)


def test_export_and_regenerate_from_manifest(tmp_path):
    ds = sample_dataset(dataset_spec("1fov"), 6, seed=7)
    export_dataset(ds, str(tmp_path))
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "factors.csv").exists()
    assert len(list((tmp_path / "samples").glob("*.ppm"))) == 6
    ppm = (tmp_path / "samples" / "sample_000000.ppm").read_bytes()
    assert ppm.startswith(b"P6\n16 16\n255\n")
    regenerated = dataset_from_manifest(str(tmp_path))
    assert np.array_equal(regenerated.factors, ds.factors)
    assert np.array_equal(regenerated.observations, ds.observations)
    loaded_factors = np.loadtxt(tmp_path / "factors.csv", delimiter=",", skiprows=1)
    assert np.array_equal(np.atleast_2d(loaded_factors).reshape(ds.factors.shape), ds.factors)


def test_reexport_in_place_matches_a_fresh_export(tmp_path):
    export_dataset(sample_dataset(dataset_spec("1fov"), 6, seed=11), str(tmp_path / "reused"))
    ds = sample_dataset(dataset_spec("1fov"), 3, seed=7)
    export_dataset(ds, str(tmp_path / "reused"))
    export_dataset(ds, str(tmp_path / "fresh"))
    samples = [f"samples/sample_{i:06d}.ppm" for i in range(3)]
    for name in ["manifest.json", "factors.csv"] + samples:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_spec_roundtrip_through_dict():
    spec = dataset_spec("complex-2object")
    assert FactorSpec.from_dict(spec.to_dict()) == spec


def test_spec_requires_complete_objects():
    with pytest.raises(ContractViolation, match="missing attribute"):
        FactorSpec(name="broken", factors=(Factor("x", 0.0, 1.0, "x-position"),))


def test_unknown_spec_name():
    with pytest.raises(ContractViolation, match="unknown dataset spec"):
        dataset_spec("nope")
