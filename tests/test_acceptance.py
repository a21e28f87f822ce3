"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s``. Training-based criteria
share one set of runs through a session fixture; everything is seeded, so
the suite is deterministic end to end.
"""

import json
import os
import time

import numpy as np
import pytest

from hesskit import autodiff as ad
from hesskit.cli import main
from hesskit.functions import QuadraticForm, SeparablePolynomial, get_function
from hesskit.metrics import PPLConfig, activeness_profile, ppl
from hesskit.nets import Generator
from hesskit.oracle import diagonality_metrics, enumerate_variance, exact_hessian_fd, \
    hessian_sets_for
from hesskit.penalty import (
    PenaltyConfig,
    exact_offdiag_penalty,
    hessian_penalty_estimate,
    sample_rademacher,
    second_directional_fd,
)
from hesskit.training import TrainConfig, discover_directions
from seeded_runs import train_all


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_symmetric(rng, n):
    raw = rng.normal(size=(n, n))
    return (raw + raw.T) / 2.0


def test_c01_enumeration_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 11  # cycles dimensions 2..12
        h = random_symmetric(rng, n)
        target = 2.0 * exact_offdiag_penalty(h)
        rel = abs(enumerate_variance(h) - target) / abs(target)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    verdict(1, worst <= 1e-10 and elapsed <= 30.0,
            f"exhaustive variance == 2x off-diagonal sum, max rel error {worst:.2e} "
            f"over 50 matrices (n=2..12) in {elapsed:.1f}s")


def test_c02_unbiasedness():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    trials_per = 200000
    config = PenaltyConfig(epsilon=0.1, k=2, reduction="max")
    worst_z = 0.0
    for _ in range(5):
        h = random_symmetric(rng, 8)
        enumerated = enumerate_variance(h)
        fn = QuadraticForm(h)
        zeros = np.zeros((trials_per, 8))
        trials = hessian_penalty_estimate(fn, zeros, config, rng=rng).per_sample
        se = trials.std(ddof=1) / np.sqrt(trials.size)
        worst_z = max(worst_z, abs(float(trials.mean()) - enumerated) / se)
    elapsed = time.monotonic() - t0
    verdict(2, worst_z <= 3.0 and elapsed <= 60.0,
            f"k=2 estimator mean over {trials_per} trials within 3 SE of the enumerated "
            f"value for 5 random 8x8 Hessians (worst z-score {worst_z:.2f}) in {elapsed:.1f}s")


def test_c03_finite_difference_fidelity():
    rng = np.random.default_rng(303)
    worst_dir = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        h = random_symmetric(rng, n)
        fn = QuadraticForm(h)
        z = rng.normal(size=n)
        v = sample_rademacher(n, 2, rng=rng)[0]
        fd = second_directional_fd(fn, z, v, 0.1).values[0]
        worst_dir = max(worst_dir, abs(fd - v @ h @ v))
    worst_hess = 0.0
    for name in ("z1z2", "separable-cubic", "beta-cubic", "rotated-separable"):
        fn = get_function(name, beta=5.0, seed=7)
        z = rng.normal(size=fn.input_dim)
        hs = exact_hessian_fd(fn, z, 1e-3)
        worst_hess = max(worst_hess, float(np.max(np.abs(hs - fn.hessians(z)))))
    verdict(3, worst_dir <= 1e-9 and worst_hess <= 1e-6,
            f"directional differences match v^T H v to {worst_dir:.2e} at eps=0.1; "
            f"full Hessians match registry analytics to {worst_hess:.2e} at eps=1e-3")


def test_c04_separable_functions_are_invisible():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        fn = SeparablePolynomial(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim),
                                 rng.uniform(-1, 1, dim))
        z = rng.normal(size=dim)
        value = hessian_penalty_estimate(fn, z, PenaltyConfig(seed=trial)).value
        worst = max(worst, abs(value))
    verdict(4, worst <= 1e-8,
            f"penalty of 20 random separable cubics bounded by {worst:.2e}")


def test_c05_penalty_is_not_smoothness():
    rng = np.random.default_rng(505)
    worst_penalty = 0.0
    lengths = []
    for beta in (1.0, 10.0, 100.0):
        fn = get_function("beta-cubic", beta=beta)
        value = hessian_penalty_estimate(fn, rng.normal(size=2), PenaltyConfig(seed=5)).value
        worst_penalty = max(worst_penalty, abs(value))
        lengths.append(ppl(fn, 2, PPLConfig(samples=10000), seed=0).value)
    increasing = lengths[0] < lengths[1] < lengths[2]
    verdict(5, worst_penalty <= 1e-8 and increasing,
            f"scaled cubics keep penalty <= {worst_penalty:.2e} while path length grows "
            f"{lengths[0]:.3g} -> {lengths[1]:.3g} -> {lengths[2]:.3g}")


def test_c06_end_to_end_penalty_gradient():
    t0 = time.monotonic()
    g = Generator(latent_dim=3, output_dim=8, hidden_width=16, hidden_layers=2, seed=6)
    z = np.random.default_rng(6).normal(size=(2, 3))
    config = PenaltyConfig(epsilon=0.1, k=2, reduction="mean", taps=g.default_taps, seed=66)

    def loss_fn():
        return hessian_penalty_estimate(g, z, config).scalar

    report = ad.gradient_check(loss_fn, g.parameters(), step=1e-5, tolerance=1e-4)
    elapsed = time.monotonic() - t0
    verdict(6, report.passed and elapsed <= 10.0,
            f"penalty loss gradient through a 2-layer generator passes the central-"
            f"difference check (max rel error {report.max_rel_error:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# training-based criteria share one set of runs

SEEDS = (0, 1, 2, 3, 4)
TRAIN_TAPS = ("norm1", "norm2", "output")


def _train_config(seed: int, weight: float) -> TrainConfig:
    return TrainConfig(
        mode="reconstruction", dataset="simple-4factor", latent_dim=6, steps=3000,
        batch_size=16, dataset_size=2048, penalty_weight=weight, warmup_steps=500,
        penalty=PenaltyConfig(epsilon=0.1, k=2, reduction="max", taps=TRAIN_TAPS, seed=0),
        seed=seed,
    )


@pytest.fixture(scope="module")
def paired_runs():
    """(seed, penalty run, baseline run) per seed, the wall time of training them on
    both cores, and the sum of the runs' own times."""
    t0 = time.monotonic()
    done = train_all([_train_config(seed, weight) for seed in SEEDS for weight in (0.1, 0.0)])
    runs = [(seed, done[2 * i], done[2 * i + 1]) for i, seed in enumerate(SEEDS)]
    return runs, time.monotonic() - t0, sum(run.seconds for run in done)


@pytest.mark.slow
def test_c07_diagonality_beats_baseline(paired_runs):
    runs, train_seconds, summed_seconds = paired_runs
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed, penalty_run, baseline_run in runs:
        rng = np.random.default_rng(1000 + seed)
        idx = rng.integers(0, penalty_run.dataset.count, size=16)
        zs = penalty_run.dataset.latents(6)[idx]
        dp = diagonality_metrics(hessian_sets_for(penalty_run.generator, zs, 1e-3))
        db = diagonality_metrics(hessian_sets_for(baseline_run.generator, zs, 1e-3))
        wins += int(dp.d_percent > db.d_percent and dp.d_ratio > db.d_ratio)
        details.append(f"seed {seed}: {dp.d_percent:.2f}/{dp.d_ratio:.2f} vs "
                       f"{db.d_percent:.2f}/{db.d_ratio:.2f}")
    elapsed = train_seconds + (time.monotonic() - t0)
    verdict(7, wins >= 4 and elapsed <= 900.0,
            f"penalty runs beat baselines on both diagonality metrics in {wins}/5 seed "
            f"pairs ({'; '.join(details)}) in {elapsed:.0f}s (runs summed "
            f"{summed_seconds:.0f}s)")


@pytest.mark.slow
def test_c08_latent_shrinkage(paired_runs):
    runs = paired_runs[0]
    penalty_gap = 0
    baseline_gap = 0
    counts = []
    for seed, penalty_run, baseline_run in runs:
        shrunk = {}
        for tag, run in (("P", penalty_run), ("B", baseline_run)):
            act = activeness_profile(run.generator, 6, n_base=32, n_sweep=12,
                                     seed=500 + seed)
            shrunk[tag] = int(np.sum(act < 0.1 * act.max()))
        penalty_gap += int(shrunk["P"] >= 2)
        baseline_gap += int(shrunk["B"] >= 2)
        counts.append(f"seed {seed}: P={shrunk['P']} B={shrunk['B']}")
    verdict(8, penalty_gap >= 4 and baseline_gap <= 1,
            f">=2 of 6 components deactivated in {penalty_gap}/5 penalty seeds and "
            f"{baseline_gap}/5 baseline seeds ({'; '.join(counts)})")


def test_c09_direction_identifiability():
    t0 = time.monotonic()
    fn = get_function("rotated-separable", dim=4, seed=11)
    recovered = 0
    worst_residual = 0.0
    scores = []
    for seed in SEEDS:
        matrix, log = discover_directions(fn, 4, steps=1500, seed=seed)
        residuals = [r["ortho_residual"] for r in log.records] + [matrix.ortho_residual()]
        worst_residual = max(worst_residual, max(residuals))
        overlap = np.abs(matrix.matrix.T @ fn.rotation)
        score = float(np.min(np.max(overlap, axis=0)))
        scores.append(score)
        recovered += int(score >= 0.9)
    elapsed = time.monotonic() - t0
    verdict(9, recovered >= 4 and worst_residual <= 1e-6 and elapsed <= 300.0,
            f"rotation recovered (per-column max |A^T R| >= 0.9) in {recovered}/5 seeds "
            f"(scores {np.round(scores, 3).tolist()}), orthonormality residual "
            f"{worst_residual:.1e}, in {elapsed:.0f}s")


def _strip_wall_clock(text: str) -> list:
    records = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("wall_clock", None)
        records.append(record)
    return records


def _snapshot(root: str) -> dict:
    snap = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if name.endswith(".jsonl"):
                with open(path, encoding="utf-8") as fh:
                    snap[rel] = ("jsonl", _strip_wall_clock(fh.read()))
            elif name.endswith(".npz"):
                with np.load(path) as data:  # zip container embeds timestamps
                    snap[rel] = ("npz", {k: data[k].tobytes() for k in data.files})
            else:
                with open(path, "rb") as fh:
                    snap[rel] = ("bytes", fh.read())
    return snap


def test_c10_cli_determinism(tmp_path):
    commands = [
        ["estimate", "--fn", "z1z2", "--seed", "7", "--repeat", "5000"],
        ["verify", "--dims", "2..6", "--trials", "8", "--mc-matrices", "1",
         "--mc-trials", "20000"],
        ["data", "--spec", "1fov", "--n", "4", "--seed", "3"],
        ["train", "--mode", "reconstruction", "--dataset", "2factor", "--latent-dim", "3",
         "--steps", "12", "--batch-size", "8", "--dataset-size", "64"],
        ["eval", "--fn", "rotated-separable", "--ppl-samples", "400", "--act-base", "8",
         "--act-sweep", "4", "--hess-samples", "2"],
        ["hessdump", "--fn", "separable-cubic", "--samples", "2"],
        ["directions", "--fn", "rotated-separable", "--steps", "15"],
    ]
    mismatches = []
    for argv in commands:
        snaps = []
        for attempt in ("a", "b"):
            out = str(tmp_path / f"{argv[0]}_{attempt}")
            assert main(argv + ["--out", out]) == 0, argv
            snaps.append(_snapshot(out))
        if snaps[0] != snaps[1]:
            mismatches.append(argv[0])
    verdict(10, not mismatches,
            "rerunning every CLI command reproduces byte-identical artifacts "
            f"(wall_clock aside); mismatches: {mismatches or 'none'}")
