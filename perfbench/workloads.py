"""The benchmark's three workloads, built from a seed through hesskit's public API.

Each workload fills three operation slots, so that every run reports the same
end-to-end metrics (``op1_ms`` .. ``op3_ms``); ``Workload.labels`` names what
a slot holds in each workload. Load is a closed loop with one caller: the next
operation starts when the previous one has returned.

* ``train``: blocks of reconstruction steps, GAN steps and
  ``discover_directions`` calls on the GAN's generator. Small batches, where
  interpreter overhead of the record and the 2k+1 penalty passes dominates.
* ``eval``: in-process ``hesskit eval`` and ``hesskit hessdump`` calls on a
  generator checkpoint, plus ``hesskit eval`` of an analytic function.
  Forward-only under ``no_grad``: no penalty, no backward.
* ``mc-estimate``: in-process ``hesskit estimate`` (single point and
  ``--repeat``) and ``hesskit verify``. The penalty on huge batches, forward
  only, no record.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import hesskit
from hesskit import cli, training
from hesskit.nets import Generator, save_checkpoint
from hesskit.penalty import PenaltyConfig, hessian_penalty_estimate
from hesskit.training import TrainConfig, Trainer

LATENT = 6
BATCH = 16
RECON_TAPS = ("norm1", "norm2", "output")
EPSILON = 0.1
K = 2
EXPORTED = 16


@dataclass(eq=False)
class Op:
    """One timed call; ``check`` runs untimed on its result and returns False on a wrong output."""

    slot: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    steps: int = 1
    out_dir: str | None = None


@dataclass
class Workload:
    """Ready-to-run state: the ops of one cycle, which the run repeats in order.

    ``labels`` names what each slot measures in this workload; ``rates`` maps
    a derived rate to (slot, units per call). ``warmup_failed`` counts the
    warm-up calls that raised or failed their check.
    """

    cycle: list[Op]
    labels: dict[str, str]
    final_checks: list[Callable[[], bool]] = field(default_factory=list)
    rates: dict[str, tuple[str, int]] = field(default_factory=dict)
    warmup_attempted: int = 0
    warmup_failed: int = 0


def _warmed_up(workload: Workload) -> Workload:
    """Run every distinct op once, so lazy set-up and first-call costs stay out of timing."""
    for op in dict.fromkeys(workload.cycle):
        try:
            ok = op.check(op.run())
        except Exception:  # counted, like a failed operation
            ok = False
        workload.warmup_attempted += 1
        workload.warmup_failed += not ok
    return workload


def _seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(6)]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# train


def recomputed_penalty(generator, z: np.ndarray, probes: np.ndarray, taps, epsilon: float) -> float:
    """The penalty recomputed in numpy from sequential no-grad forwards.

    Forwards z and z +- epsilon*v for each probe, takes the Bessel-corrected
    variance of the second differences over probes, the max over output
    components, the mean over rows and the mean over taps.
    """
    def forward(x):
        with hesskit.no_grad():
            out, named = generator(x)
        return {name: (out if name == "output" else named[name]).values for name in taps}

    center = forward(z)
    diffs = {name: [] for name in taps}
    for v in probes:
        plus, minus = forward(z + epsilon * v), forward(z - epsilon * v)
        for name in taps:
            diffs[name].append((plus[name] + minus[name] - 2.0 * center[name]) / epsilon**2)
    per_tap = [np.var(np.stack(diffs[name]), axis=0, ddof=1).max(axis=-1).mean() for name in taps]
    return float(np.mean(per_tap))


def build_train(seed: int, work: str, toy: bool) -> Workload:
    s = _seeds(seed)
    recon_cfg = TrainConfig(
        mode="reconstruction", dataset="simple-4factor", latent_dim=LATENT,
        batch_size=BATCH, dataset_size=64 if toy else 2048,
        penalty=PenaltyConfig(epsilon=EPSILON, k=K, reduction="max", taps=RECON_TAPS, seed=s[0]),
        seed=s[0],
    )
    recon = Trainer(recon_cfg)
    gan = Trainer(TrainConfig(mode="gan", dataset="simple-4factor", latent_dim=LATENT,
                              batch_size=BATCH, seed=s[1]), dataset=recon.dataset)
    data = recon.dataset
    batch_rng = np.random.default_rng(s[2])
    clock = itertools.count()
    direction_seeds = itertools.count(s[3])
    direction_steps = 2 if toy else 20

    def recon_step():
        return recon.reconstruction_step(batch_rng.integers(0, data.count, size=BATCH), next(clock))

    def gan_step():
        idx = batch_rng.integers(0, data.count, size=BATCH)
        return gan.gan_step(data.observations[idx], next(clock))

    def directions():
        # looked up on the module at call time, so a traced run sees the patched name
        return training.discover_directions(gan.generator, LATENT, direction_steps,
                                            seed=next(direction_seeds))

    def finite_step(record):
        return all(math.isfinite(v) for k, v in record.items() if k != "wall_clock")

    def orthonormal(result):
        matrix, log = result
        return matrix.ortho_residual() <= 1e-6 and bool(np.all(np.isfinite(log.values("penalty"))))

    check_rng = np.random.default_rng(s[4])
    z = check_rng.normal(size=(BATCH, LATENT))
    probes = check_rng.integers(0, 2, size=(K, BATCH, LATENT)) * 2.0 - 1.0

    def penalty_matches_numpy():
        config = PenaltyConfig(epsilon=EPSILON, k=K, reduction="max", taps=RECON_TAPS)
        got = hessian_penalty_estimate(recon.generator, z, config, probes=probes).value
        want = recomputed_penalty(recon.generator, z, probes, RECON_TAPS, EPSILON)
        return abs(got - want) <= 1e-9 * abs(want)

    ops = [Op("op1", recon_step, finite_step), Op("op2", gan_step, finite_step),
           Op("op3", directions, orthonormal, steps=direction_steps)]
    # the three phases run as short blocks in turn, so that each phase's
    # timings sample the whole run and not one stretch of the machine's load
    return _warmed_up(Workload(
        cycle=[ops[0]] * (4 if toy else 40) + [ops[1]] * (3 if toy else 30) + [ops[2]] * 3,
        labels={"op1": "recon_step_ms", "op2": "gan_step_ms", "op3": "direction_step_ms"},
        final_checks=[penalty_matches_numpy]))


# ---------------------------------------------------------------------------
# eval and mc-estimate share a generator checkpoint initialised from the seed


def _checkpoint(seed: int, work: str, toy: bool) -> str:
    gen = Generator(latent_dim=LATENT, output_dim=12 if toy else 768,
                    hidden_width=8 if toy else 64, hidden_layers=3, seed=seed)
    path = os.path.join(work, "generator.npz")
    save_checkpoint(gen, path)
    return path


def _analytic_hessians_match(out: str, fn_seed: int) -> bool:
    """Every exported heatmap CSV equals the analytic Hessian to 1e-6."""
    fn = hesskit.get_function("rotated-separable", seed=fn_seed)
    report = _json(os.path.join(out, "reports", "hessians.json"))
    exact = np.concatenate([fn.hessians(np.asarray(p)) for p in report["points"]])
    if len(report["index"]) != exact.shape[0]:
        return False
    for entry in report["index"]:
        with open(os.path.join(out, "heatmaps", entry["csv"]), encoding="utf-8") as fh:
            got = np.array([[float(x) for x in row] for row in csv.reader(fh)])
        want = exact[entry["component"]]
        if not np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want))):
            return False
    return True


def build_eval(seed: int, work: str, toy: bool) -> Workload:
    s = _seeds(seed)
    ckpt = _checkpoint(s[0], work, toy)
    out_a, out_e, out_h, out_x = (os.path.join(work, d) for d in (
        "eval-analytic", "eval", "hessdump", "hessdump-analytic"))
    sizes = ["--ppl-samples", "64", "--act-base", "4", "--act-sweep", "4",
             "--hess-samples", "2"] if toy else []
    analytic = ["eval", "--fn", "rotated-separable", "--fn-seed", str(s[1]),
                "--seed", str(s[2]), "--out", out_a] + sizes
    evaluate = ["eval", "--checkpoint", ckpt, "--seed", str(s[3]), "--out", out_e] + sizes
    # exporting all 1536 heatmaps (3072 files, 13 MB a call) made the call's
    # time swing between runs with the disk's write-back; every matrix is
    # still computed and ranked
    dump = ["hessdump", "--checkpoint", ckpt, "--samples", "1" if toy else "2",
            "--top", str(EXPORTED), "--seed", str(s[4]), "--out", out_h]
    components = (1 if toy else 2) * (12 if toy else 768)

    def same_metrics_as_first(out: str):
        first: list[bytes] = []

        def check(rc):
            data = _read(os.path.join(out, "reports", "metrics.json"))
            first.extend([] if first else [data])
            return rc == 0 and data == first[0]
        return check

    def dumped(rc):
        report = _json(os.path.join(out_h, "reports", "hessians.json"))
        return (rc == 0 and report["matrices"] == components
                and report["exported"] == min(EXPORTED, components))

    def analytic_hessians_match():
        rc = cli.main(["hessdump", "--fn", "rotated-separable", "--fn-seed", str(s[1]),
                       "--samples", "2", "--seed", str(s[5]), "--out", out_x])
        return rc == 0 and _analytic_hessians_match(out_x, s[1])

    op_a = Op("op1", lambda: cli.main(analytic), same_metrics_as_first(out_a), out_dir=out_a)
    op_e = Op("op2", lambda: cli.main(evaluate), same_metrics_as_first(out_e), out_dir=out_e)
    op_h = Op("op3", lambda: cli.main(dump), dumped, out_dir=out_h)
    return _warmed_up(Workload(
        cycle=[op_e] + [op_a] * 5 + [op_h] + [op_a] * 5,
        labels={"op1": "eval_analytic_call_ms", "op2": "eval_call_ms",
                "op3": "hessdump_call_ms"},
        final_checks=[analytic_hessians_match]))


def build_mc(seed: int, work: str, toy: bool) -> Workload:
    s = _seeds(seed)
    ckpt = _checkpoint(s[0], work, toy)
    z = np.random.default_rng(s[1]).normal(size=LATENT)
    point = ",".join(repr(float(x)) for x in z)
    repeat = 64 if toy else 8192
    out_s, out_v, out_r = (os.path.join(work, d) for d in ("estimate", "verify", "repeat"))
    single = ["estimate", "--checkpoint", ckpt, "--taps", "auto", f"--z={point}",
              "--seed", str(s[2]), "--out", out_s]
    verify = ["verify", "--out", out_v]
    repeated = ["estimate", "--checkpoint", ckpt, "--taps", "auto", f"--z={point}",
                "--repeat", str(repeat), "--seed", str(s[3]), "--out", out_r]
    if toy:
        verify += ["--dims", "2..4", "--trials", "6", "--mc-matrices", "2", "--mc-trials", "4000"]

    def estimated(out: str, rc: int, trials: int | None = None) -> bool:
        report = _json(os.path.join(out, "reports", "estimate.json"))
        return (rc == 0 and math.isfinite(report["value"]) and report["value"] >= 0.0
                and report.get("repeat", {}).get("trials") == trials)

    op_s = Op("op1", lambda: cli.main(single), lambda rc: estimated(out_s, rc), out_dir=out_s)
    op_v = Op("op2", lambda: cli.main(verify), lambda rc: rc == 0, out_dir=out_v)
    op_r = Op("op3", lambda: cli.main(repeated), lambda rc: estimated(out_r, rc, repeat),
              out_dir=out_r)
    return _warmed_up(Workload(
        cycle=[op_v] + [op_s] * 5 + [op_r] + [op_s] * 5,
        labels={"op1": "estimate_call_ms", "op2": "verify_call_ms",
                "op3": "estimate_repeat_call_ms"},
        rates={"mc_trials_per_s": ("op3", repeat)}))


BUILDERS = {"train": build_train, "eval": build_eval, "mc-estimate": build_mc}
