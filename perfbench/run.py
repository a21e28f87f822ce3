#!/usr/bin/env python3
"""hesskit benchmark: one workload, one closed-loop caller, one result line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the workload for ``--seconds``
with tracing off and reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced cycles of the workload with traced cycles of two fresh
set-ups from the same seed (half the time untraced, a quarter each traced)
and reports the per-layer metrics; the two traced set-ups' counters must
agree exactly. The last line of standard output
is the JSON result; the lines before it are a readable report and a metadata
line. Exit status is 0 when the run completed (even with failed operations,
which the result counts) and non-zero when it could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACE_DIR = ".perfbench-out"


def _limit_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the usable core count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"]), nproc


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _s, files in os.walk(path) for f in files)


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": "unknown"}


class Runner:
    """Drives one workload in a closed loop and collects timings and failures."""

    def __init__(self, build, seed: int, work: str, toy: bool):
        self.build = build
        self.seed = seed
        self.work = work
        self.toy = toy
        self.attempted = 0
        self.failed = 0
        self._op_ids = itertools.count()

    def setup(self):
        workload = self.build(self.seed, self.work, self.toy)
        self.attempted += workload.warmup_attempted
        self.failed += workload.warmup_failed
        return workload

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def measure(self, lanes, seconds: float) -> dict[str, dict[str, list[float]]]:
        """Per-step milliseconds of each lane's and slot's operations.

        ``lanes`` is a list of (label, workload, tracer or None, ops or None).
        One whole cycle of each lane runs in turn, for at least one round and
        then until ``seconds`` have passed, so that lanes share the machine's
        conditions. A traced lane has the tracer installed for its cycle,
        each operation is a root span, and ``ops`` receives (slot, steps,
        counts measured around the call). Failures are counted apart.
        """
        samples: dict[str, dict[str, list[float]]] = {}
        deadline = time.perf_counter() + seconds
        for round_ in itertools.count():
            for label, workload, tr, ops in lanes:
                if round_ and time.perf_counter() >= deadline:
                    return samples
                if tr:
                    tr.install()
                try:
                    for op in workload.cycle:
                        self._run(op, tr, ops, samples.setdefault(label, {}))
                finally:
                    if tr:
                        tr.uninstall()

    def _run(self, op, tr, ops, samples) -> None:
        op_id = next(self._op_ids)
        root = tr.begin(op.slot, op_id) if tr else -1
        start = time.perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception:  # a failed operation is counted, not fatal
            raised = True
        elapsed = time.perf_counter() - start
        if tr:
            tr.finish(root)
        self.count(not raised and self._check(op.check, result))
        samples.setdefault(op.slot, []).append(elapsed * 1e3 / op.steps)
        if ops is not None:
            written = {}
            if op.out_dir:
                written = {"cli.bytes_written": _tree_bytes(op.out_dir),
                           "oracle.heatmap_bytes":
                               _tree_bytes(os.path.join(op.out_dir, "heatmaps"))}
            ops[op_id] = (op.slot, op.steps, written)

    @staticmethod
    def _check(check, *args) -> bool:
        try:
            return bool(check(*args))
        except Exception:  # a check that cannot read the output fails it
            return False

    def final_checks(self, workload) -> None:
        for check in workload.final_checks:
            self.count(self._check(check))


def _medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {slot: statistics.median(xs) for slot, xs in samples.items()}


def _end_to_end(samples, setup_s: float, workload, notes) -> tuple[dict, dict]:
    metrics = {
        "op1_ms": (statistics.median(samples["op1"]), "ms"),
        "op1_p90_ms": (_p90(samples["op1"]), "ms"),
        "op2_ms": (statistics.median(samples["op2"]), "ms"),
        "op3_ms": (statistics.median(samples["op3"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    counts = {name: len(samples[name.split("_", 1)[0]]) for name in metrics if name[:2] == "op"}
    counts["setup_s"] = SETUP_REPEATS
    counts["op2_p90_ms"] = len(samples["op2"])
    shown = f"op2_p90_ms [{_label('op2_p90_ms', workload.labels)}], report only"
    notes.append(f"  {shown:<72} {_p90(samples['op2']):>14.6g} ms  (n={len(samples['op2'])})")
    for name, (slot, per_call) in workload.rates.items():
        shown = f"{name} [{per_call} / {slot}_ms]"
        notes.append(f"  {shown:<72} {per_call * 1e3 / metrics[slot + '_ms'][0]:>14.6g} 1/s")
    return metrics, counts


def _traced(runner, workload, tr, args, notes) -> tuple[dict, dict]:
    """Untraced cycles of ``workload`` alternate with traced cycles of two fresh
    set-ups from the same seed; per-layer metrics and their sample counts."""
    passes = [{}, {}]
    tr.install()
    try:
        fresh = [runner.setup(), runner.setup()]
    finally:
        tr.uninstall()
    lanes = [("untraced", workload, None, None), ("traced", fresh[0], tr, passes[0]),
             ("untraced", workload, None, None), ("traced", fresh[1], tr, passes[1])]
    samples = runner.measure(lanes, args.seconds)
    untraced_samples, traced_samples = samples["untraced"], samples.get("traced", {})
    runner.final_checks(workload)
    per_op = tr.sums_per_op()
    layers = tr.per_layer({**passes[0], **passes[1]}, per_op)
    first, second = tr.per_layer(passes[0], per_op), tr.per_layer(passes[1], per_op)
    repeated = set(first) == set(second) and all(
        first[slot][name] == second[slot][name] for slot in first for name in tracer.COUNTERS)
    runner.count(repeated)
    notes.append("  counters (ops, rows, calls, bytes, computed MFLOP) are counts, not speed-ups;"
                 f" equal in both traced passes: {'yes' if repeated else 'NO'}")
    out_dir = ROOT / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    tr.write_csv(str(out_dir / f"trace-{args.workload}.csv"))

    traced, untraced = _medians(traced_samples), _medians(untraced_samples)
    metrics = {}
    for slot in tracer.SLOTS:
        values = layers.get(slot, {})
        if slot in traced and slot in untraced:
            values["trace.overhead"] = traced[slot] / untraced[slot] - 1.0
        for name, unit in tracer.SLOT_METRICS:
            metrics[f"{slot}.{name}"] = (values.get(name, 0.0), unit)
    metrics["data.sample_dataset_ms"] = (tr.setup_ms("data.sample_dataset", 2), "ms")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = (tr.errors.get(layer, 0), "count")
    counts = {f"traced.{slot}": len(xs) for slot, xs in traced_samples.items()}
    counts.update({f"untraced.{slot}": len(xs) for slot, xs in untraced_samples.items()})
    return metrics, counts


def _label(name: str, labels: dict[str, str]) -> str:
    """What a slot metric measures in this workload, e.g. op1_p90_ms -> recon_step_p90_ms."""
    slot, sep, rest = name.partition(".")
    if sep:
        return f"{labels[slot].removesuffix('_ms')}.{rest}" if slot in labels else ""
    slot, _, rest = name.partition("_")
    if slot not in labels:
        return ""
    return labels[slot].replace("_ms", "_p90_ms") if rest == "p90_ms" else labels[slot]


def _report(args, workload, metrics, counts, runner, notes) -> list[str]:
    labels = workload.labels
    lines = [f"hesskit benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, tracing {'on' if args.trace else 'off'}"]
    for name, (value, unit) in metrics.items():
        label = _label(name, labels)
        shown = f"{name} [{label}]" if label else name
        n = f"  (n={counts[name]})" if name in counts else ""
        lines.append(f"  {shown:<72} {value:>14.6g} {unit}{n}")
    lines.extend(notes)
    lines.append(f"  ops_failed_ratio: {runner.failed} failed of {runner.attempted} attempted "
                 f"= {runner.failed / runner.attempted:.6g}")
    return lines


def run(args) -> int:
    threads, nproc = _limit_blas_threads()
    if not (ROOT / "src" / "hesskit" / "__init__.py").is_file():
        print(f"error: no hesskit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import hesskit
    import hesskit.cli  # noqa: F401  (part of what a user's first call imports)
    import_s = time.perf_counter() - start
    import numpy as np

    import workloads

    notes: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as work, \
            contextlib.redirect_stdout(io.StringIO()):
        runner = Runner(workloads.BUILDERS[args.workload], args.seed, work, args.toy)
        setups = []
        for _ in range(1 if args.toy or args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = runner.setup()
            setups.append(time.perf_counter() - t0)
        if args.trace:
            metrics, counts = _traced(runner, workload, tracer.Tracer(hesskit), args, notes)
        else:
            samples = runner.measure([("untraced", workload, None, None)], args.seconds)
            runner.final_checks(workload)
            metrics, counts = _end_to_end(samples["untraced"], import_s + statistics.median(setups),
                                          workload, notes)

    metadata = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_info(np), "blas_threads": threads,
        "git_commit": _git_commit(), "samples": counts,
        "labels": workload.labels,
    }
    for line in _report(args, workload, metrics, counts, runner, notes):
        print(line)
    print(json.dumps({"metadata": metadata}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "mc-estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except Exception:  # no result line: report and fail the run
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
