"""Digest every artifact of a fixed set of CLI calls, one sha256 per file.

Runs the ``hesskit`` commands below, each as its own process, into OUT_DIR
and prints ``<sha256>  <path>`` for every file they write, sorted by path.
Two trees give the same lists when their reports, logs and checkpoints are
byte-identical, so a refactor or a faster kernel is checked with one diff:

    python tools/artifacts.py /tmp/parent --src ../parent/src > parent.txt
    python tools/artifacts.py /tmp/change > change.txt
    diff parent.txt change.txt

What is hashed: ``log.jsonl`` records without their ``wall_clock`` field
(the only nondeterministic output), ``.npz`` files by their arrays' names,
dtypes, shapes and bytes (not the zip container), and every other file byte
for byte, with OUT_DIR's absolute path cut out of JSON text. The commands
run inside OUT_DIR with relative paths, so ``config.json`` holds none. JSON
and JSON-lines files are parsed strictly: a ``NaN`` or ``Infinity`` token,
which strict parsers reject, exits 1 and names the file.

A digest depends on the BLAS build and the CPU's kernels, so compare two
trees on one machine, never against a stored list. ``--blas-threads`` sets
the BLAS thread count of the child processes (unset: inherit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

CKPT = "train-rec/checkpoints/generator.npz"
POINT = "--z=0.3,-0.2,0.1,0.5,-0.4,0.2"
MC = ["--dims", "2..6", "--trials", "10", "--mc-dim", "3", "--eps", "0.05"]

# (output directory, arguments); later calls read the checkpoint of the first
CALLS = [
    ("train-rec", ["train", "--mode", "reconstruction", "--steps", "120",
                   "--penalty-weight", "0.1", "--taps", "norm1,norm2,output"]),
    ("train-gan", ["train", "--mode", "gan", "--steps", "80"]),
    ("train-baseline", ["train", "--mode", "baseline", "--steps", "60"]),
    ("train-resume", ["train", "--mode", "reconstruction", "--steps", "40", "--resume", CKPT,
                      "--k", "3", "--reduction", "mean"]),
    ("estimate-point", ["estimate", "--checkpoint", CKPT, "--taps", "auto", POINT]),
    ("estimate-repeat", ["estimate", "--checkpoint", CKPT, "--taps", "auto", POINT,
                         "--repeat", "8192"]),
    ("estimate-repeat-mean", ["estimate", "--checkpoint", CKPT, "--taps", "norm1,output",
                              "--k", "3", "--reduction", "mean", "--repeat", "5000"]),
    ("estimate-rotated", ["estimate", "--fn", "rotated-separable", "--repeat", "9000"]),
    ("estimate-beta", ["estimate", "--fn", "beta-cubic", "--beta", "3", "--repeat", "100"]),
    ("verify-default", ["verify"]),
    ("verify-mc-50000", ["verify", *MC, "--mc-trials", "50000"]),
    ("verify-mc-50001", ["verify", *MC, "--mc-trials", "50001"]),
    ("directions-ckpt", ["directions", "--checkpoint", CKPT, "--steps", "200"]),
    ("directions-rotated", ["directions", "--fn", "rotated-separable", "--steps", "200"]),
    ("eval-ckpt", ["eval", "--checkpoint", CKPT]),
    ("eval-beta", ["eval", "--fn", "beta-cubic"]),
    ("hessdump", ["hessdump", "--checkpoint", CKPT, "--samples", "2", "--top", "4"]),
    ("data", ["data"]),
]


def _drop_wall_clock(value):
    if isinstance(value, dict):
        return {k: _drop_wall_clock(v) for k, v in value.items() if k != "wall_clock"}
    if isinstance(value, list):
        return [_drop_wall_clock(v) for v in value]
    return value


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _strict_json(text):
    """Parsed JSON text; a NaN, Infinity or -Infinity token is a ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def digest(path: str, root: str) -> str:
    """sha256 of one artifact, as the module docstring describes; a ValueError for
    JSON text with a non-finite token, which strict parsers reject."""
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as arrays:
            for name in sorted(arrays.files):
                a = arrays[name]
                h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    elif path.endswith(".jsonl"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = _drop_wall_clock(_strict_json(line))
                h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".json"):
            _strict_json(data)
            data = data.replace(os.path.abspath(root).encode(), b"")
        h.update(data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="empty or new directory for the artifacts")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="the tree's src directory to run (default: this tree's)")
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="OPENBLAS/OMP/MKL thread count of the CLI processes")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    if args.blas_threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(args.blas_threads)
    start = time.perf_counter()
    for out, call in CALLS:
        done = subprocess.run([sys.executable, "-m", "hesskit", *call, "--out", out],
                              cwd=args.out, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{out}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
    elapsed = time.perf_counter() - start
    paths = sorted(os.path.relpath(os.path.join(d, f), args.out)
                   for d, _, files in os.walk(args.out) for f in files)
    digests = []
    for path in paths:
        try:
            digests.append(digest(os.path.join(args.out, path), args.out))
        except ValueError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
    for path, sha in zip(paths, digests):
        print(f"{sha}  {path}")
    print(f"{len(paths)} artifacts of {len(CALLS)} calls in {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
