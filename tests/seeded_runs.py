"""Seeded training runs on both cores, for the slow tests.

A seeded run is deterministic and independent of every other run, so the slow
tests map :func:`train_one` over a ``spawn`` pool of ``min(2, os.cpu_count())``
processes instead of training in sequence. The children start with one BLAS
thread each, so two runs never oversubscribe two cores; ``spawn`` imports
numpy afresh instead of inheriting a BLAS that has already started its
threads. The parent's environment is restored once the pool is closed.
"""

import multiprocessing
import os
import time
from typing import NamedTuple

from hesskit.data import Dataset
from hesskit.nets import Generator
from hesskit.training import TrainConfig, train


class Run(NamedTuple):
    """What the slow tests read of a run: not its log."""

    generator: Generator
    dataset: Dataset
    seconds: float  # the run's own wall time in its process


def train_one(config: TrainConfig) -> Run:
    t0 = time.monotonic()
    result = train(config)
    return Run(result.generator, result.dataset, time.monotonic() - t0)


def train_all(configs) -> list[Run]:
    """``train_one`` of each config, in order, on a spawn pool of up to two processes."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
            return pool.map(train_one, configs, chunksize=1)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
