"""The benchmark tracer (perfbench/tracer.py) still finds every hesskit name it wraps.

The tracer patches functions and methods by name and fails on install when
one of them is gone, so a rename or deletion here would break traced
benchmark runs; this test catches that in well under a second.
"""

import importlib.util
import os
import sys

import numpy as np

import hesskit
import hesskit.cli  # noqa: F401  the tracer wraps cli.main; the package does not import it
from hesskit.metrics import PPLConfig
from hesskit.penalty import row_blocks

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("hesskit_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every hesskit module and class namespace, by identity of its values."""
    out = {}
    for name, module in sys.modules.items():
        if module is None or not (name == "hesskit" or name.startswith("hesskit.")):
            continue
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_install_patches_and_uninstall_restores():
    tracer = load_tracer_module().Tracer(hesskit)
    before = namespaces()
    try:
        tracer.install()  # fails here when a traced attribute is gone
        patched = list(tracer._patches)
        assert patched
        for holder, attr, original in patched:
            assert getattr(holder, attr) is not original
            assert getattr(holder, attr).__wrapped__ is original
        root = tracer.begin("op1", 0)
        hesskit.exact_hessian_fd(hesskit.get_function("z1z2"), np.zeros(2), 1e-3)
        tracer.finish(root)
        assert "oracle.hessian_sets_for" in {tracer.names[i] for i in tracer.name}
    finally:
        tracer.uninstall()
    for holder, attr, original in patched:
        assert getattr(holder, attr) is original
    after = namespaces()
    assert after.keys() == before.keys()
    for name, values in before.items():
        assert after[name].keys() == values.keys(), name
        for attr, value in values.items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_tracer_sees_every_off_record_generator_block_of_ppl():
    samples = 600  # 1,200 rows: one pair, then blocks of whole pairs
    blocks = list(row_blocks(samples, 2, lambda lo, hi: ((lo, hi), 768)))
    tracer = load_tracer_module().Tracer(hesskit)
    try:
        tracer.install()
        root = tracer.begin("op2", 0)
        result = hesskit.metrics.ppl(hesskit.Generator(seed=0), 6, PPLConfig(samples=samples))
        tracer.finish(root)
    finally:
        tracer.uninstall()
    assert result.skipped == 0
    sums = tracer.sums_per_op()[0]
    assert sums["nets.generator_calls"] == len(blocks) > 2
    assert sums["nets.generator_rows"] == 2 * samples
    assert sums["autodiff.primitive_calls"] == 0  # the kernel runs no primitive


def test_tracer_counts_the_activeness_calls_of_the_gram_path():
    generator = hesskit.Generator(seed=0)
    tracer = load_tracer_module().Tracer(hesskit)
    try:
        tracer.install()
        root = tracer.begin("op2", 0)
        hesskit.metrics.activeness_profile(generator, 6)
        hesskit.metrics.ppl(generator, 6, PPLConfig(samples=600))
        tracer.finish(root)
    finally:
        tracer.uninstall()
    sums = tracer.sums_per_op()[0]
    # one call per block of whole sweeps: 384 sweeps of 16 rows, 768 outputs wide
    sweeps = list(row_blocks(6 * 64, 16, lambda lo, hi: ((lo, hi), 768)))
    assert sums["metrics.activeness_calls"] == len(sweeps) == 40
    pairs = list(row_blocks(600, 2, lambda lo, hi: ((lo, hi), 768)))
    assert sums["nets.generator_calls"] == len(sweeps) + len(pairs)
