"""Span tracing of hesskit's layers from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span (name, start, end, parent span, operation id) and puts the
originals back on ``uninstall``. A function is patched in every hesskit
namespace that holds it, so names imported with ``from x import y`` (for
example ``training.hessian_penalty_estimate`` or ``oracle.evaluate_with_taps``)
are traced too. Spans stay in memory; ``per_layer`` turns them into per-step
metrics after the run and ``write_csv`` dumps them at the end.

The workloads run single-threaded (``--threads`` keeps its default of 1), so
one span stack is enough.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

SLOTS = ("op1", "op2", "op3")
LAYERS = ("autodiff", "penalty", "nets", "training", "oracle", "metrics", "functions",
          "data", "cli")

ELEMENTWISE = ("add", "sub", "mul", "scale", "tanh", "leaky_relu", "softplus", "square")
REDUCE = ("sum", "mean", "var", "max")
SHAPE = ("transpose", "stack", "reshape")
# span name -> module attribute, for autodiff primitives and Tensor reductions
PRIMITIVES = {**{k: k for k in ELEMENTWISE + SHAPE},
              **{k: f"_reduce_{k}" for k in REDUCE},
              "matmul": "matmul", "feature_normalize": "feature_normalize"}

# per-layer metrics reported for every operation slot, in output order
SLOT_METRICS = (
    ("autodiff.backward_ms", "ms"), ("autodiff.record_ms", "ms"),
    ("autodiff.ops_recorded", "count"), ("autodiff.primitive_calls", "count"),
    ("autodiff.primitive_ms", "ms"), ("autodiff.matmul_ms", "ms"),
    ("autodiff.feature_normalize_ms", "ms"), ("autodiff.elementwise_ms", "ms"),
    ("autodiff.reduce_ms", "ms"), ("autodiff.matmul_mflop", "MFLOP"),
    ("autodiff.matmul_share", "ratio"),
    ("penalty.estimate_ms", "ms"), ("penalty.self_ms", "ms"),
    ("penalty.fn_evals_per_call", "count"), ("penalty.rows_per_probe", "ratio"),
    ("nets.generator_calls", "count"), ("nets.generator_rows", "count"),
    ("nets.generator_ms", "ms"), ("nets.discriminator_ms", "ms"),
    ("nets.load_checkpoint_ms", "ms"),
    ("training.adam_step_ms", "ms"), ("training.step_self_ms", "ms"),
    ("training.gram_schmidt_ms", "ms"),
    ("oracle.hessian_sets_ms", "ms"), ("oracle.stencil_rows", "count"),
    ("oracle.diagonality_ms", "ms"), ("oracle.export_heatmaps_ms", "ms"),
    ("oracle.heatmap_bytes", "bytes"), ("oracle.enumerate_variance_ms", "ms"),
    ("metrics.activeness_profile_ms", "ms"), ("metrics.activeness_calls", "count"),
    ("metrics.ppl_ms", "ms"),
    ("functions.calls", "count"), ("functions.rows", "count"), ("functions.forward_ms", "ms"),
    ("cli.self_ms", "ms"), ("cli.bytes_written", "bytes"),
    ("trace.overhead", "ratio"), ("trace.span_coverage", "ratio"),
)
# deterministic counters: they must repeat exactly across runs of one seed
COUNTERS = tuple(name for name, unit in SLOT_METRICS if unit in ("count", "bytes", "MFLOP")) \
    + ("penalty.rows_per_probe",)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


def _matmul_flop(args, out) -> int:
    a = args[0]
    inner = getattr(a, "shape", None) or (len(a),)
    return 2 * int(out.values.size) * int(inner[-1])


def _record_ops(args, out) -> int:
    return sum(1 for node in out if node.op != "leaf")


def _arg_rows(args, out) -> int:
    """Rows of the batch argument of ``evaluate_with_taps(fn, z)`` or ``net(z)``."""
    return _rows(args[1])


def _penalty_probes(args, out) -> int:
    z, config = args[1], args[2]
    return int(config.k) * _rows(getattr(z, "values", z))


class Tracer:
    """In-memory span recorder that patches hesskit's public functions.

    Spans live in parallel arrays indexed by span id: a list per span would
    be tracked by the garbage collector, whose full passes then slow the
    traced program more and more as the trace grows.
    """

    def __init__(self, hesskit):
        self.hk = hesskit
        self.names: list[str] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.info = array("q")
        self.current = -1
        self.current_op = -1
        self.errors: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.current_op)
        self.info.append(0)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def begin(self, slot: str, op: int) -> int:
        """Open the root span of one benchmark operation."""
        self.current, self.current_op = -1, op
        return self._open(self._name_id(slot))

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current, self.current_op = -1, -1

    def _wrap(self, name: str, fn, info=None):
        tracer, name_id = self, self._name_id(name)
        layer = name.split(".", 1)[0]
        clock, open_, ends, infos = time.perf_counter, self._open, self.end, self.info

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if info is not None:
                infos[idx] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _targets(self):
        hk = self.hk
        ad, pen, nets, tr = hk.autodiff, hk.penalty, hk.nets, hk.training
        orc, met, fns, data, cli = hk.oracle, hk.metrics, hk.functions, hk.data, hk.cli
        for span, attr in PRIMITIVES.items():
            yield ad, attr, f"autodiff.{span}", _matmul_flop if span == "matmul" else None
        yield ad, "backward", "autodiff.backward", None
        yield ad, "record", "autodiff.record", _record_ops
        yield pen, "hessian_penalty_estimate", "penalty.estimate", _penalty_probes
        yield pen, "evaluate_with_taps", "penalty.evaluate_with_taps", _arg_rows
        yield nets.Generator, "__call__", "nets.generator", _arg_rows
        yield nets.Discriminator, "__call__", "nets.discriminator", None
        yield nets, "load_checkpoint", "nets.load_checkpoint", None
        yield tr.Adam, "step", "training.adam_step", None
        yield tr, "gram_schmidt", "training.gram_schmidt", None
        yield tr.Trainer, "reconstruction_step", "training.step", None
        yield tr.Trainer, "gan_step", "training.step", None
        yield tr, "discover_directions", "training.step", None
        for attr in ("exact_hessian_fd", "hessian_sets_for", "enumerate_variance",
                     "diagonality_metrics", "export_hessian_heatmaps"):
            yield orc, attr, f"oracle.{attr}", None
        for attr in ("activeness_profile", "activeness", "ppl"):
            yield met, attr, f"metrics.{attr}", None
        # ScaledCubic delegates to SeparablePolynomial, which is traced
        for cls in (fns.QuadraticForm, fns.SeparablePolynomial, fns.RotatedSeparable):
            yield cls, "__call__", "functions.forward", _arg_rows
        yield data, "sample_dataset", "data.sample_dataset", None
        yield cli, "main", "cli.main", None

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hesskit" or name.startswith("hesskit."))]
        for owner, attr, span, info in self._targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(span, original, info)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def _spans(self):
        return zip(self.name, self.start, self.end, self.parent, self.op, self.info)

    def sums_per_op(self) -> dict[int, Counter]:
        """Raw sums per operation id: seconds, counts, and the root's duration."""
        names, parents = self.names, self.parent
        child = [0.0] * len(self.start)
        depth = [0] * len(self.start)
        for i, (_n, start, end, parent, _op, _info) in enumerate(self._spans()):
            if parent >= 0:
                child[parent] += end - start
                depth[i] = depth[parent] + 1

        def enclosing(i: int, prefix: str) -> bool:
            p = parents[i]
            while p >= 0:
                if names[self.name[p]].startswith(prefix):
                    return True
                p = parents[p]
            return False

        per_op: dict[int, Counter] = {}
        for i, (name_id, start, end, parent, op, info) in enumerate(self._spans()):
            if op < 0:
                continue
            a = per_op.setdefault(op, Counter())
            dur = end - start
            own = dur - child[i]
            if parent < 0:
                a["op_s"] += dur
                continue
            if depth[i] == 2:
                a["covered_s"] += dur
            layer, kind = names[name_id].split(".", 1)
            if layer == "autodiff":
                if kind == "backward":
                    a["autodiff.backward_ms"] += dur
                elif kind == "record":
                    a["autodiff.record_ms"] += dur
                    a["autodiff.ops_recorded"] += info
                else:
                    a["autodiff.primitive_calls"] += 1
                    a["autodiff.primitive_ms"] += own
                    if kind == "matmul":
                        a["autodiff.matmul_ms"] += own
                        a["flop"] += info
                    elif kind == "feature_normalize":
                        a["autodiff.feature_normalize_ms"] += own
                    elif kind in ELEMENTWISE:
                        a["autodiff.elementwise_ms"] += own
                    elif kind in REDUCE:
                        a["autodiff.reduce_ms"] += own
            elif layer == "penalty":
                a["penalty.self_ms"] += own
                if kind == "estimate":
                    a["penalty.estimate_ms"] += dur
                    a["penalty_calls"] += 1
                    a["probes"] += info
                elif enclosing(i, "penalty.estimate"):
                    a["penalty_evals"] += 1
                    a["penalty_rows"] += info
                elif enclosing(i, "metrics.activeness_profile"):
                    a["metrics.activeness_calls"] += 1
                elif enclosing(i, "oracle.exact_hessian_fd"):
                    a["oracle.stencil_rows"] += info
            elif layer == "nets":
                if kind == "generator":
                    a["nets.generator_calls"] += 1
                    a["nets.generator_rows"] += info
                a[f"nets.{kind}_ms"] += dur
            elif layer == "training":
                if kind == "step":
                    a["training.step_self_ms"] += own
                else:
                    a[f"training.{kind}_ms"] += dur
            elif layer == "oracle":
                short = {"hessian_sets_for": "hessian_sets", "diagonality_metrics": "diagonality",
                         "export_hessian_heatmaps": "export_heatmaps"}.get(kind, kind)
                if kind != "exact_hessian_fd":
                    a[f"oracle.{short}_ms"] += dur
            elif layer == "metrics":
                if kind != "activeness":
                    a[f"metrics.{kind}_ms"] += dur
            elif layer == "functions":
                a["functions.calls"] += 1
                a["functions.rows"] += info
                a["functions.forward_ms"] += dur
            elif layer == "cli":
                a["cli.self_ms"] += own
        return per_op

    @staticmethod
    def per_layer(ops: dict[int, tuple[str, int, dict]],
                  per_op: dict[int, Counter]) -> dict[str, dict[str, float]]:
        """Per-slot layer metrics, each divided by the slot's step count.

        ``ops`` maps an operation id to (slot, steps in that operation, counts
        the benchmark measured itself around it, such as bytes written);
        ``per_op`` is ``sums_per_op()``.
        """
        out: dict[str, dict[str, float]] = {}
        for slot in dict.fromkeys(s for s, _n, _e in ops.values()):
            slot_ops = [op for op, (s, _n, _e) in ops.items() if s == slot]
            steps = sum(ops[op][1] for op in slot_ops)
            a = Counter()
            for op in slot_ops:
                a.update(per_op.get(op, {}))
                a.update(ops[op][2])
            m = {}
            for name, unit in SLOT_METRICS:
                value = a.get(name, 0)
                m[name] = value * 1e3 / steps if unit == "ms" else value / steps
            m["autodiff.matmul_mflop"] = a.get("flop", 0) / steps / 1e6
            m["autodiff.matmul_share"] = a["autodiff.matmul_ms"] / a["op_s"] if a["op_s"] else 0.0
            calls = a.get("penalty_calls", 0)
            m["penalty.fn_evals_per_call"] = a.get("penalty_evals", 0) / calls if calls else 0.0
            probes = a.get("probes", 0)
            m["penalty.rows_per_probe"] = a.get("penalty_rows", 0) / probes if probes else 0.0
            shares = sorted(per_op[op]["covered_s"] / per_op[op]["op_s"]
                            for op in slot_ops if per_op.get(op, {}).get("op_s"))
            m["trace.span_coverage"] = shares[len(shares) // 2] if shares else 0.0
            out[slot] = m
        return out

    def setup_ms(self, name: str, setups: int) -> float:
        """Inclusive time of spans named ``name`` outside any operation, per set-up."""
        if name not in self.names:
            return 0.0
        wanted = self.names.index(name)
        total = sum(end - start for n, start, end, _p, op, _i in self._spans()
                    if n == wanted and op < 0)
        return total * 1e3 / setups if setups else 0.0

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op, _info) in enumerate(self._spans()):
                fh.write(f"{i},{self.names[name]},{start:.9f},{end:.9f},{parent},{op}\n")
