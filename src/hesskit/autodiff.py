"""Dense float64 tensors with reverse-mode differentiation.

The engine is deliberately small: a fresh computation record is built for
every evaluation (while gradients are enabled), and ``backward`` walks that
record in reverse topological order, accumulating in place (``+=``) into
``Parameter`` gradients, which an optimizer may hold as views of its own
buffer. The binary vjps return None for a parent that needs no gradient (a
constant, or a frozen parameter) instead of computing its product, so a
frozen network costs only the products that reach the trainable side.
The toolkit uses these primitives: 2-D matrix multiply, bias add,
elementwise arithmetic and scaling, tanh, the leaky rectifier with its
fixed 0.2 slope, softplus, square, sum / mean reductions, reshaping,
feature normalization and the penalty's probe-variance tail. Stacking and
the variance and max reductions have no caller in the package. They stay
only because the benchmark tracer patches them by name and the tests
check the probe-variance tail against the five-op chain it replaced; they
go with the next change to the benchmark (ROADMAP item 9).

Everything is float64; finite-difference losses divide second differences
by epsilon**2 and need the headroom. Any primitive that produces a
non-finite value raises :class:`NumericError` naming the op instead of
propagating NaNs. Feature normalization also raises when a row's mean
square is not finite (a square that overflows), since dividing by its
infinite root would zero the row; ``_rms`` is that check and formula,
shared with the generator's off-record forward. That forward calls no
primitive: it names its taps ``feature_normalize`` and its output ``add``,
and raises the same error for a block whose mean square is not finite,
or, for the head, names ``add`` where the recorded path names ``matmul``.

The recording switch of :func:`no_grad` is per thread; a single record
must stay confined to one thread.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, NumericError

_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable recording inside the block; evaluation runs off-record."""
    previous = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


class Tensor:
    """Immutable-by-convention wrapper around a float64 ndarray.

    Tensors created by primitives carry the op kind, their parents and a
    backward closure, which together form the computation record.
    """

    __slots__ = ("values", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("non-finite values in tensor construction")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{req})"

    # arithmetic sugar over the primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self, axis=None):
        return _reduce_sum(self, axis)

    def mean(self, axis=None):
        return _reduce_mean(self, axis)

    def var(self, axis=None, ddof: int = 1):
        return _reduce_var(self, axis, ddof)

    def max(self, axis=None):
        return _reduce_max(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)


class Parameter(Tensor):
    """Named leaf tensor with a persistent gradient accumulator.

    Gradients accumulate additively across backward calls until
    :meth:`zero_grad` resets them. Set ``requires_grad = False`` to freeze
    the parameter (its accumulator is then never touched). ``values`` and
    ``grad`` are only ever written in place, so they may be views into an
    optimizer's flat buffers; the constructor copies its input, so such a
    write never reaches the caller's array.
    """

    __slots__ = ("name", "grad")

    def __init__(self, name: str, values):
        super().__init__(np.array(values, dtype=np.float64), requires_grad=True)
        self.name = str(name)
        self.grad = np.zeros_like(self.values)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def assign(self, values) -> None:
        """Overwrite the value in place; shape must be preserved."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise ContractViolation(
                f"parameter {self.name!r}: assign shape {arr.shape} != {self.values.shape}"
            )
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite update for parameter {self.name!r}")
        self.values[...] = arr

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(kind: str, values: np.ndarray) -> Tensor:
    """An unrecorded tensor of op ``kind`` around ``values``, which the caller has checked."""
    out = Tensor.__new__(Tensor)
    out.values = values
    out.op = kind
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _make(kind: str, out_values: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Wrap a primitive result, recording it when gradients are enabled."""
    if not np.isfinite(out_values).all():
        raise NumericError(f"non-finite result in op {kind!r}")
    out = _result(kind, out_values)
    if grad_enabled():
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._vjp = True, parents, vjp
                break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape numpy broadcast it from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ts) in enumerate(zip(g.shape, shape)):
        if ts == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(kind: str, op, a, b) -> tuple[Tensor, Tensor, np.ndarray]:
    """Both operands as tensors and ``op`` of their values; a shape clash is a ContractViolation."""
    a, b = _coerce(a), _coerce(b)
    try:
        return a, b, op(a.values, b.values)
    except ValueError as exc:
        raise ContractViolation(f"{kind}: shapes {a.shape} and {b.shape} do not conform") from exc


def _matmul_2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or y.ndim != 2:
        raise ContractViolation(f"matmul: expects 2-D operands, got {x.shape} @ {y.shape}")
    return np.matmul(x, y)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b, out = _binary("add", np.add, a, b)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make("add", out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b, out = _binary("sub", np.subtract, a, b)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make("sub", out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b, out = _binary("mul", np.multiply, a, b)

    def vjp(g):
        return (_unbroadcast(g * b.values, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.values, b.shape) if b.requires_grad else None)

    return _make("mul", out, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    a = _coerce(a)
    if not np.isscalar(c) and not isinstance(c, (int, float)):
        raise ContractViolation("scale: factor must be a python scalar")
    c = float(c)
    if not np.isfinite(c):
        raise NumericError("scale: non-finite factor")
    return _make("scale", a.values * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b, out = _binary("matmul", _matmul_2d, a, b)

    def vjp(g):
        return (g @ b.values.T if a.requires_grad else None,
                a.values.T @ g if b.requires_grad else None)

    return _make("matmul", out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _coerce(a)
    if a.ndim != 2:
        raise ContractViolation(f"transpose: expects a matrix, got shape {a.shape}")
    return _make("transpose", np.ascontiguousarray(a.values.T), (a,),
                 lambda g: (np.ascontiguousarray(g.T),))


def tanh(a) -> Tensor:
    a = _coerce(a)
    out = np.tanh(a.values)
    return _make("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def leaky_relu(a) -> Tensor:
    """Identity for non-negative entries, slope 0.2 below zero."""
    a = _coerce(a)
    out = np.where(a.values >= 0.0, a.values, 0.2 * a.values)

    def vjp(g):
        return (g * np.where(a.values >= 0.0, 1.0, 0.2),)

    return _make("leaky_relu", out, (a,), vjp)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a) -> Tensor:
    a = _coerce(a)
    out = _softplus(a.values)

    def vjp(g):
        x = a.values
        sig = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        return (g * sig,)

    return _make("softplus", out, (a,), vjp)


def square(a) -> Tensor:
    a = _coerce(a)
    return _make("square", a.values * a.values, (a,), lambda g: (2.0 * a.values * g,))


def _expand(g: np.ndarray, axis, shape: tuple[int, ...]) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def _reduce_sum(a, axis) -> Tensor:
    a = _coerce(a)
    out = np.sum(a.values, axis=axis)
    return _make("sum", out, (a,), lambda g: (_expand(g, axis, a.shape),))


def _reduce_mean(a, axis) -> Tensor:
    a = _coerce(a)
    n = a.size if axis is None else a.shape[axis]
    if n == 0:
        raise ContractViolation("mean of an empty tensor")
    out = np.mean(a.values, axis=axis)
    return _make("mean", out, (a,), lambda g: (_expand(g, axis, a.shape) / n,))


def _reduce_var(a, axis, ddof: int) -> Tensor:
    a = _coerce(a)
    n = a.size if axis is None else a.shape[axis]
    if n <= ddof:
        raise ContractViolation(f"variance over {n} values with ddof={ddof}")
    out = np.var(a.values, axis=axis, ddof=ddof)

    def vjp(g):
        centered = a.values - np.mean(a.values, axis=axis, keepdims=axis is not None)
        return (_expand(g, axis, a.shape) * (2.0 / (n - ddof)) * centered,)

    return _make("var", out, (a,), vjp)


def _reduce_max(a, axis) -> Tensor:
    a = _coerce(a)
    if a.size == 0:
        raise ContractViolation("max of an empty tensor")
    out = np.max(a.values, axis=axis)

    def vjp(g):
        # gradient routed to the first maximal entry, matching np.argmax ties
        grad = np.zeros_like(a.values)
        if axis is None:
            grad.flat[np.argmax(a.values)] = g
        else:
            idx = np.expand_dims(np.argmax(a.values, axis=axis), axis)
            np.put_along_axis(grad, idx, np.expand_dims(g, axis), axis)
        return (grad,)

    return _make("max", out, (a,), vjp)


def _probe_variance(sums: np.ndarray, reduction: str, out: np.ndarray, keep: bool = False):
    """Probe variances of (k, b, m) ``sums`` into ``out``; returns their per-row max or mean:
    ``(sums - sums.mean(axis=0)).var(axis=0, ddof=1)`` bit for bit, as np.var's own steps
    in place on ``sums``; ``keep`` squares into scratch and leaves ``sums`` centred."""
    k = sums.shape[0]
    sums -= np.sum(sums, axis=0) / k
    sums -= np.sum(sums, axis=0) / k
    np.sum(np.square(sums, out=None if keep else sums), axis=0, out=out)
    if k > 2:  # a division by 1 is exact
        out /= k - 1
    if out.shape[-1] == 1:  # the max or mean of one component is that component: no copy
        reduced = out[:, 0]
    elif reduction == "max":  # faster than max over short rows
        reduced = out[np.arange(len(out)), out.argmax(axis=-1)]
    else:
        reduced = out.mean(axis=-1)
    if not np.isfinite(reduced).all():  # a NaN or inf variance reaches its row's max or mean
        raise NumericError("non-finite result in op 'probe_variance'")
    return reduced


def probe_variance(stencil, inv: float, reduction: str, out: np.ndarray) -> Tensor:
    """The penalty tail of one tap's (2, k, b, m) stencil rows as one op: the variances of
    ``stencil.sum(axis=0) * inv`` about their probe mean go to ``out``, reduced by ``max``
    or ``mean``. The mean is a constant, which keeps its rounding out of the gradient. The
    vjp repeats the five ops' vjps on its own sums and argmax."""
    sums = np.sum(stencil.values, axis=0) * inv
    keep = grad_enabled() and stencil.requires_grad
    reduced = _probe_variance(sums, reduction, out, keep)
    idx = np.argmax(out, axis=-1) if keep and reduction == "max" else None

    def vjp(g):
        if idx is None:
            gvar = _expand(g, -1, sums.shape[1:]) / sums.shape[-1]
        else:
            gvar = np.zeros(sums.shape[1:])
            np.put_along_axis(gvar, np.expand_dims(idx, -1), np.expand_dims(g, -1), -1)
        gsums = _expand(gvar, 0, sums.shape) * (2.0 / (sums.shape[0] - 1)) * sums
        return (_expand(gsums * inv, 0, stencil.shape),)

    return _make("probe_variance", reduced, (stencil,), vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    parts = tuple(_coerce(t) for t in tensors)
    if not parts:
        raise ContractViolation("stack of zero tensors")
    if any(p.shape != parts[0].shape for p in parts):
        raise ContractViolation("stack: all tensors must share one shape")
    out = np.stack([p.values for p in parts], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(parts)))

    return _make("stack", out, parts, vjp)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    try:
        out = np.reshape(a.values, shape)
    except ValueError as exc:
        raise ContractViolation(f"reshape: cannot view {a.shape} as {shape}") from exc
    return _make("reshape", out, (a,), lambda g: (np.reshape(g, a.shape),))


def _rms(x: np.ndarray) -> np.ndarray:
    """sqrt(mean_j(x_j**2) + 1e-8) of each row of ``x``, as a column. A mean square that
    is not finite, from a square that overflows, is a NumericError: a row divided by an
    infinite root would read as zeros. A finite one keeps ``x / _rms(x)`` finite."""
    r = np.mean(x * x, axis=-1, keepdims=True)
    if not np.isfinite(r).all():
        raise NumericError("non-finite result in op 'feature_normalize'")
    return np.sqrt(r + 1e-8)


def feature_normalize(a) -> Tensor:
    """Divide each row by the root mean square of its entries.

    Computes x / sqrt(mean_j(x_j**2) + 1e-8) along the last axis.
    """
    a = _coerce(a)
    if a.ndim < 1:
        raise ContractViolation("feature_normalize: scalar input")
    m = a.shape[-1]
    s = _rms(a.values)
    out = a.values / s

    def vjp(g):
        inner = np.sum(g * a.values, axis=-1, keepdims=True)
        return (g / s - a.values * inner / (m * s**3),)

    return _make("feature_normalize", out, (a,), vjp)


# ---------------------------------------------------------------------------
# record traversal and backward


def record(root: Tensor) -> list[Tensor]:
    """The computation record: op applications in topological order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack_ = [(root, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack_.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(parameter) into every reachable Parameter."""
    if not isinstance(loss, Tensor):
        raise ContractViolation("backward: loss must be a Tensor")
    if loss.values.shape != ():
        raise ContractViolation(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = record(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Parameter):
            node.grad += g
            continue
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradientCheckReport:
    """Per-parameter max relative error of analytic vs central-difference gradients."""

    step: float
    tolerance: float
    per_parameter: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_parameter.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(loss_fn, parameters, step: float, tolerance: float) -> GradientCheckReport:
    """Compare backward() gradients of ``loss_fn()`` against central finite differences.

    ``loss_fn`` must be a deterministic closure over ``parameters`` returning a
    scalar Tensor. Existing gradient accumulators are reset. An entry's error
    is its gap relative to the larger of the two gradients, floored at
    ``rounding / tolerance``: ``rounding = 16 eps |loss| / step`` bounds the
    rounding of the central difference itself, and a gap within it passes,
    since a gradient that is zero in exact arithmetic has a finite
    difference made of rounding only.
    """
    if step <= 0.0 or tolerance <= 0.0:
        raise ContractViolation("gradient_check: step and tolerance must be positive")
    params = list(parameters)
    report = GradientCheckReport(step=step, tolerance=tolerance)
    if not params:
        return report
    for p in params:
        if not np.isfinite(p.values).all():
            raise ContractViolation(f"gradient_check: parameter {p.name!r} is not finite")
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    rounding = 16.0 * np.finfo(np.float64).eps * abs(loss.item()) / step
    floor = max(1e-8, rounding / tolerance)
    analytic = {p.name: p.grad.copy() for p in params}
    with no_grad():
        for p in params:
            fd = np.zeros_like(p.values)
            for i in range(p.values.size):
                orig = p.values.flat[i]
                p.values.flat[i] = orig + step
                f_plus = loss_fn().item()
                p.values.flat[i] = orig - step
                f_minus = loss_fn().item()
                p.values.flat[i] = orig
                fd.flat[i] = (f_plus - f_minus) / (2.0 * step)
            a = analytic[p.name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), floor)
            report.per_parameter[p.name] = float(np.max(np.abs(a - fd) / denom))
    return report
