"""Stochastic estimator of the squared off-diagonal Hessian mass.

For a function G and point z, the second directional derivative v^T H v
along a Rademacher probe v is approximated with a central second
difference, and the Bessel-corrected variance of that quantity over k
independent probes is an unbiased estimate of twice the sum of squared
off-diagonal Hessian entries (see ``oracle.enumerate_variance`` for the
exhaustive check). Diagonal curvature contributes a probe-independent
offset and cancels out of the variance, which is what makes the penalty
blind to separable structure.

The centre value G(z) cancels the same way: it adds the same -2 G(z)/e^2
to every probe's second difference, so the variance only needs the sums
G(z+ev) + G(z-ev). The estimator therefore evaluates no centre point: all
2k perturbed copies of a batch are stacked into one (2kB, n) batch and
``fn`` runs once per estimate.

Two things bound the cost of that call. A function with named taps (a
``Generator``) is told which taps the penalty reads and stops after the
deepest of them, so a penalty on ``norm1,norm2`` runs neither the last
hidden layer nor the output head. And ``row_blocks``, the one rule that
sizes every stacked forward of the toolkit, runs a batch of more than
``_WHOLE_ROWS`` stacked rows (never a training step) in blocks whose
widest array holds at most ``_BLOCK_VALUES`` float64 values, so an
off-record caller (``estimate``, ``verify``) holds one block's activations
at a time. Probe bits are the top bits of raw PCG64 words (``_top_bits``: the
values and stream of the default int64 draw, without numpy's per-value loop),
drawn for the whole batch at once, and each block turns only its own into
signs. A row's results do not depend on blocking where BLAS rounds a row the
same for any row count (not so for some narrow products, nor for a one-row
call). Otherwise a row's entries agree within
2.4e-14 of its largest entry and the value within 2e-16 relative, as measured;
a single entry whose variance nearly cancels can differ by 5.9e-11 relative.
Off the record, a call whose rows all repeat one point (a stride-0 batch does
without a look at its rows) and that draws more probes than the 2^n sign vectors
tabulates the stencil sums of each sign vector once, in row blocks, and each draw
reads its row of that (2^n, m) table. There the bits are streamed a chunk at a time
into each draw's int32 code (``_draw_codes``), so the (k, N, n) bits are never held;
the draws, blocks and tail are those of the full path (a recorded call keeps one path
to the parameters per draw).
Each block's tail is one kernel per tap (``autodiff.probe_variance``, one recorded
op) that writes its variances into ``per_component``, allocated once per call.

The estimate is assembled from differentiable primitives end to end, so
it can be used directly as a training loss. Conventions:

* the reported scalar is the raw probe variance; its expectation is
  ``2 * exact_offdiag_penalty(H)``, and ``PenaltyValue.offdiag_estimate``
  exposes the halved value for callers who want the off-diagonal sum
  itself (the factor is otherwise absorbed into the loss weight);
* vector-valued functions are handled per output component, then reduced
  with ``max`` or ``mean`` across components;
* when several activation taps are configured, probes are shared across
  taps within one call (all tap readings come from the same perturbed
  passes) and per-tap penalties are averaged;
* a batch of latents uses independent probes per row, and the scalar is
  the mean over rows, matching an expectation over the latent prior.

Estimation is pure given (function, z, probes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, NumericError

REDUCTIONS = ("max", "mean")
# a stacked forward of at most _WHOLE_ROWS rows is one call; a larger one runs in blocks
# whose widest array holds at most _BLOCK_VALUES float64 values (1 MiB)
_WHOLE_ROWS = 1024
_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class PenaltyConfig:
    """Estimator settings: step, probe count, reduction, taps and seed.

    ``taps`` names the activations the penalty is applied to; the reserved
    name "output" is the function's output itself and may be mixed with
    named taps. An empty selection is stored as ``("output",)``. ``k >= 2``
    because the sample variance is undefined below that.
    """

    epsilon: float = 0.1
    k: int = 2
    reduction: str = "max"
    taps: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not float(self.k).is_integer() or self.k < 2:
            raise ContractViolation(f"probe count k must be an integer >= 2, got {self.k}")
        if self.reduction not in REDUCTIONS:
            raise ContractViolation(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if len(set(self.taps)) != len(self.taps):  # a repeated tap would count twice
            raise ContractViolation(f"taps must be distinct, got {', '.join(self.taps)}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "taps", tuple(self.taps) or ("output",))


@dataclass
class PenaltyValue:
    """Estimator output: differentiable scalar plus pre-reduction detail.

    ``per_component`` maps tap name (or "output") to the (B, m) probe
    variances before reduction (empty for a call with ``components`` false);
    ``per_sample`` holds the per-row reduced values averaged over taps, so a
    batched call doubles as a set of independent trials.
    """

    scalar: ad.Tensor
    per_component: dict[str, np.ndarray]
    per_sample: np.ndarray

    @property
    def value(self) -> float:
        return self.scalar.item()

    @property
    def offdiag_estimate(self) -> float:
        """Unbiased estimate of the off-diagonal squared sum itself (value / 2)."""
        return 0.5 * self.value


def _check_epsilon(epsilon: float) -> None:
    """Reject a step the second difference cannot be scaled by in float64.

    The differences are multiplied by 1/e^2, so e^2 must neither underflow
    to zero nor be so small that its reciprocal overflows.
    """
    if not 0.0 < epsilon < np.inf:
        raise ContractViolation(f"epsilon must be positive and finite, got {epsilon}")
    square = epsilon * epsilon
    if square == 0.0 or not np.isfinite(1.0 / square):
        raise ContractViolation(f"epsilon {epsilon} is too small: 1/epsilon^2 overflows float64")


def sample_rademacher(dim: int, k: int, seed: int = 0, rng=None) -> np.ndarray:
    """Draw k probe vectors with i.i.d. entries, each -1 or +1 with equal probability: the
    estimator's own draw, so for one latent they are the probes it draws from ``rng``."""
    if int(dim) != dim or dim < 1:
        raise ContractViolation(f"dim must be a positive integer, got {dim}")
    if int(k) != k or k < 2:
        raise ContractViolation(f"probe count k must be an integer >= 2, got {k}")
    rng = np.random.default_rng(seed) if rng is None else rng
    return _top_bits(rng, int(k) * int(dim)).reshape(int(k), int(dim)) * 2.0 - 1.0


def exact_offdiag_penalty(matrix):
    """Sum of squared off-diagonal entries of a square matrix, or an array of
    them for an (m, n, n) stack. C-ordered row sums add in the same order for
    both, so a stack's values equal the per-matrix ones bit for bit."""
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ContractViolation(f"expected a square matrix or a stack of them, got shape {h.shape}")
    flat, diag = h.reshape(h.shape[:-2] + (-1,)), np.diagonal(h, axis1=-2, axis2=-1)
    sums = (flat * flat).sum(axis=-1) - (diag * diag).sum(axis=-1)
    if not np.isfinite(sums).all():  # squares that overflow leave inf, or inf - inf
        raise NumericError("non-finite off-diagonal penalty")
    return float(sums) if h.ndim == 2 else sums


def evaluate_with_taps(fn, z: ad.Tensor, names: tuple[str, ...] | None = None
                       ) -> tuple[ad.Tensor | None, dict[str, ad.Tensor]]:
    """Normalize a function result to (output, taps).

    A function that declares ``tap_names`` (a ``Generator``) is passed the
    ``names`` the caller reads, so it can skip the layers past them; its
    output is then None unless "output" is among them.
    """
    result = fn(z) if names is None or not hasattr(fn, "tap_names") else fn(z, names)
    if isinstance(result, tuple):
        out, taps = result
        return out, dict(taps)
    return result, {}


def row_blocks(n_units: int, unit_rows: int, run):
    """Yield ``(lo, result)`` of ``result, width = run(lo, hi)`` over blocks of whole units.

    ``run`` stacks units [lo, hi) of ``unit_rows`` rows into one call and returns
    the values per row of its widest array. At most ``_WHOLE_ROWS`` rows are one
    call; a larger batch runs one unit first, whose width sizes every later block
    to the most units that keep that array within ``_BLOCK_VALUES``, at least one.
    """
    first = n_units if n_units * unit_rows <= _WHOLE_ROWS else 1
    result, width = run(0, first)
    yield 0, result
    step = max(1, _BLOCK_VALUES // (width * unit_rows))
    for lo in range(first, n_units, step):
        yield lo, run(lo, min(lo + step, n_units))[0]


def _widest(n: int, out: ad.Tensor | None, taps: dict[str, ad.Tensor]) -> int:
    """Values per row of the widest of a call's ``n``-wide input, its output and its taps."""
    return max([n] + [t.values[0].size for t in (out, *taps.values()) if t is not None])


def forward_values(fn, units: np.ndarray) -> tuple[np.ndarray, int]:
    """Output values of ``fn`` on the rows of ``units`` under no_grad, and its widest row."""
    with ad.no_grad():
        out, taps = evaluate_with_taps(fn, ad.Tensor(units.reshape(-1, units.shape[-1])))
    return out.values, _widest(units.shape[-1], out, taps)


def _prepare_latents(z) -> tuple[np.ndarray, bool]:
    arr = z.values if isinstance(z, ad.Tensor) else np.asarray(z, dtype=np.float64)
    if not np.isfinite(arr[:1] if arr.strides[:1] == (0,) else arr).all():  # stride 0: one row
        raise ContractViolation("latent input must be finite")
    if arr.ndim not in (1, 2) or 0 in arr.shape:
        raise ContractViolation(f"latent must be a non-empty 1-D or 2-D array, got {arr.shape}")
    return (arr[None, :], True) if arr.ndim == 1 else (arr, False)


def _stencil_taps(fn, zarr: np.ndarray, probes: np.ndarray, epsilon: float,
                  names: tuple[str, ...], centre: bool) -> tuple[dict[str, ad.Tensor], int]:
    """Evaluate ``fn`` once on the stacked stencil around a batch of latents.

    The stencil rows are z + e*v and z - e*v for each of the k probes in
    ``probes`` (k, B, n), plus z itself when ``centre`` is set. Returns each
    named tap reshaped to (2 or 3, k, B, ...), in that row order, and its widest row.
    """
    rows = 3 if centre else 2
    stencil = np.empty((rows,) + probes.shape)
    np.multiply(probes, epsilon, out=stencil[0])
    np.negative(stencil[0], out=stencil[1])
    if centre:
        stencil[2] = 0.0
    stencil += zarr
    out, taps = evaluate_with_taps(fn, ad.Tensor(stencil.reshape(-1, zarr.shape[-1])), names)
    result = {}
    for name in names:
        if name == "output":
            tensor = out
        elif name in taps:
            tensor = taps[name]
        else:
            raise ContractViolation(f"function exposes no tap named {name!r}")
        result[name] = ad.reshape(tensor, stencil.shape[:3] + tensor.shape[1:])
    return result, _widest(zarr.shape[-1], out, taps)


def second_directional_fd(fn, z, v, epsilon: float, taps: tuple[str, ...] | None = None):
    """Central second difference (G(z+ev) - 2 G(z) + G(z-ev)) / e^2.

    Approximates v^T H v for every output component; exact on quadratics.
    The three points are evaluated in one call of ``fn``. With ``taps``
    given, returns a dict of per-tap difference tensors instead of the
    output's. Differentiable with respect to any parameters inside ``fn``.
    A 1-D ``z`` yields per-component shape (m,), a batch yields (B, m).
    """
    _check_epsilon(epsilon)
    zarr, single = _prepare_latents(z)
    varr, _ = _prepare_latents(v)
    if varr.shape[-1] != zarr.shape[-1]:
        raise ContractViolation(
            f"probe dimension {varr.shape[-1]} != latent dimension {zarr.shape[-1]}"
        )
    if varr.shape[0] not in (1, zarr.shape[0]):
        raise ContractViolation(f"{varr.shape[0]} probe rows for {zarr.shape[0]} latent rows")
    names = ("output",) if taps is None else tuple(taps)
    probes = np.broadcast_to(varr, zarr.shape)[None]
    stencil, _ = _stencil_taps(fn, zarr, probes, epsilon, names, centre=True)
    weights = ad.Tensor(np.array([1.0, 1.0, -2.0]).reshape(3, 1, 1, 1))
    inv = 1.0 / (epsilon * epsilon)

    def diff(rows):
        d = (rows * weights).sum(axis=0) * inv  # (1, B, m)
        return ad.reshape(d, d.shape[2:] if single else d.shape[1:])

    if taps is None:
        return diff(stencil["output"])
    return {name: diff(rows) for name, rows in stencil.items()}


def _top_bits(rng, count: int) -> np.ndarray:
    """The values of ``rng.integers(0, 2, count, dtype=np.int32)``, leaving ``rng`` as it does.

    That draw takes one ``next_uint32`` per value, rejects none and keeps its top bit. PCG64
    hands out each 64-bit word low half first and buffers the high half (``has_uint32``), so
    the same bits are the top bits of a buffered half, then of the halves of raw words; an
    odd remainder leaves the last high half buffered. Other bit generators draw as numpy does.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64 or not np.little_endian:
        return rng.integers(0, 2, count, dtype=np.int32)
    buffered = bg.state
    head = min(buffered["has_uint32"], count)
    halves = bg.random_raw((count - head + 1) // 2).view(np.uint32)
    odd = halves.size > count - head  # numpy keeps the last high half for the next draw
    if head or odd:  # the buffer changed: random_raw leaves it as it was
        state = bg.state
        state["has_uint32"] = int(odd)
        if odd:
            state["uinteger"] = int(halves[-1])
        bg.state = state
    bits = np.right_shift(halves, 31, out=halves)[:count - head].view(np.int32)
    if head:
        return np.concatenate(([buffered["uinteger"] >> 31], bits), dtype=np.int32)
    return bits


def _codes(bits: np.ndarray) -> np.ndarray:
    """Sign-vector codes ``sum_j bits[..., j] 2^j`` as int32, from one float32 product: exact,
    because every partial sum is an integer below 2^24 while there are at most 24 bits."""
    weights = (1 << np.arange(bits.shape[-1])).astype(np.float32)
    return (bits.astype(np.float32) @ weights).astype(np.int32)


def _draw_codes(rng, draws: int, n: int) -> np.ndarray:
    """The codes of ``draws`` rows of ``n`` bits from ``_top_bits(rng, draws * n)``, drawn a
    chunk of about ``_BLOCK_VALUES`` bits at a time, so the bits are never held at once."""
    codes = np.empty(draws, dtype=np.int32)
    step = max(1, _BLOCK_VALUES // n)
    for lo in range(0, draws, step):
        hi = min(lo + step, draws)
        codes[lo:hi] = _codes(_top_bits(rng, (hi - lo) * n).reshape(-1, n))
    return codes


def _row_mean(blocks: list, n_rows: int):
    """Mean over all rows of per-row values that arrive in blocks (Tensors or arrays)."""
    if len(blocks) == 1:
        return blocks[0].mean()
    return sum((block.sum() for block in blocks[1:]), blocks[0].sum()) * (1.0 / n_rows)


def hessian_penalty_estimate(fn, z, config: PenaltyConfig, rng=None, probes=None,
                             components: bool = True) -> PenaltyValue:
    """Unbiased stochastic estimate of the off-diagonal Hessian penalty.

    Evaluates ``fn`` once per ``row_blocks`` block of latent rows, on the 2k
    perturbed copies z +- e*v_j of the block stacked into one batch (off the
    record at a repeated point, once per block of the 2^n sign vectors);
    no centre pass is needed because G(z) shifts every probe's second
    difference equally, and only the configured taps are computed. Takes the
    per-component Bessel-corrected variance over the k probes of
    (G(z+ev) + G(z-ev)) / e^2, reduces across components per
    ``config.reduction``, averages over batch rows and finally over taps.

    ``probes`` may inject an explicit (k, dim) or (k, B, dim) array of
    +-1 vectors (used by oracle-consistency tests); otherwise they are
    drawn from ``rng`` or deterministically from ``config.seed``. With ``components``
    false, ``per_component`` stays empty and each block's variances go to scratch, for
    callers that read only ``per_sample`` (a large call allocates no (B, m) arrays).
    """
    zarr, _ = _prepare_latents(z)
    n_rows, dim = zarr.shape
    eps = config.epsilon
    # one point, more draws than sign vectors: tabulate every sign vector's sums once and
    # give each draw its row by code (int32 is wide enough: 2^n < k*N draws fit in memory;
    # the float32 code product of _codes is exact while its sums stay below 2^24: n <= 24)
    tabulated = (not ad.grad_enabled() and 2 ** dim < config.k * n_rows and dim <= 24
                 and (zarr.strides[0] == 0 or (zarr == zarr[0]).all()))

    if probes is None:
        rng = np.random.default_rng(config.seed) if rng is None else rng
        if tabulated:
            codes = _draw_codes(rng, config.k * n_rows, dim).reshape(config.k, n_rows)
        else:
            bits = _top_bits(rng, config.k * n_rows * dim).reshape(config.k, n_rows, dim)
    else:
        probes = np.asarray(probes, dtype=np.float64)
        if probes.ndim == 2 and probes.shape[1] == dim:
            probes = np.broadcast_to(probes[:, None, :], (probes.shape[0], n_rows, dim))
        if probes.shape != (config.k, n_rows, dim):
            raise ContractViolation(
                f"probes must have shape ({config.k}, {n_rows}, {dim}), got {probes.shape}"
            )
        if not np.all(np.abs(probes) == 1.0):
            raise ContractViolation("probes must contain only +1 or -1 entries")
        bits = probes > 0
        if tabulated:
            codes = _codes(bits)

    # scale before the variance: 1/e^4 after it would overflow for small e
    inv = 1.0 / (eps * eps)

    table = None
    if tabulated:
        signs = ((np.arange(2 ** dim)[:, None, None] >> np.arange(dim)) & 1) * 2.0 - 1.0

        def tabulate(lo, hi):  # units of 2 rows: the +e and -e stencil of one sign vector
            stencil, width = _stencil_taps(fn, zarr[:1], signs[lo:hi], eps, config.taps,
                                           centre=False)
            return ({name: np.sum(stencil[name].values, axis=0)[:, 0] * inv
                     for name in config.taps}, width), width

        parts = [part for _, part in row_blocks(2 ** dim, 2, tabulate)]
        table_width = parts[0][1]
        table = {name: np.concatenate([sums[name] for sums, _ in parts])
                 for name in config.taps}  # (2^n, m)

    per_component: dict[str, np.ndarray] = {}
    per_sample = np.zeros(n_rows)
    reduced: dict[str, list] = {name: [] for name in config.taps}

    def run(lo, hi):
        if table is None:  # per block: whole-batch signs would double the draw
            stencil, width = _stencil_taps(fn, zarr[lo:hi], bits[:, lo:hi] * 2.0 - 1.0, eps,
                                           config.taps, centre=False)
        for name in config.taps:
            rows = stencil[name] if table is None else table[name][codes[:, lo:hi]]
            if components and name not in per_component:  # the first block shows its width
                per_component[name] = np.empty((n_rows, rows.shape[-1]))
            out = per_component[name][lo:hi] if components else np.empty((hi - lo, rows.shape[-1]))
            # the tail's centring removes the 2 G(z)/e^2 the sums keep without a centre pass
            part = (ad.probe_variance(rows, inv, config.reduction, out) if table is None
                    else ad._probe_variance(rows, config.reduction, out))
            per_sample[lo:hi] += part.values if table is None else part
            reduced[name].append(part)
        return None, width if table is None else table_width

    list(row_blocks(n_rows, 2 * config.k, run))  # run writes each block's rows in place
    per_sample /= len(config.taps)
    tap_scalars = [_row_mean(reduced[name], n_rows) for name in config.taps]
    loss = ad._coerce(sum(tap_scalars[1:], tap_scalars[0]) * (1.0 / len(config.taps)))

    return PenaltyValue(scalar=loss, per_component=per_component, per_sample=per_sample)
