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
hidden layer nor the output head. And a batch of more than ``_BLOCK``
latent rows is evaluated in blocks of that many rows, each one stacked
call of ``fn``: one huge forward costs more per row than mid-sized ones,
and an off-record caller (``estimate``, ``verify``) then holds one block's
activations at a time. Probes are still drawn for the whole batch at once,
per-row results do not depend on the blocking, and a batch that fits in
one block (every training step) builds the same record as one call.

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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation

REDUCTIONS = ("max", "mean")
# latent rows per stencil evaluation: bounds the (2k * rows)-row forwards of large
# batches; a training batch fits in one block
_BLOCK = 4096


@dataclass(frozen=True)
class PenaltyConfig:
    """Estimator settings: step, probe count, reduction, taps and seed.

    ``taps`` names the activations the penalty is applied to; empty means
    the function's output itself, and the reserved name "output" may be
    mixed with named taps. ``k >= 2`` because the sample variance is
    undefined below that.
    """

    epsilon: float = 0.1
    k: int = 2
    reduction: str = "max"
    taps: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if int(self.k) != self.k or self.k < 2:
            raise ContractViolation(f"probe count k must be an integer >= 2, got {self.k}")
        if self.reduction not in REDUCTIONS:
            raise ContractViolation(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        object.__setattr__(self, "taps", tuple(self.taps))


@dataclass
class PenaltyValue:
    """Estimator output: differentiable scalar plus pre-reduction detail.

    ``per_component`` maps tap name (or "output") to the (B, m) probe
    variances before reduction; ``per_sample`` holds the per-row reduced
    values averaged over taps, so a batched call doubles as a set of
    independent trials.
    """

    scalar: ad.Tensor
    per_component: dict[str, np.ndarray]
    per_sample: np.ndarray
    k: int
    epsilon: float
    reduction: str = "max"
    taps: tuple[str, ...] = field(default_factory=tuple)

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
    """Draw k probe vectors with i.i.d. entries, each -1 or +1 with equal probability."""
    if int(dim) != dim or dim < 1:
        raise ContractViolation(f"dim must be a positive integer, got {dim}")
    if int(k) != k or k < 2:
        raise ContractViolation(f"probe count k must be an integer >= 2, got {k}")
    rng = np.random.default_rng(seed) if rng is None else rng
    return rng.integers(0, 2, size=(int(k), int(dim))).astype(np.float64) * 2.0 - 1.0


def exact_offdiag_penalty(matrix) -> float:
    """Sum of squared off-diagonal entries of a square matrix."""
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {h.shape}")
    return float(np.sum(h * h) - np.sum(np.diag(h) ** 2))


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


def _prepare_latents(z) -> tuple[np.ndarray, bool]:
    arr = z.values if isinstance(z, ad.Tensor) else np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("latent input must be finite")
    if arr.ndim not in (1, 2) or 0 in arr.shape:
        raise ContractViolation(f"latent must be a non-empty 1-D or 2-D array, got {arr.shape}")
    return (arr[None, :], True) if arr.ndim == 1 else (arr, False)


def _stencil_taps(fn, zarr: np.ndarray, probes: np.ndarray, epsilon: float,
                  names: tuple[str, ...], centre: bool) -> dict[str, ad.Tensor]:
    """Evaluate ``fn`` once on the stacked stencil around a batch of latents.

    The stencil rows are z + e*v and z - e*v for each of the k probes in
    ``probes`` (k, B, n), plus z itself when ``centre`` is set. Returns each
    named tap reshaped to (2 or 3, k, B, ...), in that row order.
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
    return result


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
    stencil = _stencil_taps(fn, zarr, probes, epsilon, names, centre=True)
    weights = ad.Tensor(np.array([1.0, 1.0, -2.0]).reshape(3, 1, 1, 1))
    inv = 1.0 / (epsilon * epsilon)

    def diff(rows):
        d = (rows * weights).sum(axis=0) * inv  # (1, B, m)
        return ad.reshape(d, d.shape[2:] if single else d.shape[1:])

    if taps is None:
        return diff(stencil["output"])
    return {name: diff(rows) for name, rows in stencil.items()}


def _row_mean(blocks: list[ad.Tensor], n_rows: int) -> ad.Tensor:
    """Mean over all rows of per-row values that arrive in blocks."""
    if len(blocks) == 1:
        return blocks[0].mean()
    total = blocks[0].sum()
    for block in blocks[1:]:
        total = total + block.sum()
    return total * (1.0 / n_rows)


def hessian_penalty_estimate(fn, z, config: PenaltyConfig, rng=None, probes=None) -> PenaltyValue:
    """Unbiased stochastic estimate of the off-diagonal Hessian penalty.

    Evaluates ``fn`` once per block of at most ``_BLOCK`` latent rows, on
    the 2k perturbed copies z +- e*v_j of the block stacked into one batch;
    no centre pass is needed because G(z) shifts every probe's second
    difference equally, and only the configured taps are computed. Takes the
    per-component Bessel-corrected variance over the k probes of
    (G(z+ev) + G(z-ev)) / e^2, reduces across components per
    ``config.reduction``, averages over batch rows and finally over taps.

    ``probes`` may inject an explicit (k, dim) or (k, B, dim) array of
    +-1 vectors (used by oracle-consistency tests); otherwise they are
    drawn from ``rng`` or deterministically from ``config.seed``.
    """
    zarr, _ = _prepare_latents(z)
    n_rows, dim = zarr.shape
    eps = config.epsilon

    if probes is None:
        rng = np.random.default_rng(config.seed) if rng is None else rng
        probes = rng.integers(0, 2, size=(config.k, n_rows, dim)).astype(np.float64) * 2.0 - 1.0
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

    names = config.taps if config.taps else ("output",)
    # scale before the variance: 1/e^4 after it would overflow for small e
    inv = 1.0 / (eps * eps)
    reduced: dict[str, list[ad.Tensor]] = {name: [] for name in names}
    variances: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for start in range(0, n_rows, _BLOCK):
        block = slice(start, start + _BLOCK)
        stencil = _stencil_taps(fn, zarr[block], probes[:, block], eps, names, centre=False)
        for name in names:
            sums = stencil[name].sum(axis=0) * inv  # (k, b, m)
            # with no centre pass the sums keep the offset 2 G(z)/e^2; subtracting their
            # probe mean as a constant keeps its rounding out of the variance's gradient
            var = (sums - sums.values.mean(axis=0)).var(axis=0, ddof=1)  # (b, m)
            variances[name].append(var.values)
            reduced[name].append(var.max(axis=-1) if config.reduction == "max"
                                 else var.mean(axis=-1))

    per_component: dict[str, np.ndarray] = {}
    tap_scalars = []
    per_sample = np.zeros(n_rows)
    for name in names:
        per_component[name] = np.concatenate(variances[name])
        per_sample = per_sample + np.concatenate([r.values for r in reduced[name]])
        tap_scalars.append(_row_mean(reduced[name], n_rows))

    per_sample /= len(names)
    loss = tap_scalars[0]
    for extra in tap_scalars[1:]:
        loss = loss + extra
    loss = loss * (1.0 / len(names))

    return PenaltyValue(
        scalar=loss,
        per_component=per_component,
        per_sample=per_sample,
        k=config.k,
        epsilon=eps,
        reduction=config.reduction,
        taps=config.taps,
    )
