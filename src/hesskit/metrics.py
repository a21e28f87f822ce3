"""Disentanglement measurements: activeness and latent path length.

Activeness of a latent component is the mean output variance as that
component alone is resampled from the prior: a component the function
does not depend on scores exactly zero, because its sweep produces
identical outputs.

Path length measures smoothness: the expected squared distance between
the output at a latent point and at a small spherical-interpolation step
toward a second point, scaled by 1/alpha^2. The distance here is plain
squared pixel L2, so absolute values are only comparable within this
toolkit, not against perceptual-distance variants. Smoothness and
off-diagonal curvature are different quantities: a separable cubic scaled
by a large constant keeps a zero penalty while its path length grows
without bound.

All estimators are pure given a seed. Their forwards run under no_grad in
row blocks whose outputs hold at most ``_BLOCK_ELEMENTS`` float64 values,
each reduced as soon as it returns: a block and its temporaries stay in
cache, where a large fresh output has the kernel map its pages one fault
at a time on every call. A row's value and every reduction are the same
for any split, so results do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DegeneracyError
from .penalty import evaluate_with_taps

_PARALLEL_EPS = 1e-6
# float64 elements one block of a metric's forward output may hold (1 MiB)
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class PPLConfig:
    """Path-length settings: step size and sample count."""

    alpha: float = 1e-4
    samples: int = 10000

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ContractViolation(f"alpha must be positive, got {self.alpha}")
        if self.samples < 1:
            raise ContractViolation(f"samples must be >= 1, got {self.samples}")


@dataclass
class PPLResult:
    value: float
    std_error: float
    samples: int
    skipped: int
    alpha: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "skipped": self.skipped,
            "alpha": self.alpha,
            "distance": "squared-l2",
        }


def slerp(a, b, alpha: float) -> np.ndarray:
    """Spherical linear interpolation between two latent vectors.

    Returns sin((1-alpha) w)/sin(w) * a + sin(alpha w)/sin(w) * b where w
    is the angle between a and b. Falls back to linear interpolation for
    nearly parallel inputs; antiparallel inputs are degenerate because the
    interpolation plane is undefined.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ContractViolation(f"slerp: shapes {a.shape} and {b.shape} differ")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ContractViolation("slerp: inputs must be nonzero")
    omega = float(np.arccos(np.clip(a @ b / (na * nb), -1.0, 1.0)))
    if omega > np.pi - _PARALLEL_EPS:
        raise DegeneracyError("slerp: antiparallel inputs")
    if omega < _PARALLEL_EPS:
        return (1.0 - alpha) * a + alpha * b
    s = np.sin(omega)
    return np.sin((1.0 - alpha) * omega) / s * a + np.sin(alpha * omega) / s * b


def _row_blocks(fn, z: np.ndarray, unit: int):
    """Yield ``(start, out)``, the values of ``fn`` on ``z[start:start + len(out)]``.

    Each block is one call under no_grad on whole units of ``unit`` rows.
    The first block is a single unit; its output width sets the size of
    the rest: as many units as keep the output within ``_BLOCK_ELEMENTS``,
    and at least one.
    """
    def call(rows: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            out, _ = evaluate_with_taps(fn, ad.Tensor(rows))
        return out.values

    out = call(z[:unit])
    yield 0, out
    rows = max(1, _BLOCK_ELEMENTS // (out[0].size * unit)) * unit
    for start in range(unit, len(z), rows):
        yield start, call(z[start:start + rows])


def _sweep_scores(fn, dim: int, components, n_base: int, n_sweep: int, seed: int) -> np.ndarray:
    """Activeness of each listed component, over row blocks of whole sweeps.

    Every component shares the same base latents and sweep values, drawn
    from ``seed``; the (components, n_base, n_sweep, dim) batch holds each
    base latent with one component replaced by its sweep values. Each
    block reduces to one score per (component, base latent) pair.
    """
    if n_base < 2 or n_sweep < 2:
        raise ContractViolation("n_base and n_sweep must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    base = rng.normal(size=(n_base, dim))
    sweeps = rng.normal(size=(n_base, n_sweep))
    batch = np.empty((len(components), n_base, n_sweep, dim))
    batch[...] = base[:, None, :]
    for i, component in enumerate(components):
        batch[i, :, :, component] = sweeps
    per_base = []
    for _, out in _row_blocks(fn, batch.reshape(-1, dim), n_sweep):
        swept = out.reshape((-1, n_sweep) + out.shape[1:])
        # shift each sweep by its first row: identical sweeps then score exactly zero
        swept -= swept[:, :1]
        var = np.var(swept, axis=1, ddof=1)
        per_base.append(var.reshape(len(var), -1).mean(axis=1))
    return np.concatenate(per_base).reshape(len(components), -1).mean(axis=1)


def activeness(fn, dim: int, component: int, n_base: int = 64, n_sweep: int = 16,
               seed: int = 0) -> float:
    """Mean output variance as one latent component is resampled.

    For each of ``n_base`` base latents, component ``component`` (0-based)
    is redrawn ``n_sweep`` times from the prior with the others held
    fixed; the per-output-element variance over the sweep is averaged
    over elements and then over base latents.
    """
    if not 0 <= component < dim:
        raise ContractViolation(f"component {component} outside [0, {dim})")
    return float(_sweep_scores(fn, dim, [component], n_base, n_sweep, seed)[0])


def activeness_profile(fn, dim: int, n_base: int = 64, n_sweep: int = 16,
                       seed: int = 0) -> np.ndarray:
    """Activeness of every component, one shared seed per component index."""
    return _sweep_scores(fn, dim, range(dim), n_base, n_sweep, seed)


def ppl(fn, dim: int, config: PPLConfig = PPLConfig(), seed: int = 0) -> PPLResult:
    """Monte-Carlo path length over latent pairs drawn from the prior.

    Degenerate (antiparallel) pairs are skipped and counted; nearly
    parallel pairs fall back to linear interpolation, mirroring
    :func:`slerp`.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z1 = rng.normal(size=(config.samples, dim))
    z2 = rng.normal(size=(config.samples, dim))

    n1 = np.linalg.norm(z1, axis=1)
    n2 = np.linalg.norm(z2, axis=1)
    nonzero = (n1 > 0.0) & (n2 > 0.0)
    cosw = np.einsum("ij,ij->i", z1, z2) / np.where(nonzero, n1 * n2, 1.0)
    omega = np.arccos(np.clip(cosw, -1.0, 1.0))
    keep = nonzero & (omega <= np.pi - _PARALLEL_EPS)
    skipped = int(config.samples - keep.sum())
    if not np.any(keep):
        raise ContractViolation("ppl: every sampled pair was degenerate")

    z1k, z2k, wk = z1[keep], z2[keep], omega[keep]
    lerp = wk < _PARALLEL_EPS
    s = np.sin(np.where(lerp, 1.0, wk))
    ca = np.where(lerp, 1.0 - config.alpha, np.sin((1.0 - config.alpha) * wk) / s)
    cb = np.where(lerp, config.alpha, np.sin(config.alpha * wk) / s)
    zs = ca[:, None] * z1k + cb[:, None] * z2k

    # row 2i is pair i's first point, row 2i + 1 its interpolant
    pairs = np.stack([z1k, zs], axis=1).reshape(-1, dim)
    d = np.empty(len(z1k))
    for start, out in _row_blocks(fn, pairs, 2):
        out = out.reshape((-1, 2) + out.shape[1:])
        i = start // 2
        d[i:i + len(out)] = np.sum((out[:, 0] - out[:, 1]) ** 2, axis=1)
    d /= config.alpha * config.alpha
    n = d.size
    se = float(d.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return PPLResult(value=float(d.mean()), std_error=se, samples=n,
                     skipped=skipped, alpha=config.alpha)
