"""Exact brute-force references for the stochastic estimator.

Three independent ground truths live here: full finite-difference
Hessians of a black-box function, the exact population variance of the
probe quadratic form by enumeration of all 2^n sign vectors, and the
diagonality statistics used to compare trained generators. None of them
share code with the stochastic path they validate.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .files import overwrite
from .penalty import _check_epsilon, exact_offdiag_penalty, forward_values, row_blocks

ENUMERATION_LIMIT = 20
_CHUNK = 1 << 16


@dataclass
class HessianSet:
    """Per-output-component Hessians of one function at one point.

    ``matrices`` has shape (m, n, n); the centered-product stencil is
    symmetric by construction, so each matrix is exactly symmetric.
    """

    matrices: np.ndarray
    z: np.ndarray
    epsilon: float

    @property
    def count(self) -> int:
        return self.matrices.shape[0]


@dataclass
class DiagonalityReport:
    """How diagonal a collection of Hessians is.

    ``d_percent`` is the fraction of matrices whose largest-magnitude
    entry lies on the diagonal (ties count as diagonal); ``d_ratio`` is
    the mean absolute diagonal entry over the mean absolute off-diagonal
    entry, pooled across all matrices. When every off-diagonal entry is
    zero the ratio is reported as +inf, and ``offdiag_all_zero`` says so.
    """

    d_percent: float
    d_ratio: float
    count: int

    @property
    def offdiag_all_zero(self) -> bool:
        return math.isinf(self.d_ratio)

    def to_dict(self) -> dict:
        return {
            "d_percent": self.d_percent,
            "d_ratio": None if math.isinf(self.d_ratio) else self.d_ratio,
            "count": self.count,
            "offdiag_all_zero": self.offdiag_all_zero,
        }


def exact_hessian_fd(fn, z, epsilon: float) -> HessianSet:
    """Full finite-difference Hessian of every output component at one point."""
    return hessian_sets_for(fn, np.asarray(z, dtype=np.float64).reshape(1, -1), epsilon)[0]


def hessian_sets_for(fn, zs, epsilon: float) -> list[HessianSet]:
    """Full finite-difference Hessians at each of S points, from stacked calls of ``fn``.

    Diagonal entries use the 1-D central second difference; mixed entries
    use the four-point centered product stencil

        [f(z+e_i+e_j) - f(z+e_i-e_j) - f(z-e_i+e_j) + f(z-e_i-e_j)] / (4 eps^2)

    whose truncation error is O(eps^2), so cubic test functions are
    resolved exactly up to round-off. Each point needs P = 1 + 2n + 2n(n-1)
    stencil rows; ``penalty.row_blocks`` stacks whole points into each call,
    and a point's result does not depend on the others.
    """
    _check_epsilon(epsilon)
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 2 or 0 in zs.shape:
        raise ContractViolation(f"expected a non-empty (S, n) array of points, got {zs.shape}")
    if not np.all(np.isfinite(zs)):
        raise ContractViolation("Hessian points must be finite")
    n = zs.shape[1]
    step = epsilon * np.eye(n)
    rows, cols = np.triu_indices(n, 1)
    a, b = step[rows], step[cols]
    offsets = np.concatenate([np.zeros((1, n)),
                              np.stack([step, -step], axis=1).reshape(-1, n),
                              np.stack([a + b, a - b, b - a, -a - b], axis=1).reshape(-1, n)])
    inv = 1.0 / (epsilon * epsilon)

    def run(lo, hi):
        f, width = forward_values(fn, zs[lo:hi, None, :] + offsets)
        f = f.reshape(hi - lo, offsets.shape[0], -1)  # (s, P, m)
        diag = (f[:, 1:1 + 2 * n:2] - 2.0 * f[:, :1] + f[:, 2:2 + 2 * n:2]) * inv  # (s, n, m)
        q = f[:, 1 + 2 * n:].reshape(hi - lo, rows.size, 4, f.shape[2])  # (s, pairs, 4, m)
        mixed = (q[:, :, 0] - q[:, :, 1] - q[:, :, 2] + q[:, :, 3]) * (0.25 * inv)
        h = np.zeros((hi - lo, f.shape[2], n, n))
        h[:, :, np.arange(n), np.arange(n)] = diag.transpose(0, 2, 1)
        h[:, :, rows, cols] = h[:, :, cols, rows] = mixed.transpose(0, 2, 1)
        if not np.isfinite(h).all():
            raise NumericError("non-finite finite-difference Hessian")
        return h, width

    return [HessianSet(matrices=mats, z=zs[lo + i], epsilon=epsilon)
            for lo, h in row_blocks(len(zs), offsets.shape[0], run) for i, mats in enumerate(h)]


def enumerate_variance(matrix) -> float:
    """Exact population variance of v^T H v over all 2^n sign vectors.

    The enumeration is the ground truth the stochastic estimator is
    checked against: the result equals twice the sum of squared
    off-diagonal entries of H. Accumulation is shifted by trace(H), the
    analytic mean of the quadratic form, to keep the sums stable.
    """
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {h.shape}")
    if not np.allclose(h, h.T):
        raise ContractViolation("matrix must be symmetric")
    n = h.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ContractViolation(
            f"enumeration over 2^n probes is limited to n <= {ENUMERATION_LIMIT}, got n = {n}"
        )
    total = 1 << n
    shift = float(np.trace(h))
    bits = np.arange(n, dtype=np.uint64)
    sum_c = 0.0
    sum_c2 = 0.0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        v = (((idx[:, None] >> bits) & 1) * 2.0 - 1.0)
        q = np.einsum("bi,bi->b", v @ h, v)
        c = q - shift
        sum_c += float(np.sum(c))
        sum_c2 += float(np.sum(c * c))
    mean_c = sum_c / total
    return sum_c2 / total - mean_c * mean_c


def diagonality_metrics(hessians) -> DiagonalityReport:
    """Pool Hessian collections into the two diagonality statistics."""
    stacks = _hessian_stacks(hessians)

    diag_count = 0
    total = 0
    diag_sum = 0.0
    diag_n = 0
    off_sum = 0.0
    off_n = 0
    for mats in stacks:
        m, n, _ = mats.shape
        absmats = np.abs(mats)
        eye = np.eye(n, dtype=bool)
        diag_abs = absmats[:, eye]
        off_abs = absmats[:, ~eye]
        max_diag = diag_abs.max(axis=1)
        max_off = off_abs.max(axis=1) if n > 1 else np.zeros(m)
        diag_count += int(np.sum(max_diag >= max_off))  # ties favor the diagonal
        total += m
        diag_sum += float(diag_abs.sum())
        diag_n += diag_abs.size
        off_sum += float(off_abs.sum())
        off_n += off_abs.size

    mean_diag = diag_sum / diag_n if diag_n else 0.0
    mean_off = off_sum / off_n if off_n else 0.0
    d_ratio = mean_diag / mean_off if mean_off else math.inf
    # an overflowed sum or ratio would read as NaN, or as all-zero off-diagonals
    finite = math.isfinite(diag_sum) and math.isfinite(off_sum)
    if not finite or (mean_off and math.isinf(d_ratio)):
        raise NumericError("diagonality: the pooled Hessian entries overflow")
    return DiagonalityReport(d_percent=diag_count / total, count=total, d_ratio=d_ratio)


def _hessian_stacks(hessians) -> list[np.ndarray]:
    """The (m, n, n) stacks of a HessianSet, an array or a non-empty iterable
    of either; an array that is not a stack counts as one matrix."""
    items = [hessians] if isinstance(hessians, (HessianSet, np.ndarray)) else hessians
    stacks = []
    for item in items:
        a = np.asarray(item.matrices if isinstance(item, HessianSet) else item, dtype=np.float64)
        a = a if a.ndim == 3 else a[None]
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ContractViolation(f"expected (m, n, n) Hessian stacks, got shape {a.shape}")
        stacks.append(a)
    if not stacks:
        raise ContractViolation("empty Hessian collection")
    return stacks


def export_hessian_heatmaps(hessians, path, top: int | None = None) -> list[dict]:
    """Write one CSV plus one grayscale pixmap per Hessian matrix.

    Components are numbered across the stacks in order, and the stacks are
    read in place, never concatenated. Matrices are ranked by their exact
    off-diagonal penalty, one vectorised pass per stack; ``top`` restricts
    export to the k largest. CSV values round-trip exactly (shortest-repr
    decimals); pixmaps are min/max normalized per matrix, with a constant
    matrix rendered as uniform mid-gray. Returns the written index (``index.json``).
    """
    stacks = _hessian_stacks(hessians)
    penalties = np.concatenate([exact_offdiag_penalty(mats) for mats in stacks])
    starts = np.cumsum([0] + [len(mats) for mats in stacks])
    order = np.argsort(-penalties, kind="stable")
    if top is not None:
        if top < 1:
            raise ContractViolation(f"top must be >= 1, got {top}")
        order = order[:top]

    os.makedirs(path, exist_ok=True)
    index = []
    for rank, comp in enumerate(order):
        comp = int(comp)
        which = np.searchsorted(starts, comp, side="right") - 1
        matrix = stacks[which][comp - starts[which]]
        stem = f"hessian_{comp:05d}"
        csv_path = os.path.join(path, stem + ".csv")
        pgm_path = os.path.join(path, stem + ".pgm")
        _write_csv(csv_path, matrix)
        _write_pgm(pgm_path, matrix)
        index.append(
            {
                "rank": rank,
                "component": comp,
                "offdiag_penalty": float(penalties[comp]),
                "csv": os.path.basename(csv_path),
                "pixmap": os.path.basename(pgm_path),
            }
        )
    overwrite(os.path.join(path, "index.json"), json.dumps(index, indent=2, sort_keys=True) + "\n")
    return index


def _write_csv(path: str, matrix: np.ndarray) -> None:
    overwrite(path, "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix))


def _write_pgm(path: str, matrix: np.ndarray) -> None:
    lo, hi = float(matrix.min()), float(matrix.max())
    if hi > lo:
        norm = (matrix - lo) / (hi - lo)
        pixels = np.clip(np.rint(norm * 255.0), 0, 255).astype(np.uint8)
    else:
        pixels = np.full(matrix.shape, 128, dtype=np.uint8)  # degenerate range guard
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii")
    overwrite(path, header + pixels.tobytes())
