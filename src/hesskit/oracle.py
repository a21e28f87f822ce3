"""Exact brute-force references for the stochastic estimator.

Three independent ground truths live here: full finite-difference
Hessians of a black-box function, the exact population variance of the
probe quadratic form by enumeration of all 2^n sign vectors, and the
diagonality statistics used to compare trained generators. The Hessians
run through the penalty's row blocks and forward, but none of the three
shares the stochastic path's stencil or probe-variance tail.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .files import prune, write_csv, write_json, write_netpbm
from .penalty import _check_epsilon, exact_offdiag_penalty, forward_values, row_blocks

ENUMERATION_LIMIT = 20
_CHUNK = 1 << 16


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
        return {**asdict(self), "d_ratio": None if math.isinf(self.d_ratio) else self.d_ratio,
                "offdiag_all_zero": self.offdiag_all_zero}


def exact_hessian_fd(fn, z, epsilon: float) -> np.ndarray:
    """The (m, n, n) finite-difference Hessians of every output component at one point."""
    return hessian_sets_for(fn, np.asarray(z, dtype=np.float64).reshape(1, -1), epsilon)[0]


def hessian_sets_for(fn, zs, epsilon: float) -> np.ndarray:
    """The (S, m, n, n) finite-difference Hessians at S points, from stacked calls of ``fn``.

    Diagonal entries use the 1-D central second difference; mixed entries
    use the four-point centered product stencil

        [f(z+e_i+e_j) - f(z+e_i-e_j) - f(z-e_i+e_j) + f(z-e_i-e_j)] / (4 eps^2)

    whose truncation error is O(eps^2), so cubic test functions are
    resolved exactly up to round-off; each (m, n, n) stack is exactly
    symmetric. Each point needs P = 1 + 2n + 2n(n-1) stencil rows;
    ``penalty.row_blocks`` stacks whole points into each call, and a
    point's result does not depend on the others.
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

    return np.concatenate([h for _, h in row_blocks(len(zs), offsets.shape[0], run)])


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
    """Pool an array of Hessians, of any leading shape, into the two diagonality statistics."""
    mats = _hessian_stack(hessians)
    eye = np.eye(mats.shape[-1], dtype=bool)
    diag_abs, off_abs = np.abs(mats[:, eye]), np.abs(mats[:, ~eye])
    max_off = off_abs.max(axis=1) if off_abs.size else np.zeros(len(mats))
    diag_count = int(np.sum(diag_abs.max(axis=1) >= max_off))  # ties favor the diagonal
    diag_sum, off_sum = float(diag_abs.sum()), float(off_abs.sum())
    mean_off = off_sum / off_abs.size if off_abs.size else 0.0
    d_ratio = diag_sum / diag_abs.size / mean_off if mean_off else math.inf
    # an overflowed sum or ratio would read as NaN, or as all-zero off-diagonals
    finite = math.isfinite(diag_sum) and math.isfinite(off_sum)
    if not finite or (mean_off and math.isinf(d_ratio)):
        raise NumericError("diagonality: the pooled Hessian entries overflow")
    return DiagonalityReport(d_percent=diag_count / len(mats), count=len(mats), d_ratio=d_ratio)


def _hessian_stack(hessians) -> np.ndarray:
    """An array of square matrices, of any leading shape, as one (count, n, n) stack."""
    a = np.asarray(hessians, dtype=np.float64)
    if a.size == 0:
        raise ContractViolation("empty Hessian collection")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractViolation(f"expected an array of square Hessians, got shape {a.shape}")
    return a.reshape(-1, *a.shape[-2:])


def export_hessian_heatmaps(hessians, path, top: int | None = None) -> list[dict]:
    """Write one CSV plus one grayscale pixmap per Hessian matrix.

    ``hessians`` is an array of square matrices of any leading shape; components
    are numbered in its C order. Matrices are ranked by their exact off-diagonal
    penalty, in one vectorised pass; ``top`` restricts export to the k largest.
    CSV values round-trip exactly (shortest-repr decimals); pixmaps are min/max
    normalized per matrix, with a constant matrix rendered as uniform mid-gray.
    Returns the written index (``index.json``).
    """
    mats = _hessian_stack(hessians)
    penalties = exact_offdiag_penalty(mats)
    order = np.argsort(-penalties, kind="stable")
    if top is not None:
        if top < 1:
            raise ContractViolation(f"top must be >= 1, got {top}")
        order = order[:top]

    index = []
    for rank, comp in enumerate(order):
        comp, matrix = int(comp), mats[comp]
        stem = f"hessian_{comp:05d}"
        write_csv(os.path.join(path, stem + ".csv"), matrix)
        lo, hi = float(matrix.min()), float(matrix.max())
        if hi > lo:
            norm = (matrix - lo) / (hi - lo)
            pixels = np.clip(np.rint(norm * 255.0), 0, 255).astype(np.uint8)
        else:
            pixels = np.full(matrix.shape, 128, dtype=np.uint8)  # degenerate range guard
        write_netpbm(os.path.join(path, stem + ".pgm"), pixels)
        index.append({"rank": rank, "component": comp, "offdiag_penalty": float(penalties[comp]),
                      "csv": stem + ".csv", "pixmap": stem + ".pgm"})
    write_json(os.path.join(path, "index.json"), index)
    prune(path, [entry[key] for entry in index for key in ("csv", "pixmap")])
    return index
