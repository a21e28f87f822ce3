"""Built-in analytic test functions with known Hessians.

Each function maps a latent batch ``(B, input_dim)`` to an output batch
``(B, output_dim)`` using the differentiable primitives, so estimator
commands and direction discovery work without training anything first.
``hessians(z)`` returns the analytic Hessian of every output component at
a single point, which the finite-difference oracles are validated against.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DegeneracyError


def as_batch(z, dim: int) -> tuple[ad.Tensor, bool]:
    """Lift a latent vector or batch to a ``(B, dim)`` Tensor."""
    t = z if isinstance(z, ad.Tensor) else ad.Tensor(z)
    if t.ndim == 1:
        if t.shape[0] != dim:
            raise ContractViolation(f"latent has dimension {t.shape[0]}, expected {dim}")
        return ad.reshape(t, (1, dim)), True
    if t.ndim == 2:
        if t.shape[1] != dim:
            raise ContractViolation(f"latent batch has dimension {t.shape[1]}, expected {dim}")
        return t, False
    raise ContractViolation(f"latent must be 1-D or 2-D, got shape {t.shape}")


class QuadraticForm:
    """G(z) = 0.5 * z^T H z for a fixed symmetric H; the Hessian is exactly H."""

    name = "quadratic"

    def __init__(self, matrix):
        h = np.asarray(matrix, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ContractViolation(f"quadratic form needs a square matrix, got {h.shape}")
        self.matrix = 0.5 * (h + h.T)
        self.input_dim = h.shape[0]
        self.output_dim = 1
        self._h = ad.Tensor(self.matrix)

    def __call__(self, z) -> ad.Tensor:
        zb, _ = as_batch(z, self.input_dim)
        q = ad.mul(ad.matmul(zb, self._h), zb).sum(axis=1) * 0.5
        return ad.reshape(q, (zb.shape[0], 1))

    def hessians(self, z) -> np.ndarray:
        return self.matrix[None, :, :]


class SeparablePolynomial:
    """Scalar G(z) = sum_i a_i z_i^3 + b_i z_i^2 + c_i z_i; off-diagonal Hessian is zero."""

    name = "separable-cubic"

    def __init__(self, cubic, quadratic=None, linear=None):
        a = np.asarray(cubic, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise ContractViolation("coefficients must be a non-empty vector")
        n = a.size
        b = np.zeros(n) if quadratic is None else np.asarray(quadratic, dtype=np.float64)
        c = np.zeros(n) if linear is None else np.asarray(linear, dtype=np.float64)
        if b.shape != (n,) or c.shape != (n,):
            raise ContractViolation("coefficient vectors must share one length")
        self.a, self.b, self.c = a, b, c
        self.input_dim = n
        self.output_dim = 1
        self._a, self._b, self._c = ad.Tensor(a), ad.Tensor(b), ad.Tensor(c)

    def __call__(self, z) -> ad.Tensor:
        zb, _ = as_batch(z, self.input_dim)
        z2 = ad.square(zb)
        z3 = ad.mul(z2, zb)
        total = ad.mul(z3, self._a) + ad.mul(z2, self._b) + ad.mul(zb, self._c)
        return ad.reshape(total.sum(axis=1), (zb.shape[0], 1))

    def hessians(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64).reshape(self.input_dim)
        return np.diag(6.0 * self.a * z + 2.0 * self.b)[None, :, :]


class ScaledCubic(SeparablePolynomial):
    """G(z) = beta * sum_i z_i^3: zero off-diagonal curvature at any scale.

    The one-parameter family behind the smoothness counterexample: the
    off-diagonal penalty stays at zero for every beta while path-length
    style metrics grow with it.
    """

    name = "beta-cubic"

    def __init__(self, beta: float = 1.0, dim: int = 2):
        if dim < 1:
            raise ContractViolation("dim must be >= 1")
        if not np.isfinite(beta):
            raise ContractViolation(f"beta must be finite, got {beta}")
        self.beta = float(beta)
        super().__init__(np.full(dim, self.beta))


def gram_schmidt(matrix) -> np.ndarray:
    """Gram-Schmidt orthonormal columns, as a QR with R's diagonal made positive.

    |r_ii| is column i's norm after projection on the earlier columns; below
    1e-10 (linearly dependent input) it raises :class:`DegeneracyError`.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolation(f"expected a matrix, got shape {a.shape}")
    rows, cols = a.shape
    if cols > rows:
        raise ContractViolation(f"cannot orthonormalize {cols} columns in dimension {rows}")
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    small = np.flatnonzero(np.abs(diag) < 1e-10)
    if small.size:
        raise DegeneracyError(f"column {small[0]} is linearly dependent "
                              f"(norm {abs(diag[small[0]]):.3e} after projection)")
    return q * np.sign(diag)


def random_orthogonal(rows: int, cols: int, rng) -> np.ndarray:
    """Matrix with orthonormal columns: the Gram-Schmidt frame of a Gaussian draw."""
    return gram_schmidt(rng.normal(size=(rows, cols)))


class RotatedSeparable:
    """G(z)_j = u_j^3 with u_j = (column j of R) . z for a seeded rotation R.

    Separable in the rotated coordinates, entangled in z: the Hessian of
    component j is a rank-one multiple of R[:, j] R[:, j]^T. A direction
    matrix A zeroes the penalty taken in A's coordinates exactly when
    A^T R is a signed permutation, so R's columns are the ground truth
    for direction-discovery tests.
    """

    name = "rotated-separable"

    def __init__(self, dim: int = 4, seed: int = 0):
        if dim < 2:
            raise ContractViolation("dim must be >= 2")
        self.input_dim = dim
        self.output_dim = dim
        self.rotation = random_orthogonal(dim, dim, np.random.default_rng(seed))
        if np.linalg.det(self.rotation) < 0.0:  # a proper rotation
            self.rotation[:, -1] = -self.rotation[:, -1]
        self._r = ad.Tensor(self.rotation)

    def __call__(self, z) -> ad.Tensor:
        zb, _ = as_batch(z, self.input_dim)
        u = ad.matmul(zb, self._r)  # u_j = R[:, j] . z
        return ad.mul(ad.square(u), u)

    def hessians(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64).reshape(self.input_dim)
        u = z @ self.rotation
        cols = self.rotation.T  # cols[j] = R[:, j]
        return 6.0 * u[:, None, None] * cols[:, :, None] * cols[:, None, :]


_SEPARABLE_A = np.array([0.5, -0.25, 0.75, 1.0])
_SEPARABLE_B = np.array([0.2, -0.1, 0.3, 0.0])
_SEPARABLE_C = np.array([1.0, 1.0, -1.0, 0.5])


def get_function(name: str, dim: int | None = None, beta: float = 1.0, seed: int = 0):
    """Look up a registry function by name."""
    if dim is not None and dim < 1:
        raise ContractViolation(f"dim must be >= 1, got {dim}")
    if name == "z1z2":
        return QuadraticForm([[0.0, 1.0], [1.0, 0.0]])
    if name == "separable-cubic":
        if dim is None or dim == 4:
            return SeparablePolynomial(_SEPARABLE_A, _SEPARABLE_B, _SEPARABLE_C)
        rng = np.random.default_rng(seed)
        return SeparablePolynomial(
            rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
        )
    if name == "beta-cubic":
        return ScaledCubic(beta=beta, dim=2 if dim is None else dim)
    if name == "rotated-separable":
        return RotatedSeparable(dim=4 if dim is None else dim, seed=seed)
    raise ContractViolation(
        f"unknown function {name!r}; choose from {', '.join(FUNCTION_NAMES)}"
    )


FUNCTION_NAMES = ("z1z2", "separable-cubic", "beta-cubic", "rotated-separable")
