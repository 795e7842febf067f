"""Robust energies, their quadratic surrogates, and the analytic gradient.

State layout: each node contributes a 4x3 block ``[A_j^T; t_j^T]``; the full
state X stacks the r blocks into a (4r, 3) matrix.  The deformation graph
carries its linear map (:class:`nrreg.graph.DeformationGraph`): every
deformed point is a row of ``F X + P`` and every edge residual a row of
``B X - Y``, so the terms are ``|W_a (F X + P - U)|_F^2`` and
``|W_r (B X - Y)|_F^2`` and only the diagonal weights change between
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, diags, identity

from .errors import InvalidInputError
from .graph import DeformationGraph

SPD_JITTER = 1e-8
KERNELS = ("welsch", "l2")


# ---------------------------------------------------------------------------
# state packing

def pack_state(A, t):
    """Stack per-node (A_j, t_j) into the (4r, 3) optimization variable."""
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    r = len(A)
    X = np.empty((4 * r, 3))
    # block rows 0..2 hold A_j^T, row 3 holds t_j^T
    for k in range(3):
        X[k::4] = A[:, :, k]
    X[3::4] = t
    return X


def unpack_state(X):
    X = np.asarray(X, dtype=np.float64)
    r = X.shape[0] // 4
    A = np.empty((r, 3, 3))
    for k in range(3):
        A[:, :, k] = X[k::4]
    t = X[3::4].copy()
    return A, t


def identity_state(r):
    return pack_state(np.broadcast_to(np.eye(3), (r, 3, 3)).copy(), np.zeros((r, 3)))


# ---------------------------------------------------------------------------
# Welsch kernel

def welsch(x, nu):
    """1 - exp(-x^2 / (2 nu^2)); bounded robust kernel."""
    if nu <= 0:
        raise InvalidInputError("nu must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = 1.0 - np.exp(-(x * x) / (2.0 * nu * nu))
    return float(out) if out.ndim == 0 else out


def _kernel(x, nu, kernel):
    if kernel == "welsch":
        return welsch(x, nu)
    if kernel == "l2":
        x = np.asarray(x, dtype=np.float64)
        out = x * x
        return float(out) if out.ndim == 0 else out
    raise InvalidInputError(f"unknown kernel {kernel!r}")


@dataclass
class EnergyParams:
    nu_a: float
    nu_r: float
    alpha: float
    beta: float
    kernel: str = "welsch"

    def __post_init__(self):
        if self.nu_a <= 0 or self.nu_r <= 0:
            raise InvalidInputError("nu_a and nu_r must be positive")


# ---------------------------------------------------------------------------
# energy terms

def energy_align(g, X, corr, nu_a, kernel="welsch"):
    """Sum of kernel values over point-to-correspondent distances."""
    dist = np.linalg.norm(align_residual(g, X, corr.positions), axis=1)
    return float(np.sum(_kernel(dist, nu_a, kernel)))


def energy_reg(g, X, nu_r, kernel="welsch"):
    dist = np.linalg.norm(reg_residual(g, X), axis=1)
    return float(np.sum(_kernel(dist, nu_r, kernel)))


def project_rotations(As):
    """Closest rotation to each 3x3 matrix in Frobenius norm, via SVD with
    det correction."""
    As = np.asarray(As, dtype=np.float64)
    U, _, Vt = np.linalg.svd(As)
    det = np.linalg.det(np.einsum("nab,nbc->nac", U, Vt))
    D = np.broadcast_to(np.eye(3), As.shape).copy()
    D[:, 2, 2] = np.where(det < 0, -1.0, 1.0)
    return np.einsum("nab,nbc,ncd->nad", U, D, Vt)


def energy_rot(X):
    A, _ = unpack_state(X)
    if len(A) == 0:
        return 0.0
    P = project_rotations(A)
    return float(np.sum((A - P) ** 2))


def total_energy(g, X, corr, params: EnergyParams):
    """Alignment + alpha * smoothness + beta * rotation deviation."""
    return (energy_align(g, X, corr, params.nu_a, params.kernel)
            + params.alpha * energy_reg(g, X, params.nu_r, params.kernel)
            + params.beta * energy_rot(X))


def align_residual(g, X, U):
    """Deformed source points minus their targets, ``F X + P - U``."""
    return g.F @ X + g.P - U


def reg_residual(g, X):
    """The D_ij residuals, one row per directed edge, ``B X - Y``."""
    return g.B @ X - g.Y


# ---------------------------------------------------------------------------
# surrogate system

@dataclass
class SurrogateSystem:
    """Frozen targets and Gaussian weights of one majorization step."""

    graph: DeformationGraph
    U: np.ndarray            # (n, 3) frozen correspondence targets
    wa: np.ndarray           # (n,) squared diagonal of W_a
    wr: np.ndarray           # (2e,) squared diagonal of W_r
    params: EnergyParams

    def energy(self, X):
        ra = align_residual(self.graph, X, self.U)
        ea = float(np.sum(self.wa * np.sum(ra * ra, axis=1)))
        rr = reg_residual(self.graph, X)
        er = float(np.sum(self.wr * np.sum(rr * rr, axis=1)))
        return ea + self.params.alpha * er + self.params.beta * energy_rot(X)

    def gradient(self, X):
        g = self.graph
        Gm = (g.F.T @ (self.wa[:, None] * align_residual(g, X, self.U))
              + self.params.alpha * (g.B.T @ (self.wr[:, None] * reg_residual(g, X))))
        if self.params.beta != 0.0:
            # the rotation term acts on the A rows only
            A, _ = unpack_state(X)
            Gm = Gm + self.params.beta * pack_state(A - project_rotations(A),
                                                    np.zeros((len(A), 3)))
        return 2.0 * Gm

    def assemble_H0(self):
        """2 (F^T W_a^2 F + alpha B^T W_r^2 B + beta I_A), with I_A the
        identity on the A rows, diagonally jittered so the factorization
        never hits an exactly singular translation row."""
        g = self.graph
        H = (g.F.T @ diags(self.wa) @ g.F
             + self.params.alpha * (g.B.T @ diags(self.wr) @ g.B))
        # beta I_A, built in H's CSC format so that the sum converts nothing
        n = H.shape[0]
        beta_A = np.tile([self.params.beta] * 3 + [0.0], g.n_nodes)
        H = 2.0 * (H + csc_matrix((beta_A, np.arange(n), np.arange(n + 1)), shape=(n, n)))
        H = H + SPD_JITTER * identity(n)
        return H.tocsc()


def gaussian_weight(sq_dist, nu):
    """Surrogate curvature weight: exp(-d^2 / (2 nu^2)) / (2 nu^2)."""
    return np.exp(-sq_dist / (2.0 * nu * nu)) / (2.0 * nu * nu)


def assemble_surrogate(g, X_k, corr_k, params: EnergyParams) -> SurrogateSystem:
    """Quadratic majorizer of the robust energy at ``X_k``.

    Correspondence targets are frozen at ``corr_k``; the alignment and
    smoothness weights are the Gaussian factors evaluated at the current
    residuals.  With the ``l2`` kernel all weights are one and the surrogate
    coincides with the energy itself.
    """
    U = corr_k.positions
    if params.kernel == "l2":
        wa = np.ones(g.n_points)
        wr = np.ones(g.B.shape[0])
    else:
        ra = align_residual(g, X_k, U)
        wa = gaussian_weight(np.sum(ra * ra, axis=1), params.nu_a)
        rr = reg_residual(g, X_k)
        wr = gaussian_weight(np.sum(rr * rr, axis=1), params.nu_r)
    return SurrogateSystem(g, U.copy(), wa, wr, params)
