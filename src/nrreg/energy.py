"""Robust energies, their quadratic surrogates, and the analytic gradient.

State layout: each node contributes a 4x3 block ``[A_j^T; t_j^T]``; the full
state X stacks the r blocks into a (4r, 3) matrix.  The deformation is one
linear map, assembled once per graph (:func:`build_structure`): every deformed
point is a row of ``F X + P`` and every edge residual a row of ``B X - Y``, so
the terms are ``|W_a (F X + P - U)|_F^2`` and ``|W_r (B X - Y)|_F^2`` and only
the diagonal weights change between iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags, identity

from .errors import InvalidInputError

SPD_JITTER = 1e-8


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
    dist = np.linalg.norm(align_residual(build_structure(g), X, corr.positions), axis=1)
    return float(np.sum(_kernel(dist, nu_a, kernel)))


def directed_edges(g):
    """Both orientations of every undirected graph edge, as an (2e, 2) array
    of (i, j) pairs; row order is (i, j) then (j, i) per edge."""
    e = g.node_edges
    if len(e) == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate([e, e[:, ::-1]])


def energy_reg(g, X, nu_r, kernel="welsch"):
    dist = np.linalg.norm(reg_residual(build_structure(g), X), axis=1)
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


# ---------------------------------------------------------------------------
# sparse structure (depends only on the graph geometry)

@dataclass
class EnergyStructure:
    F: csr_matrix      # (n, 4r)
    P: np.ndarray      # (n, 3)
    B: csr_matrix      # (2e, 4r)
    Y: np.ndarray      # (2e, 3)
    J: csr_matrix      # (4r, 4r) diagonal 0/1 mask on the A rows


def build_structure(g) -> EnergyStructure:
    """Assemble F/P/B/Y/J for a graph; cached on the graph object."""
    cached = getattr(g, "_energy_structure", None)
    if cached is not None:
        return cached

    n = g.n_points
    r = g.n_nodes
    V = g.source_positions
    Pn = g.node_positions

    W = g.influence.tocoo()
    rows = np.repeat(W.row, 4)
    cols = (4 * W.col[:, None] + np.arange(4)[None, :]).ravel()
    offs = V[W.row] - Pn[W.col]
    vals = np.column_stack([offs, np.ones(len(W.row))]) * W.data[:, None]
    F = csr_matrix((vals.ravel(), (rows, cols)), shape=(n, 4 * r))

    P = np.asarray(g.influence @ Pn)

    de = directed_edges(g)
    m = len(de)
    if m:
        p_i = Pn[de[:, 0]]
        p_j = Pn[de[:, 1]]
        erows = np.concatenate([np.repeat(np.arange(m), 4), np.arange(m)])
        ecols = np.concatenate([
            (4 * de[:, 1][:, None] + np.arange(4)[None, :]).ravel(),
            4 * de[:, 0] + 3,
        ])
        evals = np.concatenate([
            np.column_stack([p_i - p_j, np.ones(m)]).ravel(),
            -np.ones(m),
        ])
        B = csr_matrix((evals, (erows, ecols)), shape=(m, 4 * r))
        Y = p_i - p_j
    else:
        B = csr_matrix((0, 4 * r))
        Y = np.empty((0, 3))

    jd = np.tile([1.0, 1.0, 1.0, 0.0], r)
    J = diags(jd).tocsr()

    struct = EnergyStructure(F, P, B, Y, J)
    g._energy_structure = struct
    return struct


def align_residual(st: EnergyStructure, X, U):
    """Deformed source points minus their targets, ``F X + P - U``."""
    return st.F @ X + st.P - U


def reg_residual(st: EnergyStructure, X):
    """The D_ij residuals, one row per directed edge, ``B X - Y``."""
    return st.B @ X - st.Y


# ---------------------------------------------------------------------------
# surrogate system

@dataclass
class SurrogateSystem:
    """Frozen targets and Gaussian weights of one majorization step."""

    structure: EnergyStructure
    U: np.ndarray            # (n, 3) frozen correspondence targets
    wa: np.ndarray           # (n,) squared diagonal of W_a
    wr: np.ndarray           # (2e,) squared diagonal of W_r
    params: EnergyParams

    def align_residual(self, X):
        return align_residual(self.structure, X, self.U)

    def reg_residual(self, X):
        return reg_residual(self.structure, X)

    def energy(self, X):
        ra = self.align_residual(X)
        ea = float(np.sum(self.wa * np.sum(ra * ra, axis=1)))
        rr = self.reg_residual(X)
        er = float(np.sum(self.wr * np.sum(rr * rr, axis=1)))
        return ea + self.params.alpha * er + self.params.beta * energy_rot(X)

    def gradient(self, X):
        st = self.structure
        Gm = (st.F.T @ (self.wa[:, None] * self.align_residual(X))
              + self.params.alpha * (st.B.T @ (self.wr[:, None] * self.reg_residual(X))))
        if self.params.beta != 0.0:
            A, _ = unpack_state(X)
            Z = pack_state(project_rotations(A), np.zeros((len(A), 3)))
            Gm = Gm + self.params.beta * (st.J @ X - Z)
        return 2.0 * Gm

    def assemble_H0(self):
        """2 (F^T W_a^2 F + alpha B^T W_r^2 B + beta J), diagonally jittered
        so the factorization never hits an exactly singular translation row."""
        st = self.structure
        H = (st.F.T @ diags(self.wa) @ st.F
             + self.params.alpha * (st.B.T @ diags(self.wr) @ st.B))
        H = 2.0 * (H + self.params.beta * st.J)
        H = H + SPD_JITTER * identity(H.shape[0])
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
    struct = build_structure(g)
    U = corr_k.positions
    if params.kernel == "l2":
        wa = np.ones(g.n_points)
        wr = np.ones(struct.B.shape[0])
    else:
        ra = align_residual(struct, X_k, U)
        wa = gaussian_weight(np.sum(ra * ra, axis=1), params.nu_a)
        rr = reg_residual(struct, X_k)
        wr = gaussian_weight(np.sum(rr * rr, axis=1), params.nu_r)
    return SurrogateSystem(struct, U.copy(), wa, wr, params)
