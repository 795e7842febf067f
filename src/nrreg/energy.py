"""Robust energies, their quadratic surrogates, and the analytic gradient.

State layout: each node contributes a 4x3 block ``[A_j^T; t_j^T]``; the full
state X stacks the r blocks into a (4r, 3) matrix.  The deformation graph
carries its linear map (:class:`nrreg.graph.DeformationGraph`): every
deformed point is a row of ``F X + P`` and every edge residual a row of
``B X - Y``, so the terms are ``|W_a (F X + P - U)|_F^2`` and
``|W_r (B X - Y)|_F^2`` and only the diagonal weights change between
iterations.

A state is evaluated once: :func:`deform` returns a :class:`Deformed` record
holding ``F X + P``, ``B X - Y`` and each node's ``A_j - proj(A_j)``, and the
surrogate's weights, its expansion at the start and the total energy all
read it instead of recomputing them.  :func:`total_energy` is the one
place the robust energy is summed.

Within one majorization step the weights and targets are frozen, so the
surrogate is a fixed quadratic form plus the rotation term.  A
:class:`SurrogateSystem` is that majorizer at the evaluated state ``X0`` it
was assembled at, its ``start``: it takes the quadratic part's value ``E0``
and gradient ``G0`` there once, from the start's residuals, and evaluates
every trial ``X = X0 + S`` in the 4r-dimensional state space: energy
``E0 + <G0, S> + <S, C> / 2`` and gradient ``G0 + C``, where ``C = 2 M S`` is
carried along, never multiplied out (:meth:`Trial.along`; the inner solver
takes each direction's ``2 M d`` from its two-loop recursion).  ``2 M`` is
assembled as a symmetric band (:class:`nrreg.graph.BandMatrix`, in the
graph's reverse Cuthill-McKee node order) only to be factored: the initial
Hessian is ``H0 = 2 M + diag(c)``, with ``c`` 2 beta on the A rows plus
``SPD_JITTER`` (:meth:`SurrogateSystem.h0_diagonal`).  A :class:`Trial`
holds ``S``, ``C`` and the exact rotation residuals; only the state the
solve stops at is deformed.  Inner products are BLAS dots (``np.vdot``).

``proj(A_j)``, the closest rotation to a node's affine block, comes from the
unscaled Newton polar iteration ``X <- (X + cof(X) / det(X)) / 2`` from
``X = A_j``, run for a fixed ``POLAR_ITERS`` steps on the nine entry planes of
the batch (:func:`project_rotations`).  A block with ``det(A_j) <= 0``, one
that is not finite, and one whose last step still moved an entry by more than
``POLAR_TOL`` take the det-corrected SVD projection ``U D Vt`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .graph import DeformationGraph, transform_points

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

def _kernel_sum(residual, nu, kernel):
    """Sum of kernel values over the row norms of ``residual``."""
    return float(np.sum(_kernel(np.linalg.norm(residual, axis=1), nu, kernel)))


def _det3(M):
    """Determinants of a batch of 3x3 matrices, row 0 . (row 1 x row 2)."""
    return np.sum(M[:, 0] * np.cross(M[:, 1], M[:, 2]), axis=1)


POLAR_ITERS = 5     # Newton steps per projection, the same for every row
POLAR_TOL = 1e-8    # a row has converged when its last step moved no entry further


# cofactor (i, j) of a 3x3 matrix, with indices taken mod 3, is
# a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1]: the four rows below gather
# those four factors for all nine entries from the row-major entry planes
_COFACTOR_GATHER = np.array([[3 * ((i + di) % 3) + (j + dj) % 3
                              for i in range(3) for j in range(3)]
                             for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _project_rotations_svd(As):
    """Closest rotation to each 3x3 matrix in Frobenius norm, via SVD with
    det correction: ``U D Vt`` with ``D = diag(1, 1, det(U Vt))``."""
    U, _, Vt = np.linalg.svd(As)
    U[_det3(U) * _det3(Vt) < 0, :, 2] *= -1.0
    # U D Vt as the three rank-one terms added to +0.0 in column order, as a
    # matrix product sums them (so that no entry comes out as -0.0)
    return (0.0 + U[:, :, 0, None] * Vt[:, None, 0] + U[:, :, 1, None] * Vt[:, None, 1]
            + U[:, :, 2, None] * Vt[:, None, 2])


def project_rotations(As):
    """Closest rotation to each matrix of an (r, 3, 3) batch in Frobenius norm.

    Each matrix ``A`` runs ``POLAR_ITERS`` steps of the unscaled Newton polar
    iteration ``X <- (X + cof(X) / det(X)) / 2`` from ``X = A`` (Higham,
    "Computing the Polar Decomposition -- with Applications", 1986), on the
    batch's nine entry planes.  A matrix with ``det(A) > 0`` converges
    quadratically to the rotation of its polar decomposition; one within 10%
    of a rotation converges in four steps.  Rows with ``det(A) <= 0``, rows
    whose last step moved an entry by more than ``POLAR_TOL`` and rows that
    are not finite take the SVD projection ``U D Vt`` with
    ``D = diag(1, 1, det(U Vt))`` instead.  Every row's result depends on
    that row alone.
    """
    As = np.asarray(As, dtype=np.float64)
    X = As.reshape(-1, 9).T.copy()
    # a singular or non-finite row may divide by zero or overflow on the way;
    # it then fails the convergence test below and takes the SVD
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(POLAR_ITERS):
            f = X[_COFACTOR_GATHER]
            C = f[0] * f[1] - f[2] * f[3]
            det = (X[:3] * C[:3]).sum(axis=0)
            if k == 0:
                proper = det > 0
            X_prev, X = X, 0.5 * (X + C / det)
        newton = proper & np.all(np.abs(X - X_prev) <= POLAR_TOL, axis=0)
    out = X.T.reshape(As.shape)
    if not newton.all():
        out[~newton] = _project_rotations_svd(As[~newton])
    return out


def _a_blocks(X):
    """Each node's ``A_j``, as an (r, 3, 3) view of a state-shaped array."""
    return X.reshape(-1, 4, 3)[:, :3].transpose(0, 2, 1)


def rotation_residual(X):
    """Each node's ``A_j - proj(A_j)``, as an (r, 3, 3) array."""
    A = _a_blocks(X)
    rot = project_rotations(A)
    return np.subtract(A, rot, out=rot)


def reg_residual(g, X):
    """The D_ij residuals, one row per directed edge, ``B X - Y``."""
    return g.B @ X - g.Y


@dataclass(frozen=True)
class Deformed:
    """One state evaluated on a graph: what every energy reads of it."""

    X: np.ndarray          # (4r, 3) the state
    points: np.ndarray     # (n, 3) deformed source points, F X + P
    edges: np.ndarray      # (2e, 3) edge residuals, B X - Y
    rot: np.ndarray        # (r, 3, 3) rotation residuals, A_j - proj(A_j)


def deform(g, X, rot=None):
    """Evaluate state ``X`` on graph ``g``: one ``F X``, one ``B X`` and one
    batched rotation projection, unless the rotation residuals ``rot`` of
    ``X`` are given."""
    rot = rotation_residual(X) if rot is None else rot
    return Deformed(X, transform_points(g, X), reg_residual(g, X), rot)


@dataclass(frozen=True)
class Trial:
    """One state of an inner solve, evaluated around the solve's start."""

    X: np.ndarray              # (4r, 3) the state, X0 + step
    step: np.ndarray           # (4r, 3) X - X0
    curv: np.ndarray           # (4r, 3) 2 M step
    rot: np.ndarray            # (r, 3, 3) rotation residuals, A_j - proj(A_j)

    def along(self, X, lam, d, two_m_d):
        """The trial ``X = self.X + lam d``, given ``two_m_d = 2 M d``: one
        batched rotation projection and no product with ``2 M``."""
        return Trial(X, self.step + lam * d, self.curv + lam * two_m_d,
                     rotation_residual(X))


def total_energy(d: Deformed, corr, params: EnergyParams):
    """Alignment + alpha * smoothness + beta * rotation deviation at the
    evaluated state ``d``, against the correspondences ``corr``."""
    return (_kernel_sum(d.points - corr.positions, params.nu_a, params.kernel)
            + params.alpha * _kernel_sum(d.edges, params.nu_r, params.kernel)
            + params.beta * float(np.sum(d.rot ** 2)))


# ---------------------------------------------------------------------------
# surrogate system

@dataclass
class SurrogateSystem:
    """The majorizer of one MM step at the evaluated state ``start``: frozen
    targets and Gaussian weights, and the quadratic part's energy ``E0`` and
    gradient ``G0`` at the start, from its residuals.

    The energy and gradient read a :class:`Trial` around the start, in state
    space; the rotation term is exact."""

    graph: DeformationGraph
    start: Deformed          # the state the quadratic part is expanded around
    U: np.ndarray            # (n, 3) frozen correspondence targets
    wa: np.ndarray           # (n,) squared diagonal of W_a
    wr: np.ndarray           # (2e,) squared diagonal of W_r
    params: EnergyParams
    E0: float = field(init=False)
    G0: np.ndarray = field(init=False)

    def __post_init__(self):
        d, g, alpha = self.start, self.graph, self.params.alpha
        ra = d.points - self.U
        ea = float(np.sum(self.wa * np.sum(ra * ra, axis=1)))
        er = float(np.sum(self.wr * np.sum(d.edges * d.edges, axis=1)))
        self.E0 = ea + alpha * er
        self.G0 = 2.0 * (g.FT @ (self.wa[:, None] * ra)
                         + alpha * (g.BT @ (self.wr[:, None] * d.edges)))

    def energy(self, t: Trial):
        return (self.E0 + np.vdot(self.G0, t.step) + 0.5 * np.vdot(t.step, t.curv)
                + self.params.beta * np.vdot(t.rot, t.rot))

    def gradient(self, t: Trial):
        G = self.G0 + t.curv
        if self.params.beta != 0.0:
            # the rotation term acts on the A rows only
            A = _a_blocks(G)
            A += 2.0 * self.params.beta * t.rot
        return G

    def h0_diagonal(self):
        """The diagonal c that H0 adds to the quadratic part's Hessian
        ``2 M``: 2 beta on the A rows (the rotation term's curvature), plus
        ``SPD_JITTER`` everywhere, so that the factorization never hits an
        exactly singular translation row."""
        return np.tile([2.0 * self.params.beta] * 3 + [0.0], self.graph.n_nodes) + SPD_JITTER

    def assemble_H0(self):
        """The band of the quadratic part's Hessian
        ``2 M = 2 (F^T W_a^2 F + alpha B^T W_r^2 B)``, filled into the graph's
        fixed band by its :class:`nrreg.graph.H0Plan`.  H0 is
        ``2 M + diag(c)``; :func:`nrreg.solver.factor_h0` adds ``c``
        (:meth:`h0_diagonal`) to the copy it factors."""
        # doubling every weight is exact, so this is the doubled sum
        return self.graph.h0_plan.assemble(2.0 * self.wa, 2.0 * self.params.alpha * self.wr)


def gaussian_weight(sq_dist, nu):
    """Surrogate curvature weight: exp(-d^2 / (2 nu^2)) / (2 nu^2)."""
    return np.exp(-sq_dist / (2.0 * nu * nu)) / (2.0 * nu * nu)


def assemble_surrogate(g, d_k: Deformed, corr_k, params: EnergyParams) -> SurrogateSystem:
    """Quadratic majorizer of the robust energy at the evaluated state ``d_k``.

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
        ra = d_k.points - U
        wa = gaussian_weight(np.sum(ra * ra, axis=1), params.nu_a)
        wr = gaussian_weight(np.sum(d_k.edges * d_k.edges, axis=1), params.nu_r)
    return SurrogateSystem(g, d_k, U, wa, wr, params)
