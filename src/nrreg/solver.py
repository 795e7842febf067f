"""Registration driver: L-BFGS inner solver and the annealed MM outer loop.

Each outer iteration freezes the closest-point targets and Gaussian weights,
then minimizes the resulting quadratic-plus-rotation surrogate with L-BFGS.
The kernel widths start wide and are halved between stages until the
alignment width reaches its floor, which trades off coarse alignment against
outlier suppression.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import lapack
# perfbench traces splu at this lookup site; the solver factors H0 by band
# Cholesky (factor_h0)
from scipy.sparse.linalg import splu  # noqa: F401

from .correspond import (DEFAULT_EPS_D, DEFAULT_ICP_ITERS, DEFAULT_THETA_DEG,
                         find_correspondences, lift_rigid_to_state, rigid_icp_init)
from .energy import (KERNELS, EnergyParams, Trial, assemble_surrogate, deform,
                     total_energy)
from .errors import InvalidInputError, SolverError
from .graph import DEFAULT_RADIUS_FACTOR, SAMPLERS, build_graph
# perfbench traces transform_points at this lookup site too; the solver itself
# reads deformed points from the evaluated state (energy.deform)
from .graph import transform_points  # noqa: F401
from .mesh import Surface, mean_edge_length

CURVATURE_EPS = 1e-12
MIN_STEP = 1e-12
MAX_INNER_ITERS = 500


@dataclass
class SolverParams:
    """All solver knobs, with the defaults used throughout."""

    m: int = 5                      # L-BFGS history size
    gamma: float = 0.3              # sufficient-decrease constant
    eps1: float = 1e-3              # inner energy-decrease tolerance
    eps2: float = 1e-3              # outer max-displacement tolerance
    i_max: int = 100                # outer iteration cap per annealing stage
    k_alpha: float = 1.0
    k_beta: float = 1.0
    nu_a_max_factor: float = 10.0   # x median initial correspondence distance
    nu_a_min_factor: float = 0.5    # x mean source edge length
    nu_r_max_factor: float = 40.0   # x mean source edge length
    fixed_nu: bool = False          # skip annealing (run once at the floor values)
    sampler: str = "pca"
    radius_factor: float = DEFAULT_RADIUS_FACTOR
    kernel: str = "welsch"
    eps_d: float = DEFAULT_EPS_D
    theta: float = DEFAULT_THETA_DEG
    icp_iters: int = DEFAULT_ICP_ITERS   # cap on rigid ICP; it stops once its pairs repeat

    def __post_init__(self):
        # each field is checked by its annotation, read as a string
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and math.isfinite(value))):
                raise InvalidInputError(f"{f.name} must be a finite real number, got {value!r}")
            elif f.type == "int" and (isinstance(value, bool)
                                      or not isinstance(value, (int, np.integer))):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            elif f.type == "bool" and not isinstance(value, (bool, np.bool_)):
                raise InvalidInputError(f"{f.name} must be a bool, got {value!r}")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidInputError("gamma must lie in (0, 1)")
        if self.nu_a_max_factor < self.nu_a_min_factor or self.nu_a_min_factor <= 0:
            raise InvalidInputError("need nu_a_max >= nu_a_min > 0")
        if self.kernel not in KERNELS:
            raise InvalidInputError(f"unknown kernel {self.kernel!r}")
        if self.sampler not in SAMPLERS:
            raise InvalidInputError(f"unknown sampler {self.sampler!r}")
        for name, low in (("m", 1), ("i_max", 1), ("icp_iters", 0),
                          ("k_alpha", 0.0), ("k_beta", 0.0)):
            if not getattr(self, name) >= low:
                raise InvalidInputError(f"{name} must be at least {low}")
        for name in ("eps1", "eps2", "radius_factor", "nu_r_max_factor", "eps_d"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be positive")
        if not 0.0 < self.theta <= 180.0:
            raise InvalidInputError("theta must lie in (0, 180] degrees")


class LbfgsHistory:
    """Ring buffer of (state difference, gradient difference) pairs.

    Only pairs of positive curvature ``rho = <S, T>`` are kept: with every
    stored rho positive and H0 positive definite, the inverse Hessian the
    two-loop recursion applies is positive definite, so its direction
    descends wherever the gradient is nonzero."""

    def __init__(self, m):
        self.pairs = deque(maxlen=m)   # (S, T, rho, Z), oldest first

    def push(self, S, T, Z):
        """Store the pair and ``Z = H0 S`` if ``rho > CURVATURE_EPS |S| |T|``."""
        rho = np.vdot(T, S)
        if not rho > CURVATURE_EPS * np.sqrt(np.vdot(S, S) * np.vdot(T, T)):
            return False
        self.pairs.append((S, T, rho, Z))
        return True

    def __len__(self):
        return len(self.pairs)


def two_loop_direction(hist: LbfgsHistory, grad, h0_solve):
    """L-BFGS descent direction ``d`` from the two-loop recursion, and ``H0 d``.

    ``h0_solve`` applies the inverse of the initial Hessian approximation
    H0.  With an empty history ``d`` is a plain ``-H0^{-1} grad`` step.
    ``H0 d`` is ``Q``, the first loop's output, plus each pair's ``Z = H0 S``
    times the coefficient the second loop adds ``S`` with: no product.
    """
    Q = -grad
    xis = []
    for S, T, rho, _ in reversed(hist.pairs):
        xi = np.vdot(S, Q) / rho
        Q = Q - xi * T
        xis.append(xi)
    xis.reverse()               # align with oldest-first iteration below
    R, H0R = h0_solve(Q), Q
    for (S, T, rho, Z), xi in zip(hist.pairs, xis):
        eta = np.vdot(T, R) / rho
        R = R + S * (xi - eta)
        H0R = H0R + Z * (xi - eta)
    return R, H0R


def line_search(trial_at, E0, g_dot_d, gamma):
    """Backtracking from step 1, halving until sufficient decrease holds.
    ``trial_at(lam)`` returns the trial at step ``lam`` along the direction
    and its energy.

    Returns ``(lam, trial, E)`` or ``None`` if no step above the floor is
    accepted.
    """
    lam = 1.0
    while lam >= MIN_STEP:
        trial, E = trial_at(lam)
        if E <= E0 + gamma * lam * g_dot_d:
            return lam, trial, E
        lam *= 0.5
    return None


@dataclass(frozen=True)
class H0Factor:
    """The band Cholesky factor of H0 (:func:`factor_h0`)."""

    L: np.ndarray       # (bw + 1, 4r) lower band storage of the Cholesky factor
    rows: np.ndarray    # (4r,) state row at each band position

    def solve(self, rhs):
        """``H0^{-1} rhs`` for a (4r, k) array, by ``dpbtrs`` in band order."""
        x, _ = lapack.dpbtrs(self.L, rhs[self.rows], lower=1)
        out = np.empty(x.shape)
        out[self.rows] = x
        return out


def factor_h0(two_m, c):
    """Cholesky factor ``L L^T`` of the symmetric positive definite
    ``H0 = 2 M + diag(c)``, by LAPACK's band Cholesky ``dpbtrf``.  ``two_m``
    is the :class:`nrreg.graph.BandMatrix` of ``2 M``, in the graph's reverse
    Cuthill-McKee node order, and ``c`` the (4r,) diagonal, by state row; it
    is added to one copy of the band, which ``dpbtrf`` factors in place.
    Raises ``SolverError`` if H0 is not positive definite."""
    band = np.array(two_m.band, order="F")
    band[0] += c[two_m.rows]
    L, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"H0 is not positive definite (dpbtrf info {info})")
    return H0Factor(L, two_m.rows)


def solve_inner(sys, params: SolverParams):
    """Minimize one surrogate with L-BFGS; H0 is factored once and reused.

    The solve starts from the surrogate's own ``start``, the evaluated state
    (:func:`nrreg.energy.deform`) whose quadratic part it holds, and every
    line-search trial is evaluated in state space
    (:meth:`nrreg.energy.Trial.along`): one batched rotation projection, no
    pass over the source points and no product with ``2 M``, since each
    direction's ``2 M d`` is ``H0 d - c d`` with ``H0 d`` from the two-loop
    recursion.  An accepted step ``lam d`` is stored with ``H0 S = lam H0 d``;
    the difference of its trials' ``2 M S`` would lose to cancellation once
    steps are small.  The trial evaluation serves the gradient at the
    accepted point too.  Only the state the solve stops at is deformed.

    Returns ``(end, reason)``: the evaluated state it stops at and why it
    stopped: ``tolerance`` (the energy decrease fell below ``eps1``),
    ``line_search`` (no step passed the line search), ``iteration_cap``
    (``MAX_INNER_ITERS`` ran out) or ``stationary`` (a zero gradient; any
    other gives a descent direction, see :class:`LbfgsHistory`).
    """
    c = sys.h0_diagonal()[:, None]
    h0_solve = factor_h0(sys.assemble_H0(), c.ravel()).solve
    start = sys.start
    zero = np.zeros(start.X.shape)
    first = cur = Trial(start.X, zero, zero, start.rot)

    def trial_at(lam):
        trial = cur.along(lam, d, two_m_d)
        return trial, sys.energy(trial)

    hist = LbfgsHistory(params.m)
    E = sys.energy(cur)
    G = sys.gradient(cur)
    reason = "iteration_cap"
    for _ in range(MAX_INNER_ITERS):
        d, h0_d = two_loop_direction(hist, G, h0_solve)
        gd = np.vdot(G, d)
        if gd >= 0.0:
            reason = "stationary"
            break
        two_m_d = h0_d - c * d
        step = line_search(trial_at, E, gd, params.gamma)
        if step is None:
            reason = "line_search"
            break
        lam, trial, E_new = step
        G_new = sys.gradient(trial)
        hist.push(lam * d, G_new - G, lam * h0_d)
        decrease = E - E_new
        cur, E, G = trial, E_new, G_new
        if decrease < params.eps1:
            reason = "tolerance"
            break
    if cur is first:
        return start, reason
    return deform(sys.graph, cur.X, cur.rot), reason


@dataclass
class TraceRow:
    stage: int
    outer_iter: int
    nu_a: float
    nu_r: float
    energy: float
    max_disp: float
    elapsed_seconds: float


@dataclass
class RegistrationResult:
    final_state: np.ndarray
    transformed_source: np.ndarray
    energy_trace: list[TraceRow]
    termination_reasons: list[str]      # one per annealing stage
    inner_reasons: list[str]            # one per outer iteration, see solve_inner
    graph: object = None
    rigid_init: object = None           # rigid ICP's transform; None on a warm start
    icp_iterations: int = 0             # rigid ICP iterations run
    icp_reason: str | None = None       # why ICP stopped: fixed_point or iteration_cap

    def write_trace_csv(self, path, include_timing=False):
        """One row per outer iteration.  Timing is off by default so that
        identical runs produce byte-identical files."""
        cols = "stage,outer_iter,nu_a,nu_r,energy,max_disp"
        if include_timing:
            cols += ",elapsed_seconds"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cols + "\n")
            for row in self.energy_trace:
                line = (f"{row.stage},{row.outer_iter},{row.nu_a:.12g},"
                        f"{row.nu_r:.12g},{row.energy:.12g},{row.max_disp:.12g}")
                if include_timing:
                    line += f",{row.elapsed_seconds:.6f}"
                fh.write(line + "\n")


def anneal_schedule(nu_a_max, nu_a_min, nu_r_max):
    """The (nu_a, nu_r) of each annealing stage: both widths start at their
    maxima and halve together until nu_a reaches its floor ``nu_a_min``."""
    stages = [(nu_a_max, nu_r_max)]
    while stages[-1][0] > nu_a_min:
        nu_a, nu_r = stages[-1]
        stages.append((max(0.5 * nu_a, nu_a_min), 0.5 * nu_r))
    return stages


def register(source: Surface, target: Surface, params: SolverParams | None = None,
             graph=None, initial_state=None):
    """Align the source surface to the target point set.

    Both surfaces are expected preprocessed: normalized to the common unit
    frame, with normals present.  Only rigid ICP reads the normals, and
    only when ``initial_state`` is None, so a warm start computes none of
    the :class:`~nrreg.mesh.LazyNormals` that
    :func:`~nrreg.mesh.compute_normals` gives.  ICP reads all of a mesh's;
    of a point cloud's it reads the source's rows and the target's rows at
    its closest points, each estimated on its first read.  Closest points
    are queried on the target's one k-d tree, which a cloud target's
    normals share.  A given ``graph`` must have as many points as the
    source, and an ``initial_state`` must be a finite (4r, 3) state of the
    graph's r nodes, or ``InvalidInputError`` is raised.  Returns the final
    node transforms, the deformed source points, and the
    per-outer-iteration trace.
    """
    if params is None:
        params = SolverParams()
    if source.n_vertices == 0 or target.n_vertices == 0:
        raise InvalidInputError("empty surface")
    if graph is not None and graph.n_points != source.n_vertices:
        raise InvalidInputError(f"the graph was built on {graph.n_points} points, "
                                f"the source has {source.n_vertices}")

    t_start = time.perf_counter()
    l_bar = mean_edge_length(source)
    if graph is None:
        graph = build_graph(source, R=params.radius_factor * l_bar,
                            sampler=params.sampler)
    if graph.n_nodes == 0:
        raise InvalidInputError("empty deformation graph")

    icp = corr = None
    if initial_state is None:
        icp = rigid_icp_init(source, target, iters=params.icp_iters,
                             eps_d=params.eps_d, theta=params.theta)
        X = lift_rigid_to_state(icp.transform, graph)
        corr = icp.correspondences
    else:
        X = np.array(initial_state, dtype=np.float64)
        if X.shape != (4 * graph.n_nodes, 3):
            raise InvalidInputError(f"initial_state must be ({4 * graph.n_nodes}, 3) for the "
                                    f"graph's {graph.n_nodes} nodes, got {X.shape}")
        if not np.isfinite(X).all():
            raise InvalidInputError("initial_state must be finite")

    cur = deform(graph, X)
    # ICP's last closest points certify most rows of the rigidly moved source
    corr = find_correspondences(cur.points, target, previous=corr)
    d_bar = float(np.median(corr.distances))

    nu_a_min = params.nu_a_min_factor * l_bar
    stages = anneal_schedule(max(params.nu_a_max_factor * d_bar, nu_a_min), nu_a_min,
                             params.nu_r_max_factor * l_bar)
    if params.kernel == "l2":
        stages = stages[:1]
    elif params.fixed_nu:
        # ablation mode: single stage at the values annealing would end with
        stages = stages[-1:]

    n = source.n_vertices
    n_edges = max(len(graph.node_edges), 1)
    alpha = params.k_alpha * n / n_edges
    beta = params.k_beta * n / graph.n_nodes

    trace = []
    reasons = []
    inner_reasons = []
    # the evaluated state and the correspondences of the current X carry
    # over from one outer iteration, and from one stage, to the next
    for stage, (nu_a, nu_r) in enumerate(stages):
        eparams = EnergyParams(nu_a, nu_r, alpha, beta, params.kernel)
        reason = "i_max"
        for k in range(params.i_max):
            sys = assemble_surrogate(graph, cur, corr, eparams)
            new, inner_reason = solve_inner(sys, params)
            inner_reasons.append(inner_reason)
            max_disp = float(np.max(np.linalg.norm(new.points - cur.points, axis=1)))
            corr = find_correspondences(new.points, target, previous=corr)
            energy = total_energy(new, corr, eparams)
            trace.append(TraceRow(stage, k, nu_a, nu_r, energy, max_disp,
                                  time.perf_counter() - t_start))
            cur = new
            if max_disp < params.eps2:
                reason = "converged"
                break
        reasons.append(f"stage {stage}: {reason}")

    return RegistrationResult(
        final_state=cur.X,
        transformed_source=cur.points,
        energy_trace=trace,
        termination_reasons=reasons,
        inner_reasons=inner_reasons,
        graph=graph,
        rigid_init=None if icp is None else icp.transform,
        icp_iterations=0 if icp is None else icp.iterations,
        icp_reason=None if icp is None else icp.reason,
    )
