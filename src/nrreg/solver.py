"""Registration driver: L-BFGS inner solver and the annealed MM outer loop.

Each outer iteration freezes the closest-point targets and Gaussian weights,
then minimizes the resulting quadratic-plus-rotation surrogate with L-BFGS.
The kernel widths start wide and are halved between stages until the
alignment width reaches its floor, which trades off coarse alignment against
outlier suppression.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse.linalg import splu

from .correspond import (DEFAULT_EPS_D, DEFAULT_ICP_ITERS, DEFAULT_THETA_DEG,
                         SpatialIndex, find_correspondences, lift_rigid_to_state,
                         rigid_icp_init)
from .energy import KERNELS, EnergyParams, assemble_surrogate, deform, total_energy
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
    icp_iters: int = DEFAULT_ICP_ITERS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise InvalidInputError(f"{f.name} must be finite")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidInputError("gamma must lie in (0, 1)")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise InvalidInputError("tolerances must be positive")
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
        for name in ("radius_factor", "nu_r_max_factor"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be positive")


class LbfgsHistory:
    """Ring buffer of (state difference, gradient difference) pairs."""

    def __init__(self, m):
        self.pairs = deque(maxlen=m)   # (S, T, rho), oldest first

    def push(self, S, T):
        rho = float(np.sum(T * S))
        # curvature safeguard: the recursion divides by rho
        if abs(rho) <= CURVATURE_EPS * np.linalg.norm(S) * np.linalg.norm(T):
            return False
        self.pairs.append((S, T, rho))
        return True

    def clear(self):
        self.pairs.clear()

    def __len__(self):
        return len(self.pairs)


def two_loop_direction(hist: LbfgsHistory, grad, h0_solve):
    """L-BFGS descent direction from the two-loop recursion.

    ``h0_solve`` applies the inverse of the initial Hessian approximation.
    With an empty history this is a plain ``-H0^{-1} grad`` step.
    """
    Q = -grad
    xis = []
    for S, T, rho in reversed(hist.pairs):
        xi = float(np.sum(S * Q)) / rho
        Q = Q - xi * T
        xis.append(xi)
    xis.reverse()               # align with oldest-first iteration below
    R = h0_solve(Q)
    for (S, T, rho), xi in zip(hist.pairs, xis):
        eta = float(np.sum(T * R)) / rho
        R = R + S * (xi - eta)
    return R


def line_search(energy_fn, X, d, E0, g_dot_d, gamma):
    """Backtracking from step 1, halving until sufficient decrease holds.

    Returns ``(lam, X_new, E_new)`` or ``None`` if no step above the floor is
    accepted.
    """
    lam = 1.0
    while lam >= MIN_STEP:
        X_new = X + lam * d
        E_new = energy_fn(X_new)
        if E_new <= E0 + gamma * lam * g_dot_d:
            return lam, X_new, E_new
        lam *= 0.5
    return None


def factor_h0(H0):
    """Sparse LU of the symmetric positive definite H0 in SuperLU's symmetric
    mode: a minimum-degree ordering of ``H0 + H0^T`` and diagonal pivots.
    Raises ``SolverError`` if the factorization fails."""
    try:
        return splu(H0, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"H0 factorization failed: {exc}") from exc


def solve_inner(sys, start, params: SolverParams):
    """Minimize one surrogate with L-BFGS; H0 is factored once and reused.

    ``start`` is the evaluated state (:func:`nrreg.energy.deform`) to start
    from; returns the evaluated state it stops at.  Each point is evaluated
    once: the line search's trial evaluation serves the gradient at the
    accepted point too.
    """
    h0_solve = factor_h0(sys.assemble_H0()).solve   # multi-column right-hand sides at once

    trial = None

    def trial_energy(X):
        # the last point evaluated is the accepted one if the search succeeds
        nonlocal trial
        trial = deform(sys.graph, X)
        return sys.energy(trial)

    hist = LbfgsHistory(params.m)
    cur = start
    E = sys.energy(cur)
    G = sys.gradient(cur)
    for _ in range(MAX_INNER_ITERS):
        d = two_loop_direction(hist, G, h0_solve)
        gd = float(np.sum(G * d))
        if gd >= 0.0:
            hist.clear()
            d = -h0_solve(G)
            gd = float(np.sum(G * d))
            if gd >= 0.0:
                d = -G
                gd = float(np.sum(G * d))
                if gd >= 0.0:   # zero gradient: already stationary
                    break
        step = line_search(trial_energy, cur.X, d, E, gd, params.gamma)
        if step is None:
            # one steepest-descent retry, then give up on this surrogate
            d = -G
            gd = float(np.sum(G * d))
            step = line_search(trial_energy, cur.X, d, E, gd, params.gamma)
            if step is None:
                break
        _, X_new, E_new = step
        G_new = sys.gradient(trial)
        hist.push(X_new - cur.X, G_new - G)
        decrease = E - E_new
        cur, E, G = trial, E_new, G_new
        if decrease < params.eps1:
            break
    return cur


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
    termination_reasons: list[str]
    graph: object = None
    rigid_init: object = None

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
    frame, with normals present.  Returns the final node transforms, the
    deformed source points, and the per-outer-iteration trace.
    """
    if params is None:
        params = SolverParams()
    if source.n_vertices == 0 or target.n_vertices == 0:
        raise InvalidInputError("empty surface")

    t_start = time.perf_counter()
    l_bar = mean_edge_length(source)
    if graph is None:
        graph = build_graph(source, R=params.radius_factor * l_bar,
                            sampler=params.sampler)
    if graph.n_nodes == 0:
        raise InvalidInputError("empty deformation graph")

    index = SpatialIndex(target.vertices)
    rigid = None
    if initial_state is None:
        rigid = rigid_icp_init(source, target, iters=params.icp_iters,
                               eps_d=params.eps_d, theta=params.theta, index=index)
        X = lift_rigid_to_state(rigid, graph)
    else:
        X = np.array(initial_state, dtype=np.float64)

    cur = deform(graph, X)
    corr0 = find_correspondences(cur.points, target, index)
    d_bar = float(np.median(corr0.distances))

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
    # the evaluated state and the correspondences of the current X carry
    # over from one outer iteration, and from one stage, to the next
    corr = corr0
    for stage, (nu_a, nu_r) in enumerate(stages):
        eparams = EnergyParams(nu_a, nu_r, alpha, beta, params.kernel)
        reason = "i_max"
        for k in range(params.i_max):
            sys = assemble_surrogate(graph, cur, corr, eparams)
            new = solve_inner(sys, cur, params)
            max_disp = float(np.max(np.linalg.norm(new.points - cur.points, axis=1)))
            corr = find_correspondences(new.points, target, index)
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
        graph=graph,
        rigid_init=rigid,
    )
