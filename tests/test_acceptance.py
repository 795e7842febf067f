"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All registrations here run on synthetic grid meshes with deterministic
seeds, so every number below is exactly reproducible.  Criteria 7-9 share a
single ground-truth deformation (a smooth 10-degree twist represented
exactly by the deformation graph) and a fixed solver configuration; the
robustness ratios of criterion 8 are implementation-verified values.
"""

import time

import numpy as np
import pytest

from nrreg.correspond import CorrespondenceSet
from nrreg.energy import (EnergyParams, assemble_surrogate, deform, identity_state,
                          pack_state, reg_residual, rotation_residual, total_energy,
                          welsch)
from nrreg.evaluate import (GroundTruth, add_gaussian_normal_noise,
                            remove_region, rmse, synthesize_deformation)
from nrreg.geodesic import geodesic_from
from nrreg.graph import (build_graph, sample_nodes_farthest, sample_nodes_pca,
                         transform_points)
from nrreg.mesh import (Surface, compute_normals, mean_edge_length,
                        normalize_pair)
from nrreg.solver import LbfgsHistory, SolverParams, register, two_loop_direction

from conftest import grid_mesh, linear_twist
from oracles import dense, influence_list, residual_Dij, surrogate_at
from test_energy import random_graph, random_state
from test_solver import dense_bfgs_direction

# solver configuration shared by the synthetic-recovery and partial-overlap
# criteria (7 and 9): strong smoothness holds uncovered regions in place
RECOVERY_PARAMS = dict(k_alpha=7.0, k_beta=7.0, nu_a_min_factor=0.25,
                       nu_a_max_factor=2.0)
# configuration for the robustness orderings of criterion 8
ROBUST_PARAMS = dict(k_alpha=1.0, k_beta=1.0, nu_a_min_factor=0.25)


def _report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_correspondences(rng, n):
    return CorrespondenceSet(np.zeros(n, dtype=np.int64),
                             rng.uniform(size=(n, 3)),
                             np.zeros(n))


def run_registration(source, target, **kwargs):
    s_n, t_n, rec = normalize_pair(source, target)
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    t0 = time.perf_counter()
    res = register(s_n, t_n, SolverParams(**kwargs))
    elapsed = time.perf_counter() - t0
    denorm = rec.denormalize(res.transformed_source, "target")
    return res, denorm, rec, elapsed


def normalized_rmse(denorm, gt, rec, mask=None):
    if mask is not None:
        return rmse(denorm[mask], GroundTruth(gt.gt_positions[mask])) * rec.scale
    return rmse(denorm, gt) * rec.scale


# ---------------------------------------------------------------------------
# shared synthetic-deformation fixtures


@pytest.fixture(scope="module")
def twist_setup():
    """Source grid, graph, twist-deformed target, and ground truth."""
    src = compute_normals(grid_mesh(25, 25))
    g = build_graph(src)
    rots, trans = linear_twist(g, max_angle_deg=10.0, lift=0.02)
    target, gt = synthesize_deformation(src, g, rots, trans)
    return src, g, target, gt


@pytest.fixture(scope="module")
def recovery_registration(twist_setup):
    src, _, target, gt = twist_setup
    res, denorm, rec, elapsed = run_registration(src, target, **RECOVERY_PARAMS)
    err = normalized_rmse(denorm, gt, rec)
    return res, err, elapsed


@pytest.fixture(scope="module")
def self_registration():
    src = compute_normals(grid_mesh(40, 40))   # 1600 vertices
    res, _, _, elapsed = run_registration(src, src)
    s_n, t_n, _ = normalize_pair(src, src)
    err = rmse(res.transformed_source, GroundTruth(t_n.vertices))
    return res, err, elapsed


@pytest.fixture(scope="module")
def robustness_registrations(twist_setup):
    """Welsch and l2 runs on 20%-outlier and 50%-noise corruptions."""
    src, _, target, gt = twist_setup
    lbar_t = mean_edge_length(target)

    rng = np.random.default_rng(7)
    n = target.n_vertices
    out_idx = rng.choice(n, size=n // 5, replace=False)
    v = target.vertices.copy()
    v[out_idx] += 5.0 * lbar_t * target.normals[out_idx]
    outlier_target = compute_normals(Surface(v, target.faces.copy()))

    noise_target = add_gaussian_normal_noise(target, 0.5, lbar_t, rng_seed=11)

    results = {}
    for name, tgt in (("outliers", outlier_target), ("noise", noise_target)):
        for kernel in ("welsch", "l2"):
            res, denorm, rec, _ = run_registration(
                src, tgt, kernel=kernel, **ROBUST_PARAMS)
            results[(name, kernel)] = (res, normalized_rmse(denorm, gt, rec))
    return results


@pytest.fixture(scope="module")
def partial_registration(twist_setup):
    src, _, target, gt = twist_setup
    seed = 312                                     # grid center
    d = dense(geodesic_from(target, seed), target.n_vertices)
    radius = float(np.quantile(d, 0.2))            # ball holding ~20% of points
    partial, keep = remove_region(target, seed, radius)
    res, denorm, rec, _ = run_registration(src, partial, **RECOVERY_PARAMS)
    err_kept = normalized_rmse(denorm, gt, rec, mask=keep)
    return res, err_kept, keep


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(25):
        r = int(rng.integers(3, 11))
        n = int(rng.integers(50, 501))
        g = random_graph(rng, r, n)
        X = random_state(rng, r)
        corr = random_correspondences(rng, n)
        sys = assemble_surrogate(g, deform(g, X), corr,
                                 EnergyParams(0.2, 0.25, 0.8, 1.2))
        _, G = surrogate_at(sys, X)
        h = 1e-5
        fd = np.zeros_like(X)
        for a in range(X.shape[0]):
            for b in range(3):
                Xp = X.copy(); Xp[a, b] += h
                Xm = X.copy(); Xm[a, b] -= h
                fd[a, b] = (surrogate_at(sys, Xp)[0] - surrogate_at(sys, Xm)[0]) / (2 * h)
        rel = np.linalg.norm(G - fd) / max(np.linalg.norm(fd), 1e-12)
        ok &= rel < 1e-4
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 1, "surrogate gradient vs finite differences", ok)


def test_criterion_02_majorization(capsys):
    rng = np.random.default_rng(102)
    ok = True
    checked = 0
    for _ in range(5):
        g = random_graph(rng, 5, 80)
        Xk = random_state(rng, 5)
        corr = random_correspondences(rng, 80)
        params = EnergyParams(0.15, 0.2, 0.7, 1.1)
        sys = assemble_surrogate(g, deform(g, Xk), corr, params)

        def frozen(X):
            da = np.linalg.norm(g.F @ X + g.P - sys.U, axis=1)
            dr = np.linalg.norm(g.B @ X - g.Y, axis=1)
            return (float(np.sum(welsch(da, params.nu_a)))
                    + params.alpha * float(np.sum(welsch(dr, params.nu_r)))
                    + params.beta * float(np.sum(rotation_residual(X) ** 2)))

        e0s, e0f = surrogate_at(sys, Xk)[0], frozen(Xk)
        for _ in range(220):
            X = Xk + rng.normal(size=Xk.shape) * rng.uniform(0.005, 0.6)
            if surrogate_at(sys, X)[0] - e0s < frozen(X) - e0f - 1e-10:
                ok = False
            checked += 1
    ok &= checked >= 1000
    _report(capsys, 2, "surrogate majorizes the robust energy", ok)


def test_criterion_03_matrix_form(capsys):
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(5):
        g = random_graph(rng, 5, 120)
        X = random_state(rng, 5)
        corr = random_correspondences(rng, 120)
        params = EnergyParams(0.2, 0.3, 0.9, 1.4)
        sys = assemble_surrogate(g, deform(g, X), corr, params)

        # scalar-loop alignment term: sum_i w_i^a |v~_i - u_i|^2
        from nrreg.energy import unpack_state
        A, t = unpack_state(X)
        align_loop = 0.0
        for i in range(g.n_points):
            moved = np.zeros(3)
            for j, w in influence_list(g, i):
                v = g.source_positions[i]
                p = g.node_positions[j]
                moved += w * (A[j] @ (v - p) + p + t[j])
            align_loop += sys.wa[i] * float(np.sum((moved - sys.U[i]) ** 2))

        # scalar-loop smoothness term: sum over directed edges of w^r |D_ij|^2
        from nrreg.graph import directed_edges
        reg_loop = 0.0
        for k, (i, j) in enumerate(directed_edges(g)):
            D = residual_Dij(X, i, j, g.node_positions)
            reg_loop += sys.wr[k] * float(np.sum(D ** 2))

        ra = deform(g, X).points - sys.U
        align_mat = float(np.sum(sys.wa * np.sum(ra * ra, axis=1)))
        rr = reg_residual(g, X)
        reg_mat = float(np.sum(sys.wr * np.sum(rr * rr, axis=1)))
        ok &= abs(align_mat - align_loop) <= 1e-10 * max(1.0, align_loop)
        ok &= abs(reg_mat - reg_loop) <= 1e-10 * max(1.0, reg_loop)
    _report(capsys, 3, "matrix forms equal scalar-loop energies", ok)


def test_criterion_04_two_loop(capsys):
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(10):
        n = 12                                     # (4, 3) state, <= 20 variables
        M = rng.normal(size=(n, n))
        H0 = M @ M.T + n * np.eye(n)
        hist = LbfgsHistory(5)
        for _ in range(int(rng.integers(0, 6))):
            S = rng.normal(size=(4, 3))
            T = rng.normal(size=(4, 3))
            # keep the curvature solidly positive so both formulations are
            # well conditioned
            while float(np.sum(S * T)) < 0.2 * np.linalg.norm(S) * np.linalg.norm(T):
                T = rng.normal(size=(4, 3))
            hist.push(S, T, (H0 @ S.ravel()).reshape(S.shape))
        grad = rng.normal(size=(4, 3))
        d, _ = two_loop_direction(
            hist, grad,
            lambda Q: np.linalg.solve(H0, Q.reshape(n)).reshape(Q.shape))
        expected = dense_bfgs_direction(hist.pairs, grad, np.linalg.inv(H0))
        ok &= np.abs(d - expected).max() < 1e-8
    _report(capsys, 4, "two-loop recursion vs dense BFGS oracle", ok)


def test_criterion_05_mm_descent(capsys, self_registration,
                                 recovery_registration,
                                 robustness_registrations,
                                 partial_registration):
    traces = [self_registration[0].energy_trace,
              recovery_registration[0].energy_trace,
              partial_registration[0].energy_trace]
    traces += [res.energy_trace
               for res, _ in robustness_registrations.values()]
    ok = True
    for trace in traces:
        by_stage = {}
        for row in trace:
            by_stage.setdefault(row.stage, []).append(row.energy)
        for es in by_stage.values():
            for a, b in zip(es, es[1:]):
                if b > a + 1e-12 * max(1.0, abs(a)):
                    ok = False
    _report(capsys, 5, "energy non-increasing within each nu stage", ok)


def test_criterion_06_self_registration(capsys, self_registration):
    _, err, elapsed = self_registration
    ok = err < 1e-6 and elapsed < 5.0
    _report(capsys, 6, f"self-registration rmse {err:.2e} in {elapsed:.2f}s", ok)


def test_criterion_07_synthetic_recovery(capsys, recovery_registration):
    _, err, elapsed = recovery_registration
    ok = err < 1e-3 and elapsed < 60.0
    _report(capsys, 7, f"10-degree twist recovery rmse {err:.2e}", ok)


def test_criterion_08_robustness_ordering(capsys, robustness_registrations):
    r = robustness_registrations
    out_w = r[("outliers", "welsch")][1]
    out_l2 = r[("outliers", "l2")][1]
    noise_w = r[("noise", "welsch")][1]
    noise_l2 = r[("noise", "l2")][1]
    ok = out_w < out_l2 and noise_w <= 0.5 * noise_l2
    _report(capsys, 8,
            f"robustness welsch/l2: outliers {out_w / out_l2:.2f}, "
            f"noise {noise_w / noise_l2:.2f}", ok)


def test_criterion_09_partial_overlap(capsys, recovery_registration,
                                      partial_registration):
    _, full_err, _ = recovery_registration
    _, part_err, keep = partial_registration
    removed = 1.0 - keep.mean()
    ok = part_err < 2.0 * full_err and 0.15 < removed < 0.25
    _report(capsys, 9,
            f"partial overlap rmse ratio {part_err / full_err:.2f} "
            f"({removed:.0%} removed)", ok)


def test_criterion_10_sampling(capsys):
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(22):
        nx = int(rng.integers(8, 16))
        ny = int(rng.integers(8, 16))
        s = grid_mesh(nx, ny, wavy=float(rng.uniform(0.0, 0.15)))
        R = 5 * mean_edge_length(s)
        n_pca = len(sample_nodes_pca(s, R)[0])
        n_far = len(sample_nodes_farthest(s, R)[0])
        ok &= n_pca <= n_far
        ok &= len(sample_nodes_pca(s, R / 2)[0]) > n_pca
    _report(capsys, 10, "pca <= farthest node count; R/2 adds nodes", ok)


def test_criterion_11_l0_limit(capsys, grid25):
    g = build_graph(grid25)
    X = identity_state(g.n_nodes)
    moved = transform_points(g, X)
    positions = moved.copy()
    off = np.arange(g.n_points) % 3 == 0      # a third of the residuals
    positions[off] += [0.0, 0.0, 1e-2]        # well above the 1e-4 threshold
    corr = CorrespondenceSet(np.arange(g.n_points), positions,
                             np.zeros(g.n_points))
    # with alpha = beta = 0 the total energy is the alignment term alone
    e = total_energy(deform(g, X), corr, EnergyParams(1e-6, 1.0, 0.0, 0.0))
    count = int(off.sum())
    ok = abs(e - count) <= 1e-6
    _report(capsys, 11, f"welsch at nu=1e-6 counts residuals ({e:.6f} vs {count})", ok)


def test_criterion_12_determinism(capsys, tmp_path, twist_setup):
    src, _, target, _ = twist_setup
    paths = []
    for tag in ("a", "b"):
        res, _, _, _ = run_registration(src, target, **RECOVERY_PARAMS)
        p = tmp_path / f"trace_{tag}.csv"
        res.write_trace_csv(p)
        paths.append(p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    _report(capsys, 12, "identical runs give byte-identical trace CSVs", ok)
