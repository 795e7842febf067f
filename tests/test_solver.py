import numpy as np
import pytest

import nrreg.energy
import nrreg.solver
from nrreg.correspond import CorrespondenceSet
from nrreg.energy import EnergyParams, assemble_surrogate, deform, identity_state
from nrreg.errors import InvalidInputError
from nrreg.evaluate import GroundTruth, rmse
from nrreg.graph import build_graph
from nrreg.mesh import Surface, compute_normals, mean_edge_length, normalize_pair
from nrreg.solver import (LbfgsHistory, RegistrationResult, SolverParams,
                          TraceRow, anneal_schedule, line_search, register,
                          solve_inner, two_loop_direction)

from conftest import grid_mesh, rot_z
from test_energy import random_graph, random_state


def test_params_validation():
    with pytest.raises(InvalidInputError):
        SolverParams(gamma=1.5)
    with pytest.raises(InvalidInputError):
        SolverParams(eps1=0.0)
    with pytest.raises(InvalidInputError):
        SolverParams(nu_a_max_factor=0.1, nu_a_min_factor=0.5)


@pytest.mark.parametrize("field, value", [
    ("i_max", 0), ("radius_factor", 0.0), ("radius_factor", float("nan")),
    ("k_alpha", -1.0), ("k_beta", -0.5), ("k_alpha", float("nan")),
    ("m", 0), ("icp_iters", -1)])
def test_params_reject_out_of_range_counts_and_factors(field, value):
    with pytest.raises(InvalidInputError, match=field):
        SolverParams(**{field: value})


def test_params_accept_boundary_values():
    p = SolverParams(icp_iters=0, k_alpha=0.0, k_beta=0.0, m=1, i_max=1)
    assert (p.icp_iters, p.m, p.i_max) == (0, 1, 1)


def test_params_reject_unknown_kernel_and_sampler():
    # caught at construction, before any mesh is loaded or graph built
    with pytest.raises(InvalidInputError, match="kernel"):
        SolverParams(kernel="l1")
    with pytest.raises(InvalidInputError, match="sampler"):
        SolverParams(sampler="grid")


def test_history_ring_buffer_and_curvature_guard():
    hist = LbfgsHistory(2)
    rng = np.random.default_rng(0)
    S = rng.normal(size=(4, 3))
    assert hist.push(S, S)                  # positive curvature
    assert not hist.push(S, np.zeros((4, 3)))   # rho = 0 rejected
    assert len(hist) == 1
    hist.push(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)) + 5)
    hist.push(S + 1, S + 1)
    assert len(hist) == 2                   # oldest pair dropped


def dense_bfgs_direction(pairs, grad, H0_inv):
    """Explicit inverse-Hessian BFGS oracle on flattened variables."""
    H = H0_inv.copy()
    n = H.shape[0]
    for S, T, _ in pairs:                    # oldest first
        s = S.ravel()[:, None]
        y = T.ravel()[:, None]
        rho = 1.0 / float(s.ravel() @ y.ravel())
        V = np.eye(n) - rho * (y @ s.T)
        H = V.T @ H @ V + rho * (s @ s.T)
    return (-H @ grad.ravel()).reshape(grad.shape)


def test_two_loop_matches_dense_bfgs():
    rng = np.random.default_rng(1)
    n = 12                                   # one node: (4, 3) state
    M = rng.normal(size=(n, n))
    H0 = M @ M.T + n * np.eye(n)
    H0_inv = np.linalg.inv(H0)

    hist = LbfgsHistory(5)
    for _ in range(4):
        S = rng.normal(size=(4, 3))
        T = rng.normal(size=(4, 3))
        if float(np.sum(S * T)) < 0:
            T = -T
        hist.push(S, T)
    grad = rng.normal(size=(4, 3))
    d = two_loop_direction(hist, grad,
                           lambda Q: np.linalg.solve(H0, Q.reshape(n)).reshape(Q.shape))
    expected = dense_bfgs_direction(hist.pairs, grad, H0_inv)
    assert np.abs(d - expected).max() < 1e-8


def test_two_loop_empty_history_is_newton():
    rng = np.random.default_rng(2)
    grad = rng.normal(size=(4, 3))
    hist = LbfgsHistory(5)
    d = two_loop_direction(hist, grad, lambda Q: 0.5 * Q)
    assert np.allclose(d, -0.5 * grad)


def test_line_search_accepts_newton_step_on_quadratic():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + 6 * np.eye(6)
    x = rng.normal(size=6)

    def f(z):
        return 0.5 * float(z @ A @ z)

    g = A @ x
    d = -np.linalg.solve(A, g)
    out = line_search(f, x, d, f(x), float(g @ d), gamma=0.3)
    assert out is not None
    lam, x_new, e_new = out
    assert lam == 1.0
    assert np.abs(x_new).max() < 1e-12


def test_line_search_backtracks():
    def f(z):
        return float(np.sum(z ** 2))

    x = np.array([1.0])
    d = np.array([-4.0])       # overshoots; full step increases f
    g = np.array([2.0])
    out = line_search(f, x, d, f(x), float(g @ d), gamma=0.3)
    assert out is not None
    lam, _, e_new = out
    assert lam < 1.0
    assert e_new < f(x)


def test_solve_inner_decreases_surrogate():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 4, 80)
    X0 = random_state(rng, 4, spread=0.2)
    corr = CorrespondenceSet(np.zeros(80, dtype=np.int64),
                             rng.uniform(size=(80, 3)),
                             np.zeros(80), np.ones(80, dtype=bool))
    start = deform(g, X0)
    sys = assemble_surrogate(g, start, corr, EnergyParams(0.3, 0.3, 1.0, 1.0))
    params = SolverParams(eps1=1e-10)
    end = solve_inner(sys, start, params)
    assert sys.energy(end) < sys.energy(start)
    assert np.linalg.norm(sys.gradient(end)) < 1e-2 * max(1, np.linalg.norm(sys.gradient(start)))


def test_anneal_schedule_ends_where_halving_ends():
    # the ratio lies just above 2**6: log2 of it rounds to 6.0, yet six
    # halvings leave nu_a above its floor and a seventh stage follows
    nu_a_max, nu_a_min = 8.738925150313612, 0.13654570547365016
    stages = anneal_schedule(nu_a_max, nu_a_min, 40.0)
    assert len(stages) == 8
    assert stages[0] == (nu_a_max, 40.0)
    assert stages[-2][0] > nu_a_min
    assert stages[-1] == (nu_a_min, 40.0 / 2 ** 7)
    for (a0, r0), (a1, r1) in zip(stages, stages[1:]):
        assert a1 == max(0.5 * a0, nu_a_min)
        assert r1 == 0.5 * r0
    assert anneal_schedule(8.0, 1.0, 4.0) == [(8.0, 4.0), (4.0, 2.0), (2.0, 1.0), (1.0, 0.5)]
    assert anneal_schedule(1.0, 1.0, 4.0) == [(1.0, 4.0)]


@pytest.fixture(scope="module")
def small_self_registration():
    src = compute_normals(grid_mesh(12, 12))
    s_n, t_n, rec = normalize_pair(src, src.copy())
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    res = register(s_n, t_n)
    return s_n, t_n, res


def test_register_self_converges(small_self_registration):
    s_n, t_n, res = small_self_registration
    err = rmse(res.transformed_source, GroundTruth(t_n.vertices))
    assert err < 1e-8
    assert res.graph is not None
    assert res.rigid_init is not None
    assert all("converged" in r or "i_max" in r for r in res.termination_reasons)


def test_register_monotone_within_stage(small_self_registration):
    _, _, res = small_self_registration
    by_stage = {}
    for row in res.energy_trace:
        by_stage.setdefault(row.stage, []).append(row.energy)
    for es in by_stage.values():
        for a, b in zip(es, es[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))


def test_register_l2_single_stage():
    src = compute_normals(grid_mesh(10, 10))
    s_n, t_n, _ = normalize_pair(src, src.copy())
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    res = register(s_n, t_n, SolverParams(kernel="l2"))
    assert {row.stage for row in res.energy_trace} == {0}


def test_register_fixed_nu_single_stage():
    src = compute_normals(grid_mesh(10, 10))
    tgt = Surface(src.vertices + [0.02, 0.0, 0.01], src.faces.copy())
    s_n, t_n, _ = normalize_pair(src, tgt)
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    res = register(s_n, t_n, SolverParams(fixed_nu=True))
    stages = {row.stage for row in res.energy_trace}
    assert stages == {0}
    assert len(res.termination_reasons) == 1
    # the single stage runs at the widths annealing ends with
    last = register(s_n, t_n).energy_trace[-1]
    assert (res.energy_trace[0].nu_a, res.energy_trace[0].nu_r) == (last.nu_a, last.nu_r)


def test_register_leaves_graph_unchanged():
    src = compute_normals(grid_mesh(8, 8))
    s_n, t_n, _ = normalize_pair(src, src.copy())
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    g = build_graph(s_n, R=5.0 * mean_edge_length(s_n))
    before = dict(vars(g))
    register(s_n, t_n, graph=g)
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[k] is v for k, v in before.items())


def test_register_evaluates_each_point_once(monkeypatch):
    """One rotation projection per point: each line-search trial, plus the
    starting state.  The accepted trial's evaluation serves its gradient, the
    outer loop's points and total energy, and the next surrogate."""
    counts = {"projections": 0, "trials": 0}
    searching = []
    project, energy, search = (nrreg.energy.project_rotations,
                               nrreg.energy.SurrogateSystem.energy, nrreg.solver.line_search)

    def counted_project(As):
        counts["projections"] += 1
        return project(As)

    def counted_energy(self, *args):
        counts["trials"] += bool(searching)
        return energy(self, *args)

    def counted_search(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(nrreg.energy, "project_rotations", counted_project)
    monkeypatch.setattr(nrreg.energy.SurrogateSystem, "energy", counted_energy)
    monkeypatch.setattr(nrreg.solver, "line_search", counted_search)
    src = grid_mesh(10, 10)
    target = Surface(src.vertices @ rot_z(0.3).T + [0.0, 0.0, 0.05], src.faces)
    s_n, t_n, _ = normalize_pair(compute_normals(src), compute_normals(target))
    res = register(compute_normals(s_n), compute_normals(t_n))
    assert len(res.energy_trace) > 1
    assert counts["trials"] > len(res.energy_trace)
    assert counts["projections"] <= counts["trials"] + 1


def test_register_point_cloud_source():
    # a faceless source measures its scale and geodesics on the k-NN graph
    grid = grid_mesh(10, 10)
    target = Surface(grid.vertices @ rot_z(0.1).T, grid.faces)
    s_n, t_n, _ = normalize_pair(compute_normals(Surface(grid.vertices)),
                                 compute_normals(target))
    res = register(s_n, t_n)
    assert res.graph.n_nodes > 1 and len(res.graph.node_edges) > 0
    assert all(r.endswith("converged") for r in res.termination_reasons)
    assert rmse(res.transformed_source, GroundTruth(t_n.vertices)) < 1e-6


def test_register_empty_raises():
    s = compute_normals(grid_mesh(5, 5))
    with pytest.raises(InvalidInputError):
        register(s, Surface(np.empty((0, 3))))


def test_trace_csv_roundtrip(tmp_path, small_self_registration):
    _, _, res = small_self_registration
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    res.write_trace_csv(p1)
    res.write_trace_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "stage,outer_iter,nu_a,nu_r,energy,max_disp"
    res.write_trace_csv(p1, include_timing=True)
    assert p1.read_text().splitlines()[0].endswith(",elapsed_seconds")


def test_trace_rows_well_formed(small_self_registration):
    _, _, res = small_self_registration
    for row in res.energy_trace:
        assert isinstance(row, TraceRow)
        assert row.nu_a > 0 and row.nu_r > 0
        assert np.isfinite(row.energy)
        assert row.elapsed_seconds >= 0
