import numpy as np
import pytest
import scipy.linalg.blas
from scipy.sparse import csr_matrix
from scipy.spatial.transform import Rotation

import nrreg.correspond
import nrreg.energy
import nrreg.mesh
import nrreg.solver
from nrreg.correspond import CorrespondenceSet
from nrreg.energy import (EnergyParams, SurrogateSystem, assemble_surrogate, deform,
                          identity_state)
from nrreg.errors import InvalidInputError, SolverError
from nrreg.evaluate import GroundTruth, rmse, synthesize_deformation
from nrreg.graph import DeformationGraph, build_graph
from nrreg.mesh import Surface, compute_normals, mean_edge_length, normalize_pair
from nrreg.solver import (LbfgsHistory, RegistrationResult, SolverParams,
                          TraceRow, anneal_schedule, factor_h0, line_search, register,
                          solve_inner, two_loop_direction)

from conftest import grid_mesh, linear_twist, rot_z
from oracles import surrogate_at
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
    ("m", 0), ("icp_iters", -1), ("k_beta", float("inf")), ("k_alpha", float("inf")),
    ("eps1", float("nan")), ("eps2", float("nan")), ("nu_a_max_factor", float("nan")),
    ("nu_r_max_factor", float("nan")), ("nu_r_max_factor", 0.0),
    ("radius_factor", float("inf"))])
def test_params_reject_out_of_range_counts_and_factors(field, value):
    with pytest.raises(InvalidInputError, match=field):
        SolverParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("m", 2.5), ("i_max", 2.5), ("icp_iters", 1.5), ("m", 5.0), ("i_max", True),
    ("icp_iters", "3"), ("fixed_nu", "no"), ("fixed_nu", 1), ("fixed_nu", None)])
def test_params_reject_wrongly_typed_counts_and_flags(field, value):
    with pytest.raises(InvalidInputError, match=field):
        SolverParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("gamma", "0.3"), ("eps1", None), ("eps2", None), ("k_alpha", "1"), ("k_beta", True),
    ("nu_a_max_factor", "10"), ("nu_a_min_factor", None), ("nu_r_max_factor", False),
    ("radius_factor", "5"), ("eps_d", None), ("theta", "60"), ("theta", np.bool_(True))])
def test_params_reject_non_numeric_floats(field, value):
    with pytest.raises(InvalidInputError, match=field + " must be a finite real number"):
        SolverParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("eps_d", -1.0), ("eps_d", 0.0), ("theta", 0.0), ("theta", -30.0), ("theta", 180.5),
    ("theta", 500.0)])
def test_params_reject_out_of_range_icp_limits(field, value):
    with pytest.raises(InvalidInputError, match=field):
        SolverParams(**{field: value})


def test_params_accept_boundary_values():
    p = SolverParams(icp_iters=0, k_alpha=0.0, k_beta=0.0, m=1, i_max=1)
    assert (p.icp_iters, p.m, p.i_max) == (0, 1, 1)
    p = SolverParams(m=np.int64(3), fixed_nu=np.bool_(True))
    assert p.m == 3 and p.fixed_nu
    p = SolverParams(theta=180.0, eps_d=1e-9, k_alpha=2, gamma=np.float32(0.5))
    assert (p.theta, p.eps_d, p.k_alpha) == (180.0, 1e-9, 2)


def test_params_reject_unknown_kernel_and_sampler():
    # caught at construction, before any mesh is loaded or graph built
    with pytest.raises(InvalidInputError, match="kernel"):
        SolverParams(kernel="l1")
    with pytest.raises(InvalidInputError, match="sampler"):
        SolverParams(sampler="grid")


def test_history_ring_buffer_and_curvature_guard():
    hist = LbfgsHistory(2)
    S = np.arange(12.0).reshape(4, 3) - 5.0
    assert hist.push(S, S, S)                       # positive curvature
    assert not hist.push(S, np.zeros((4, 3)), S)    # rho = 0 rejected
    assert not hist.push(S, -S, S)                  # negative curvature rejected
    assert len(hist) == 1
    S2, S3 = 2.0 * S, S + 1.0
    assert hist.push(S2, S3, S2)
    assert hist.push(S3, S3, S3)
    assert len(hist) == 2                           # oldest pair dropped
    assert hist.pairs[0][0] is S2 and hist.pairs[1][0] is S3


def dense_bfgs_direction(pairs, grad, H0_inv):
    """Explicit inverse-Hessian BFGS oracle on flattened variables."""
    H = H0_inv.copy()
    n = H.shape[0]
    for S, T, *_ in pairs:                   # oldest first
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
        hist.push(S, T, (H0 @ S.ravel()).reshape(S.shape))
    grad = rng.normal(size=(4, 3))
    d, h0_d = two_loop_direction(hist, grad,
                                 lambda Q: np.linalg.solve(H0, Q.reshape(n)).reshape(Q.shape))
    expected = dense_bfgs_direction(hist.pairs, grad, H0_inv)
    assert np.abs(d - expected).max() < 1e-8
    # H0 d from the recursion, with no product by H0
    H0d = (H0 @ d.ravel()).reshape(d.shape)
    assert np.abs(h0_d - H0d).max() <= 1e-12 * np.abs(H0d).max()


def test_two_loop_empty_history_is_newton():
    rng = np.random.default_rng(2)
    grad = rng.normal(size=(4, 3))
    hist = LbfgsHistory(5)
    d, h0_d = two_loop_direction(hist, grad, lambda Q: 0.5 * Q)
    assert np.allclose(d, -0.5 * grad)
    assert np.array_equal(h0_d, -grad)


def test_line_search_accepts_newton_step_on_quadratic():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + 6 * np.eye(6)
    x = rng.normal(size=6)

    def f(z, lam=None):
        return 0.5 * float(z @ A @ z)

    g = A @ x
    d = -np.linalg.solve(A, g)
    out = line_search(f, x, d, f(x), float(g @ d), gamma=0.3)
    assert out is not None
    lam, x_new, e_new = out
    assert lam == 1.0
    assert np.abs(x_new).max() < 1e-12


def test_line_search_backtracks():
    def f(z, lam=None):
        return float(np.sum(z ** 2))

    x = np.array([1.0])
    d = np.array([-4.0])       # overshoots; full step increases f
    g = np.array([2.0])
    out = line_search(f, x, d, f(x), float(g @ d), gamma=0.3)
    assert out is not None
    lam, _, e_new = out
    assert lam < 1.0
    assert e_new < f(x)


@pytest.mark.parametrize("wa_sign, wr_sign", [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
def test_factor_h0_rejects_an_h0_that_is_not_positive_definite(wa_sign, wr_sign):
    rng = np.random.default_rng(5)
    g = random_graph(rng, 4, 40)
    sys = SurrogateSystem(g, deform(g, identity_state(4)), np.zeros((40, 3)),
                          wa_sign * rng.uniform(1.0, 2.0, size=40),
                          wr_sign * rng.uniform(1.0, 2.0, size=g.B.shape[0]),
                          EnergyParams(1.0, 1.0, 1.0, 0.0))
    H = sys.assemble_H0().toarray() + np.diag(sys.h0_diagonal())
    assert np.linalg.eigvalsh(H).min() < 0
    with pytest.raises(SolverError, match="not positive definite"):
        factor_h0(sys.assemble_H0(), sys.h0_diagonal())


def test_solve_inner_decreases_surrogate():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 4, 80)
    X0 = random_state(rng, 4, spread=0.2)
    corr = CorrespondenceSet(np.zeros(80, dtype=np.int64),
                             rng.uniform(size=(80, 3)),
                             np.zeros(80))
    start = deform(g, X0)
    sys = assemble_surrogate(g, start, corr, EnergyParams(0.3, 0.3, 1.0, 1.0))
    params = SolverParams(eps1=1e-10)
    end, reason = solve_inner(sys, params)
    assert reason == "tolerance"
    (E_end, G_end), (E_start, G_start) = surrogate_at(sys, end.X), surrogate_at(sys, X0)
    assert E_end < E_start
    assert np.linalg.norm(G_end) < 1e-2 * max(1, np.linalg.norm(G_start))


def test_solve_inner_started_at_a_zero_gradient_is_stationary():
    """An ``l2`` surrogate with alpha = beta = 0 whose targets are the start's
    own points has a zero gradient there: the solve stops where it starts."""
    rng = np.random.default_rng(6)
    g = random_graph(rng, 4, 80)
    start = deform(g, random_state(rng, 4, spread=0.2))
    corr = CorrespondenceSet(np.zeros(80, dtype=np.int64), start.points, np.zeros(80))
    sys = assemble_surrogate(g, start, corr, EnergyParams(0.3, 0.3, 0.0, 0.0, "l2"))
    assert not surrogate_at(sys, start.X)[1].any()
    end, reason = solve_inner(sys, SolverParams())
    assert (end, reason) == (start, "stationary")


def test_line_search_give_up_is_reported(monkeypatch):
    """An inner solve whose line search accepts no step returns its start
    and says so; ``register`` lists that reason for every outer iteration."""
    monkeypatch.setattr(nrreg.solver, "line_search", lambda *args: None)
    rng = np.random.default_rng(4)
    g = random_graph(rng, 4, 80)
    corr = CorrespondenceSet(np.zeros(80, dtype=np.int64), rng.uniform(size=(80, 3)),
                             np.zeros(80))
    start = deform(g, random_state(rng, 4, spread=0.2))
    sys = assemble_surrogate(g, start, corr, EnergyParams(0.3, 0.3, 1.0, 1.0))
    assert solve_inner(sys, SolverParams()) == (start, "line_search")

    src = compute_normals(grid_mesh(8, 8))
    s_n, t_n, _ = normalize_pair(src, src)
    res = register(compute_normals(s_n), compute_normals(t_n))
    assert len(res.inner_reasons) == len(res.energy_trace) > 0
    assert set(res.inner_reasons) == {"line_search"}


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
    s_n, t_n, rec = normalize_pair(src, src)
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
    s_n, t_n, _ = normalize_pair(src, src)
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
    s_n, t_n, _ = normalize_pair(src, src)
    s_n = compute_normals(s_n)
    t_n = compute_normals(t_n)
    g = build_graph(s_n, R=5.0 * mean_edge_length(s_n))
    before = dict(vars(g))
    register(s_n, t_n, graph=g)
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[k] is v for k, v in before.items())


def test_register_evaluates_each_point_once(monkeypatch):
    """One rotation projection per point: each line-search trial, plus the
    starting state.  Trials are evaluated in state space; one ``deform`` per
    inner solve that moved evaluates the state it stopped at, reusing its
    rotation residuals, for the outer loop's points, total energy and next
    surrogate."""
    counts = {"projections": 0, "trials": 0, "deforms": 0, "moved": 0}
    searching = []
    project, energy, search, evaluate, inner = (
        nrreg.energy.project_rotations, nrreg.energy.SurrogateSystem.energy,
        nrreg.solver.line_search, nrreg.solver.deform, nrreg.solver.solve_inner)

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

    def counted_deform(*args):
        counts["deforms"] += 1
        return evaluate(*args)

    def counted_inner(sys, params):
        end, reason = inner(sys, params)
        counts["moved"] += end is not sys.start
        return end, reason

    monkeypatch.setattr(nrreg.energy, "project_rotations", counted_project)
    monkeypatch.setattr(nrreg.energy.SurrogateSystem, "energy", counted_energy)
    monkeypatch.setattr(nrreg.solver, "line_search", counted_search)
    monkeypatch.setattr(nrreg.solver, "deform", counted_deform)
    monkeypatch.setattr(nrreg.solver, "solve_inner", counted_inner)
    src = grid_mesh(10, 10)
    target = Surface(src.vertices @ rot_z(0.3).T + [0.0, 0.0, 0.05], src.faces)
    s_n, t_n, _ = normalize_pair(compute_normals(src), compute_normals(target))
    res = register(compute_normals(s_n), compute_normals(t_n))
    assert len(res.energy_trace) > 1
    assert counts["trials"] > len(res.energy_trace)
    assert counts["projections"] == counts["trials"] + 1
    assert counts["moved"] > 0
    assert counts["deforms"] == counts["moved"] + 1


def test_register_makes_no_band_product(monkeypatch):
    """Registering the 25x25 twist of the acceptance criteria multiplies
    by no band (no ``dsbmv``) and solves with H0 once per two-loop
    direction: each direction's ``2 M d`` comes from the recursion."""
    counts = {"dsbmv": 0, "solves": 0, "directions": 0}
    dsbmv, solve, direction = (scipy.linalg.blas.dsbmv, nrreg.solver.H0Factor.solve,
                               nrreg.solver.two_loop_direction)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg.blas, "dsbmv", counted("dsbmv", dsbmv))
    monkeypatch.setattr(nrreg.solver.H0Factor, "solve", counted("solves", solve))
    monkeypatch.setattr(nrreg.solver, "two_loop_direction", counted("directions", direction))
    src = compute_normals(grid_mesh(25, 25))
    g = build_graph(src)
    target, _ = synthesize_deformation(src, g, *linear_twist(g, max_angle_deg=10.0, lift=0.02))
    s_n, t_n, _ = normalize_pair(src, target)
    res = register(compute_normals(s_n), compute_normals(t_n))
    assert len(res.energy_trace) > 1
    assert counts["dsbmv"] == 0
    assert counts["solves"] == counts["directions"] > len(res.energy_trace)


def test_register_builds_one_target_index(monkeypatch):
    """Rigid ICP and the outer loop query one k-d tree, the target's own;
    between two meshes it is the only tree built."""
    trees = []

    class CountingTree(nrreg.mesh.cKDTree):
        def __init__(self, points, *args, **kwargs):
            trees.append(self)
            super().__init__(points, *args, **kwargs)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", CountingTree)
    src = compute_normals(grid_mesh(8, 8))
    s_n, t_n, _ = normalize_pair(src, src)
    t_n = compute_normals(t_n)
    res = register(compute_normals(s_n), t_n)
    assert res.rigid_init is not None
    assert len(trees) == 1 and trees[0] is nrreg.mesh._kd_tree(t_n)


def test_register_warm_closest_points_are_the_cold_ones(monkeypatch, tmp_path):
    """Rigid ICP and the outer loop pass each query their last
    correspondences, ICP's last set included: only ICP's first query sends
    the k-d tree every row, and each later one only the rows its previous
    set cannot certify.  The registration is the one made with every query
    cold."""
    src = grid_mesh(10, 10)
    target = Surface(src.vertices @ rot_z(0.3).T + [0.0, 0.0, 0.05], src.faces)
    s_n, t_n, _ = normalize_pair(compute_normals(src), compute_normals(target))
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    asked, sent = [], []
    find = nrreg.correspond.find_correspondences

    class CountingTree(nrreg.mesh.cKDTree):
        def query(self, x, *args, **kwargs):
            sent[-1] += len(x)
            return super().query(x, *args, **kwargs)

    def counted_find(queries, target, previous=None):
        asked.append(len(queries))
        sent.append(0)
        return find(queries, target, previous)

    def cold_find(queries, target, previous=None):
        return find(queries, target)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", CountingTree)
    for module in (nrreg.correspond, nrreg.solver):
        monkeypatch.setattr(module, "find_correspondences", counted_find)
    warm = register(s_n, t_n)
    assert warm.icp_reason == "fixed_point" and len(asked) > warm.icp_iterations + 1
    assert sent[0] == asked[0] == s_n.n_vertices
    assert all(s < a for s, a in zip(sent[1:], asked[1:]))
    # the outer loop's first query takes ICP's last set
    assert sent[warm.icp_iterations] < asked[warm.icp_iterations] // 10
    for module in (nrreg.correspond, nrreg.solver):
        monkeypatch.setattr(module, "find_correspondences", cold_find)
    cold = register(s_n, t_n)
    warm.write_trace_csv(tmp_path / "warm.csv")
    cold.write_trace_csv(tmp_path / "cold.csv")
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert warm.transformed_source.tobytes() == cold.transformed_source.tobytes()
    assert warm.final_state.tobytes() == cold.final_state.tobytes()
    assert warm.rigid_init.rotation.tobytes() == cold.rigid_init.rotation.tobytes()
    assert warm.rigid_init.translation.tobytes() == cold.rigid_init.translation.tobytes()
    assert (warm.icp_iterations, warm.icp_reason) == (cold.icp_iterations, cold.icp_reason)


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



def test_register_point_cloud_source_builds_its_knn_graph_once(monkeypatch):
    """Mesh scale and geodesics read one k-NN graph of a faceless source,
    and every point set gets one k-d tree: the normalized source's, for
    that graph; the raw cloud's, for the normals the normalized source
    carries; and the target's, for the closest points."""
    grid = grid_mesh(20, 20)
    target = Surface(grid.vertices @ rot_z(0.1).T, grid.faces)
    cloud = compute_normals(Surface(grid.vertices))
    s_n, t_n, _ = normalize_pair(cloud, compute_normals(target))
    trees = []
    tree = nrreg.mesh.cKDTree

    def counted_tree(points, *args, **kwargs):
        trees.append(points)
        return tree(points, *args, **kwargs)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", counted_tree)
    register(s_n, t_n)
    assert sorted(p.ctypes.data for p in trees) == sorted(
        p.ctypes.data for p in (s_n.vertices, cloud.vertices, t_n.vertices))
    # kept with the surfaces: registering again builds none
    register(s_n, t_n)
    assert len(trees) == 3


def test_register_estimates_a_cloud_targets_normals_only_where_read(monkeypatch, tmp_path):
    """Rigid ICP reads a cloud target's normals at its closest points only:
    each row is estimated at most once, not every row is, and the
    registration is the one made with every normal estimated up front."""
    source = grid_mesh(12, 12)
    cloud = _twist(grid_mesh(60, 60).vertices)
    s_n, t_n, _ = normalize_pair(source, Surface(cloud))
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    given = []
    pca = nrreg.mesh._pca_normals

    def counted(points, k, rows, tree):
        given.extend(rows.tolist())
        return pca(points, k, rows, tree)

    monkeypatch.setattr(nrreg.mesh, "_pca_normals", counted)
    lazy = register(s_n, t_n)
    assert 0 < len(given) == len(set(given)) < t_n.n_vertices
    eager = register(s_n, Surface(t_n.vertices, normals=np.asarray(compute_normals(t_n).normals)))
    lazy.write_trace_csv(tmp_path / "lazy.csv")
    eager.write_trace_csv(tmp_path / "eager.csv")
    assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()
    assert lazy.transformed_source.tobytes() == eager.transformed_source.tobytes()
    assert lazy.final_state.tobytes() == eager.final_state.tobytes()


def test_cloud_pipeline_builds_one_tree(monkeypatch):
    """Normals on the raw inputs, normalizing the pair, normals again and
    registering: the raw cloud's normals are never read, so the cloud gets
    one k-d tree, built at the registration's first query and shared by
    its closest points and the normals rigid ICP reads."""
    built = []
    tree = nrreg.mesh.cKDTree

    def counted_tree(points, *args, **kwargs):
        built.append(points)
        return tree(points, *args, **kwargs)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", counted_tree)
    source = compute_normals(grid_mesh(12, 12))
    cloud = compute_normals(Surface(_twist(grid_mesh(40, 40).vertices)))
    s_n, t_n, _ = normalize_pair(source, cloud)
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    assert built == []
    register(s_n, t_n)
    assert [p.ctypes.data for p in built] == [t_n.vertices.ctypes.data]


def test_warm_started_register_computes_no_mesh_normals(monkeypatch):
    """Only rigid ICP reads normals: a registration between meshes runs one
    face-normal pass per surface, and one given initial_state runs none."""
    calls = []
    face_normals = nrreg.mesh._face_vertex_normals

    def counted(vertices, faces):
        calls.append(len(vertices))
        return face_normals(vertices, faces)

    monkeypatch.setattr(nrreg.mesh, "_face_vertex_normals", counted)
    src = grid_mesh(10, 10)
    target = Surface(src.vertices @ rot_z(0.1).T, src.faces)
    s_n, t_n, _ = normalize_pair(compute_normals(src), compute_normals(target))
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    cold = register(s_n, t_n)
    assert calls == [100, 100]
    calls.clear()
    warm = register(compute_normals(s_n), compute_normals(t_n), graph=cold.graph,
                    initial_state=cold.final_state)
    assert calls == [] and warm.rigid_init is None
    assert (warm.icp_iterations, warm.icp_reason) == (0, None)


def test_register_refuses_wrongly_shaped_normals():
    """Normals of the wrong shape fail as the surface is made, with a typed
    error, not inside rigid ICP (an IndexError for too few target rows, a
    matmul error for two source columns)."""
    source = compute_normals(grid_mesh(10, 10))
    target = compute_normals(Surface(source.vertices @ rot_z(0.1).T, source.faces))
    with pytest.raises(InvalidInputError, match="normals must be"):
        register(source, Surface(target.vertices, target.faces, normals=target.normals[:50]))
    with pytest.raises(InvalidInputError, match="normals must be"):
        register(Surface(source.vertices, source.faces, normals=source.normals[:, :2]), target)


def _twist(p, deg=10.0, lift=0.02):
    """Turn the unit-square sheet about the line (y, z) = (0.5, 0) by an angle
    growing linearly with x up to ``deg``, and lift it linearly with x."""
    a = np.deg2rad(deg) * p[:, 0]
    c, s = np.cos(a), np.sin(a)
    y, z = p[:, 1] - 0.5, p[:, 2]
    return np.column_stack([p[:, 0], c * y - s * z + 0.5, s * y + c * z + lift * p[:, 0]])


def test_register_mesh_to_cloud_in_any_pose():
    """A point cloud's PCA normals have no sign, and their raw signs follow
    the coordinate frame.  A mesh source registers to a cloud target in
    every rigid pose of the pair, as well as unmoved."""
    source = grid_mesh(20, 20)
    cloud = _twist(grid_mesh(100, 100).vertices)
    gt = _twist(source.vertices)

    def registered_rmse(R, t):
        s_n, t_n, rec = normalize_pair(Surface(source.vertices @ R.T + t, source.faces),
                                       Surface(cloud @ R.T + t))
        res = register(compute_normals(s_n), compute_normals(t_n),
                       SolverParams(nu_a_min_factor=0.25))
        return rmse(rec.denormalize(res.transformed_source, "target"),
                    GroundTruth(gt @ R.T + t))

    unmoved = registered_rmse(np.eye(3), np.zeros(3))
    for seed in range(16):
        rng = np.random.default_rng(seed)
        R = Rotation.random(random_state=rng).as_matrix()
        assert registered_rmse(R, rng.normal(size=3)) <= 1.5 * unmoved, seed


def test_register_empty_raises():
    s = compute_normals(grid_mesh(5, 5))
    with pytest.raises(InvalidInputError):
        register(s, Surface(np.empty((0, 3))))


def test_register_empty_graph_raises():
    s = compute_normals(grid_mesh(5, 5))
    g = DeformationGraph(np.empty(0, dtype=np.int64), np.empty((0, 3)),
                         np.empty((0, 2), dtype=np.int64), 1.0, csr_matrix((25, 0)), s.vertices)
    with pytest.raises(InvalidInputError, match="empty deformation graph"):
        register(s, s, graph=g)


def _refuse_work(monkeypatch):
    for name in ("build_graph", "rigid_icp_init", "find_correspondences"):
        monkeypatch.setattr(nrreg.solver, name, lambda *a, **k: pytest.fail("work started"))


def test_register_rejects_a_graph_of_another_surface(monkeypatch):
    s = compute_normals(grid_mesh(8, 8))
    g = build_graph(compute_normals(grid_mesh(6, 6)))
    _refuse_work(monkeypatch)
    with pytest.raises(InvalidInputError, match="36 points, the source has 64"):
        register(s, s, graph=g)


@pytest.mark.parametrize("bad", ["shape", "non-finite"])
def test_register_rejects_an_initial_state_that_does_not_fit(monkeypatch, bad):
    s = compute_normals(grid_mesh(8, 8))
    g = build_graph(s)
    X = identity_state(g.n_nodes)
    if bad == "shape":
        X, message = X[:-1], rf"\({4 * g.n_nodes}, 3\) for the graph's {g.n_nodes} nodes"
    else:
        X[5, 1], message = np.nan, "must be finite"
    _refuse_work(monkeypatch)
    with pytest.raises(InvalidInputError, match=message):
        register(s, s, graph=g, initial_state=X)


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
