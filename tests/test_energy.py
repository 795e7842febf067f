import numpy as np
import pytest
from scipy.sparse import csr_matrix

from nrreg.correspond import CorrespondenceSet, find_correspondences
from nrreg.energy import (EnergyParams, assemble_surrogate, deform, gaussian_weight,
                          identity_state, pack_state, project_rotations,
                          reg_residual, rotation_residual, total_energy, unpack_state,
                          welsch)
from nrreg.errors import InvalidInputError
from nrreg.graph import (DeformationGraph, build_graph, directed_edges,
                         transform_points)
from nrreg.mesh import Surface
from nrreg.solver import factor_h0

from conftest import grid_mesh, rot_z
from oracles import (blend_points, project_rotation, residual_Dij, robust_energy,
                     surrogate_at)


def random_graph(rng, r, n):
    """A synthetic deformation graph with random geometry and influence."""
    node_pos = rng.uniform(size=(r, 3))
    src = rng.uniform(size=(n, 3))
    rows, cols, vals = [], [], []
    for i in range(n):
        js = rng.choice(r, size=min(r, int(rng.integers(1, 4))), replace=False)
        w = rng.uniform(0.1, 1.0, size=len(js))
        w /= w.sum()
        rows += [i] * len(js)
        cols += list(js)
        vals += list(w)
    W = csr_matrix((vals, (rows, cols)), shape=(n, r))
    edges = np.array([[i, j] for i in range(r) for j in range(i + 1, r)
                      if rng.uniform() < 0.5] or [[0, 1]], dtype=np.int64)
    return DeformationGraph(np.arange(r), node_pos, edges, 1.0, W, src)


def random_state(rng, r, spread=0.3):
    A = np.eye(3) + spread * rng.normal(size=(r, 3, 3))
    t = spread * rng.normal(size=(r, 3))
    return pack_state(A, t)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 3, 3))
    t = rng.normal(size=(4, 3))
    X = pack_state(A, t)
    assert X.shape == (16, 3)
    A2, t2 = unpack_state(X)
    assert np.array_equal(A2, A)
    assert np.array_equal(t2, t)
    # block layout: rows 4j..4j+2 hold A_j^T, row 4j+3 holds t_j
    assert np.array_equal(X[0:3], A[0].T)
    assert np.array_equal(X[3], t[0])


def test_identity_state():
    X = identity_state(3)
    A, t = unpack_state(X)
    assert np.allclose(A, np.eye(3))
    assert np.all(t == 0)


def test_welsch_values():
    assert welsch(0.0, 1.0) == 0.0
    assert welsch(1.0, 1.0) == pytest.approx(1.0 - np.exp(-0.5))
    assert welsch(2.0, 2.0) == pytest.approx(1.0 - np.exp(-0.5))
    x = np.linspace(0, 2, 50)
    v = welsch(x, 0.7)
    assert np.all(np.diff(v) > 0)   # monotone on x >= 0
    assert v.max() < 1.0            # bounded above by 1
    with pytest.raises(InvalidInputError):
        welsch(1.0, 0.0)


def test_energy_params_validation():
    with pytest.raises(InvalidInputError):
        EnergyParams(0.0, 1.0, 1.0, 1.0)


def test_residual_dij_hand_example():
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    A = np.stack([np.eye(3), rot_z(np.pi / 2)])
    t = np.zeros((2, 3))
    X = pack_state(A, t)
    # node 1 rotates 90 deg about z: it maps node 0's position to (1,-1,0)
    assert np.allclose(residual_Dij(X, 0, 1, positions), [1.0, -1.0, 0.0])
    # node 0 is the identity: measured at node 1 the residual vanishes
    assert np.allclose(residual_Dij(X, 1, 0, positions), 0.0)
    # B X - Y has the same rows: directed edge (0, 1), then (1, 0)
    g = DeformationGraph(np.arange(2), positions, np.array([[0, 1]]), 1.0,
                         csr_matrix(np.eye(2)), positions)
    assert np.allclose(reg_residual(g, X), [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])


def test_directed_edges_both_orientations():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 4, 20)
    de = directed_edges(g)
    assert len(de) == 2 * len(g.node_edges)
    assert np.array_equal(de[len(g.node_edges):], g.node_edges[:, ::-1])


def test_edge_residuals_match_scalar(grid25):
    rng = np.random.default_rng(2)
    g = build_graph(grid25)
    X = random_state(rng, g.n_nodes)
    res = reg_residual(g, X)
    de = directed_edges(g)
    for k in (0, len(de) // 2, len(de) - 1):
        i, j = de[k]
        assert np.allclose(res[k], residual_Dij(X, i, j, g.node_positions))


def test_project_rotation():
    R = rot_z(0.4)
    refl = np.diag([1.0, 1.0, -1.0])
    P = project_rotations(np.stack([R, 2.5 * R, refl]))
    assert np.abs(P[0] - R).max() < 1e-12
    assert np.abs(P[1] - R).max() < 1e-12
    assert np.linalg.det(P[2]) == pytest.approx(1.0)
    assert np.linalg.det(project_rotation(refl)) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    As = np.eye(3) + 0.4 * rng.normal(size=(6, 3, 3))
    batched = project_rotations(As)
    for k in range(6):
        assert np.allclose(batched[k], project_rotation(As[k]), atol=1e-10)


def test_energy_rot_zero_for_rotations():
    A = np.stack([rot_z(a) for a in (0.1, -0.5, 2.0)])
    X = pack_state(A, np.zeros((3, 3)))
    assert float(np.sum(rotation_residual(X) ** 2)) < 1e-20


def edgeless_graph(rng, r, n):
    """A random graph with its edges removed: B and Y have no rows."""
    g = random_graph(rng, r, n)
    return DeformationGraph(g.node_indices, g.node_positions, np.empty((0, 2), dtype=np.int64),
                            g.radius, g.influence, g.source_positions)


def test_matrix_form_reproduces_pointwise(grid25):
    rng = np.random.default_rng(4)
    graphs = [build_graph(grid25), random_graph(rng, 6, 50), edgeless_graph(rng, 5, 40)]
    for g in graphs:
        X = random_state(rng, g.n_nodes, spread=0.2)
        assert np.abs(g.F @ X + g.P - blend_points(g, X)).max() < 1e-12
        de = directed_edges(g)
        loop = np.array([residual_Dij(X, i, j, g.node_positions) for i, j in de]).reshape(-1, 3)
        assert (g.B @ X - g.Y).shape == loop.shape
        assert np.abs(g.B @ X - g.Y - loop).max(initial=0.0) < 1e-12
        assert np.array_equal(transform_points(g, X), g.F @ X + g.P)
    assert graphs[2].B.shape == (0, 4 * graphs[2].n_nodes)


def test_linear_map_deterministic(grid25):
    g1 = build_graph(grid25)
    g2 = build_graph(grid25)
    assert (g1.F != g2.F).nnz == 0
    assert (g1.B != g2.B).nnz == 0
    assert np.array_equal(g1.P, g2.P)
    assert np.array_equal(g1.Y, g2.Y)


def test_surrogate_l2_weights_are_one():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 4, 30)
    X = random_state(rng, 4)
    corr = CorrespondenceSet(np.zeros(30, dtype=np.int64),
                             rng.uniform(size=(30, 3)),
                             np.zeros(30))
    sys = assemble_surrogate(g, deform(g, X), corr, EnergyParams(0.1, 0.1, 1.0, 1.0, "l2"))
    assert np.all(sys.wa == 1.0)
    assert np.all(sys.wr == 1.0)


def test_gaussian_weight_formula():
    assert gaussian_weight(0.0, 0.5) == pytest.approx(2.0)
    assert gaussian_weight(0.5, 0.5) == pytest.approx(np.exp(-1.0) * 2.0)


def test_surrogate_gradient_finite_differences():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 3, 40)
    X = random_state(rng, 3)
    corr = CorrespondenceSet(np.zeros(40, dtype=np.int64),
                             rng.uniform(size=(40, 3)),
                             np.zeros(40))
    sys = assemble_surrogate(g, deform(g, X), corr, EnergyParams(0.2, 0.2, 0.7, 1.3))
    _, G = surrogate_at(sys, X)
    h = 1e-6
    for (a, b) in [(0, 0), (3, 2), (7, 1), (11, 0)]:
        Xp = X.copy(); Xp[a, b] += h
        Xm = X.copy(); Xm[a, b] -= h
        fd = (surrogate_at(sys, Xp)[0] - surrogate_at(sys, Xm)[0]) / (2 * h)
        assert G[a, b] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_assemble_h0_matches_dense():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 3, 25)
    X = random_state(rng, 3)
    corr = CorrespondenceSet(np.zeros(25, dtype=np.int64),
                             rng.uniform(size=(25, 3)),
                             np.zeros(25))
    params = EnergyParams(0.3, 0.3, 0.5, 2.0)
    sys = assemble_surrogate(g, deform(g, X), corr, params)
    F = g.F.toarray()
    B = g.B.toarray()
    J = np.diag(np.tile([1.0, 1.0, 1.0, 0.0], 3))    # identity on the A rows
    dense_two_m = 2.0 * (F.T @ np.diag(sys.wa) @ F + params.alpha * B.T @ np.diag(sys.wr) @ B)
    dense = dense_two_m + 2.0 * params.beta * J + 1e-8 * np.eye(12)
    two_m = sys.assemble_H0()
    H = two_m.toarray()
    assert np.abs(H - dense_two_m).max() < 1e-12
    assert np.array_equal(H, H.T)
    S = rng.normal(size=(12, 3))
    assert np.abs(H - dense_two_m).max() <= 1e-12 * np.abs(dense_two_m).max()
    # the factor adds H0's diagonal: it solves the dense H0
    x = factor_h0(two_m, sys.h0_diagonal()).solve(S)
    ref = np.linalg.solve(dense, S)
    assert np.abs(x - ref).max() <= 1e-13 * np.linalg.cond(dense) * np.abs(ref).max()
    # every node pair shares a point here, so the band is the whole matrix
    assert sorted(two_m.rows[::4] // 4) == [0, 1, 2]
    assert two_m.band.shape == (12, 12)


def test_majorization_small():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 4, 60)
    Xk = random_state(rng, 4)
    corr = CorrespondenceSet(np.zeros(60, dtype=np.int64),
                             rng.uniform(size=(60, 3)),
                             np.zeros(60))
    params = EnergyParams(0.15, 0.2, 0.8, 1.0)
    sys = assemble_surrogate(g, deform(g, Xk), corr, params)

    def frozen(X):
        da = np.linalg.norm(g.F @ X + g.P - sys.U, axis=1)
        dr = np.linalg.norm(g.B @ X - g.Y, axis=1)
        return (float(np.sum(welsch(da, params.nu_a)))
                + params.alpha * float(np.sum(welsch(dr, params.nu_r)))
                + params.beta * float(np.sum(rotation_residual(X) ** 2)))

    e0s, e0f = surrogate_at(sys, Xk)[0], frozen(Xk)
    for _ in range(50):
        X = Xk + rng.normal(size=Xk.shape) * rng.uniform(0.01, 0.5)
        assert surrogate_at(sys, X)[0] - e0s >= frozen(X) - e0f - 1e-10


def test_total_energy_consistency(grid25):
    rng = np.random.default_rng(9)
    g = build_graph(grid25)
    X = random_state(rng, g.n_nodes, spread=0.05)
    target = Surface(grid25.vertices + 0.01 * rng.normal(size=grid25.vertices.shape))
    corr = find_correspondences(transform_points(g, X), target)
    params = EnergyParams(0.05, 0.05, 1.0, 2.0)
    total = total_energy(deform(g, X), corr, params)
    ref = robust_energy(g, X, corr, params)
    assert abs(total - ref) <= 1e-12 * ref
