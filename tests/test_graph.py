import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix

from nrreg import geodesic, graph
from nrreg.correspond import RigidTransform, lift_rigid_to_state
from nrreg.energy import EnergyParams, SurrogateSystem, deform, identity_state, pack_state
from nrreg.errors import InvalidInputError
from nrreg.geodesic import geodesic_from
from nrreg.graph import (DeformationGraph, build_graph, influence_weights, principal_axis,
                         sample_nodes_farthest, sample_nodes_pca, transform_points)
from nrreg.mesh import Surface, mean_edge_length, surface_edges

from conftest import grid_mesh, polyline_surface, rot_z
from oracles import dense, influence_list


def fields(s, nodes, R):
    """Node fields as the samplers return them, the (vertex indices,
    distances) of the points below R, for hand-picked nodes."""
    out = []
    for v in nodes:
        d = dense(geodesic_from(s, v), s.n_vertices)
        idx = np.flatnonzero(d < R)
        out.append((idx, d[idx]))
    return out


def test_principal_axis_sign_fixed():
    pts = np.column_stack([np.linspace(0, 5, 20), np.zeros(20), np.zeros(20)])
    ax = principal_axis(pts)
    assert np.allclose(ax, [1, 0, 0], atol=1e-12)
    # flipping the data must not flip the reported axis
    assert np.allclose(principal_axis(pts[::-1]), ax)


def test_pca_scan_collinear():
    s = polyline_surface(4)   # points at x = 0, 1, 2, 3
    nodes, _ = sample_nodes_pca(s, R=1.5)
    assert nodes.tolist() == [0, 2]


def test_farthest_collinear():
    s = polyline_surface(4)
    # farthest sampling runs to half-radius coverage: 0, then the far end,
    # then the two interior points (both still > R/2 = 0.75 from the nodes)
    nodes, _ = sample_nodes_farthest(s, R=1.5)
    assert nodes.tolist() == [0, 3, 1, 2]


def test_farthest_two_points():
    s = polyline_surface(2, spacing=0.5)
    assert sample_nodes_farthest(s, R=1.0)[0].tolist() == [0]


def test_sampling_separation(grid25):
    R = 5 * mean_edge_length(grid25)
    # PCA scan guarantees pairwise separation >= R; the denser farthest
    # sampler guarantees separation > R/2.  The guarantee holds in the
    # sampler's own accumulated field; re-measuring with independent
    # single-source marching differs by the (direction-dependent) few-percent
    # fast-marching consistency error, hence the 10% slack.
    for sampler, sep in ((sample_nodes_pca, R), (sample_nodes_farthest, R / 2)):
        nodes, _ = sampler(grid25, R)
        for v in nodes:
            d = dense(geodesic_from(grid25, int(v)), grid25.n_vertices)[nodes]
            others = d[nodes != v]
            assert others.min() >= 0.9 * sep


def test_influence_weights_hand_example():
    # nodes at x = 0 and 2.5; the point at x = 1 sees geodesic distances
    # 1 and 1.5, so raw weights (1 - (d/R)^2)^3 with R = 2 normalize to
    # 0.421875 / 0.083740 ~ 0.8344 / 0.1656.
    s = polyline_surface(6, spacing=0.5)   # x = 0, .5, 1, 1.5, 2, 2.5
    W = influence_weights(s.n_vertices, fields(s, [0, 5], 2.0), R=2.0)
    assert W.shape == (6, 2)
    w = W.toarray()[2]
    raw = np.array([(1 - (1.0 / 2) ** 2) ** 3, (1 - (1.5 / 2) ** 2) ** 3])
    assert np.allclose(w, raw / raw.sum())
    assert w[0] == pytest.approx(1728.0 / 2071.0)  # (27/64) / (27/64 + 343/4096)


def test_weights_partition_of_unity(grid25):
    g = build_graph(grid25)
    sums = np.asarray(g.influence.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-12


def test_weights_locality(grid25):
    g = build_graph(grid25)
    W = g.influence.toarray()
    for j, v in enumerate(g.node_indices[:4]):
        d = dense(geodesic_from(grid25, int(v)), grid25.n_vertices)
        assert np.all(W[d >= g.radius, j] == 0.0)


def test_build_graph_defaults(grid25):
    g = build_graph(grid25)
    assert g.radius == pytest.approx(5 * mean_edge_length(grid25))
    assert g.n_nodes > 3
    assert len(g.node_edges) > 0
    assert g.node_edges.dtype == np.int64
    assert np.all(g.node_edges[:, 0] < g.node_edges[:, 1])
    # per-point influence lists match the sparse rows
    for i in (0, 100):
        pairs = influence_list(g, i)
        assert sum(w for _, w in pairs) == pytest.approx(1.0)


def test_build_graph_bad_args(grid25):
    for R in (-1.0, 0.0, float("nan")):
        with pytest.raises(InvalidInputError):
            build_graph(grid25, R=R)
    with pytest.raises(InvalidInputError):
        build_graph(grid25, sampler="random")


def test_halving_radius_adds_nodes(grid25):
    R = 5 * mean_edge_length(grid25)
    assert len(sample_nodes_pca(grid25, R / 2)[0]) > len(sample_nodes_pca(grid25, R)[0])


def test_transform_identity(grid25):
    g = build_graph(grid25)
    X = identity_state(g.n_nodes)
    assert np.abs(transform_points(g, X) - grid25.vertices).max() < 1e-14


def test_transform_lifted_rigid_is_exact(grid25):
    g = build_graph(grid25)
    rt = RigidTransform(rot_z(0.3), np.array([0.1, -0.2, 0.05]))
    X = lift_rigid_to_state(rt, g)
    moved = transform_points(g, X)
    assert np.abs(moved - rt.apply(grid25.vertices)).max() < 1e-12


def test_transform_single_node_affine():
    s = polyline_surface(3, spacing=0.4)
    g = build_graph(s, R=5.0)
    assert g.n_nodes == 1
    A = np.array([[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.1]])
    t = np.array([0.3, 0.0, -0.1])
    X = pack_state(A[None], t[None])
    p = g.node_positions[0]
    expected = (s.vertices - p) @ A.T + p + t
    assert np.allclose(transform_points(g, X), expected, atol=1e-14)


def test_linear_map_and_h0_plan_ignore_the_influence_storage_order():
    """F, B and the H0 band read the influence entries in (point, node)
    order, so a canonical CSR, one with unsorted column indices within rows
    and entries given with their rows out of order build the same bytes."""
    rng = np.random.default_rng(11)
    r, n = 5, 30
    rows = np.repeat(np.arange(n), 3)
    cols = np.concatenate([rng.choice(r, size=3, replace=False) for _ in range(n)])
    vals = rng.uniform(0.1, 1.0, size=3 * n)
    W = csr_matrix((vals, (rows, cols)), shape=(n, r))
    assert W.has_canonical_format
    indices, data = W.indices.copy(), W.data.copy()
    for a, b in zip(W.indptr[:-1], W.indptr[1:]):
        indices[a:b], data[a:b] = indices[a:b][::-1].copy(), data[a:b][::-1].copy()
    unsorted = csr_matrix((data, indices, W.indptr), shape=(n, r))
    assert not unsorted.has_sorted_indices
    shuffle = rng.permutation(3 * n)
    out_of_order = coo_matrix((vals[shuffle], (rows[shuffle], cols[shuffle])), shape=(n, r))
    nodes, sources = rng.uniform(size=(r, 3)), rng.uniform(size=(n, 3))
    edges = np.array([[0, 1], [0, 3], [1, 2], [2, 4], [3, 4]])
    wa, wr = rng.uniform(size=n), rng.uniform(size=2 * len(edges))
    built = []
    for influence in (W, unsorted, out_of_order):
        g = DeformationGraph(np.arange(r), nodes, edges, 1.0, influence, sources)
        sys = SurrogateSystem(g, deform(g, identity_state(r)), np.zeros((n, 3)), wa, wr,
                              EnergyParams(1.0, 1.0, 0.5, 1.0))
        built.append([g.F.data, g.F.indices, g.F.indptr, g.B.data, g.B.indices, g.B.indptr,
                      sys.assemble_H0().band])
    for arrays in built[1:]:
        for a, b in zip(built[0], arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_graph_oracle(s, R, sampler):
    """The graph recomputed per node with dense (r, n) arrays: a cap-R (PCA)
    or uncapped (farthest) field per node for sampling, then a second field
    per node, capped at R, for the influence weights and the edges, which
    join the nodes j < k that both reach some point below R."""
    nearest = np.full(s.n_vertices, np.inf)
    if sampler == "pca":
        nodes = []
        for i in np.argsort(s.vertices @ principal_axis(s.vertices), kind="stable"):
            if nearest[i] >= R:
                nodes.append(int(i))
                np.minimum(nearest, dense(geodesic_from(s, int(i), cap=R), s.n_vertices),
                           out=nearest)
    else:
        nodes = [0]
        while True:
            np.minimum(nearest, dense(geodesic_from(s, nodes[-1]), s.n_vertices), out=nearest)
            finite = np.where(np.isfinite(nearest), nearest, -1.0)
            if finite.max() <= 0.5 * R:
                break
            nodes.append(int(np.argmax(finite)))
    nodes = np.array(nodes, dtype=np.int64)
    dists = np.stack([dense(geodesic_from(s, int(v), cap=R), s.n_vertices) for v in nodes])
    raw = np.zeros_like(dists)
    inside = dists < R
    raw[inside] = (1.0 - (dists[inside] / R) ** 2) ** 3
    assert np.all(raw.sum(axis=0) > 0)      # no fallback points in these cases
    W = csr_matrix((raw / raw.sum(axis=0, keepdims=True)).T)
    W.eliminate_zeros()
    edges = [(j, k) for j in range(len(nodes)) for k in range(j + 1, len(nodes))
             if np.any(inside[j] & inside[k])]
    return nodes, np.array(edges, dtype=np.int64).reshape(-1, 2), W


@pytest.mark.parametrize("sampler", ["pca", "farthest"])
@pytest.mark.parametrize("case", ["grid25", "polyline"])
def test_build_graph_matches_dense_oracle(grid25, case, sampler):
    if case == "grid25":
        s, R = grid25, 5 * mean_edge_length(grid25)
    else:
        s, R = polyline_surface(30, spacing=0.3), 1.0
    g = build_graph(s, R=R, sampler=sampler)
    nodes, edges, W = dense_graph_oracle(s, R, sampler)
    assert np.array_equal(g.node_indices, nodes)
    assert np.array_equal(g.node_edges, edges)
    assert len(edges) > 0
    for a, b in ((g.influence.indptr, W.indptr), (g.influence.indices, W.indices),
                 (g.influence.data, W.data)):
        assert np.array_equal(a, b)
    assert len(g.fallback_points) == 0


@pytest.mark.parametrize("sampler, n_nodes, bound", [
    pytest.param("pca", 90, 10_000, id="pca"),
    pytest.param("farthest", 232, 50_000, id="farthest")])
def test_build_marches_only_near_its_nodes(monkeypatch, sampler, n_nodes, bound):
    reached = []

    def counting(s, seed, cap=None):
        f = geodesic_from(s, seed, cap=cap)
        reached.append(int(np.count_nonzero(np.isfinite(f.distances))))
        return f

    monkeypatch.setattr(graph, "geodesic_from", counting)
    s = grid_mesh(50, 50)
    g = build_graph(s, sampler=sampler)
    assert g.n_nodes == len(reached) == n_nodes
    # uncapped marches would reach every vertex from every node; capped at R
    # (PCA) or at max(nearest[f], R) after a first uncapped march (farthest),
    # they reach 6 909 and 38 700 of 2 500 x 90 and 2 500 x 232
    if sampler == "farthest":
        assert reached[0] == s.n_vertices
    assert sum(reached) <= bound


def test_point_cloud_graph_builds_its_knn_graph_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return surface_edges(s)

    monkeypatch.setattr(geodesic, "surface_edges", counting)
    rng = np.random.default_rng(5)
    cloud = Surface(grid_mesh(12, 12).vertices + rng.normal(0.0, 0.01, size=(144, 3)))
    R = 5.0 * mean_edge_length(cloud)
    for sampler in ("pca", "farthest"):
        g = build_graph(Surface(cloud.vertices), R=R, sampler=sampler)
        assert g.n_nodes > 1
        assert len(calls) == 1
        calls.clear()
