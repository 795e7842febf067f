"""Property tests of the invariants the graph and the solver rely on.

The graph marches each node's field once, capped at R, and reads both the
sampling test and the influence weights from it.  That is exact only if a
capped field is the uncapped one cut at the cap; a field holds only the
vertices its march reached, so it holds nothing of another component.
Farthest-point sampling caps every march at ``max(nearest[f], R)``,
and must pick the nodes and fields of a sampler that marches every field
uncapped.  Two nodes are joined exactly when some point lies below R from
both by their uncapped fields, and every point lies below R from some node,
so every point has a weight.  Fast marching runs on lengths and dots
precomputed per surface, and must give the fields of a march that takes
them from the points as it goes, to the last bit.

The solver starts from a rigid map lifted onto the graph, so the lifted
state must reproduce that map exactly.  Each outer iteration minimizes a
quadratic surrogate, which lowers the robust energy only if the surrogate
majorizes it; and each L-BFGS step needs a descent direction.  L-BFGS is
seeded with ``H0 = 2 M + 2 beta I_A + jitter I``.  The graph's plan fills
the quadratic part's Hessian ``2 M`` from pair moments of the influence
offsets: it must be the dense ``2 (F^T W_a F + alpha B^T W_r B)`` on any
graph (no edges, points on one node, coordinates far from the origin), exactly symmetric, with its product that of the dense matrix,
and the band Cholesky factor of it plus H0's diagonal must solve the dense
H0.  It is stored as a band in an order of the nodes, each node's four rows
together, that holds every node pair sharing a point or an edge inside the
band.
The inner solver evaluates its trials in state space, through the
surrogate's quadratic part expanded once around its start: at any trial state
the energy and gradient must be those computed from the residuals, to 1e-10
relative, and the solver must stop at the very state, to the last bit, of a
solver that restates the expansion on arrays and evaluates energy and
gradient separately at each call.

Each outer iteration finds its closest points from the last iteration's,
keeping a row's old nearest point where a margin certifies it: along any
walk of query sets the result must be, bit for bit, the tree's cold answer,
ties and NaN queries included, and every margin a lower bound on the
distance to every other target point.

Rotations are projected by a Newton polar iteration on the batch's entry
planes, with an SVD fallback: on any batch (general, singular, reflected,
zero) every row must be a rotation, the SVD's own rotation wherever that is
well determined, and byte for byte the SVD's on the rows that must take the
fallback.  Each row must come out as it does alone, and as the same
iteration run one matrix at a time on Python floats.

PCA normals take the smallest eigenvector of each neighbourhood covariance in
closed form, falling back to LAPACK where the closed form loses accuracy: on
any positive semi-definite 3x3 matrix (rank 0 to 3, repeated eigenvalues,
scales from 1e-12 to 1e12) the vector must be a unit eigenvector to the
working precision, and LAPACK's own vector wherever it is unique.  The
normals have no sign, so a rigidly moved, reordered cloud must get the moved
normals, each up to its sign, wherever the neighbourhood's smallest
eigenvalue is well separated.  A cloud's normals are estimated row by row,
each on its first read: whatever rows are read, in whatever order and
however often, each must be the row of one pass over all points, to the
last bit.

Surfaces are read and written as PLY one block per element, and must load
and save exactly as a reader and writer that go row by row do.  An ascii
body written one row per line is converted one element at a time from its
own lines, any other one whole, as one stream of values: every value,
written by ``repr`` or by ``%.9g`` and set between any runs of whitespace
and line breaks, must load as ``float`` reads its token, to the last bit,
and whatever the layout, the lines must load, or fail with the message, as
the stream does.  Edges are
deduplicated by sorting one integer key per index pair, and must come out as
the sorted unique rows, byte for byte as ``np.unique`` of the keys gives them.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from nrreg import mesh
from nrreg.correspond import (CorrespondenceSet, RigidTransform, find_correspondences,
                              lift_rigid_to_state)
from nrreg.energy import (SPD_JITTER, EnergyParams, SurrogateSystem, Trial,
                          assemble_surrogate, deform, gaussian_weight, identity_state,
                          project_rotations, total_energy)
from nrreg.errors import FormatError, InvalidInputError
from nrreg.geodesic import geodesic_from
from nrreg.graph import (SAMPLERS, DeformationGraph, build_graph, sample_nodes_farthest,
                         transform_points)
from nrreg.mesh import (Surface, _pca_normals, _smallest_eigenvectors, compute_normals,
                        edges_from_faces, load_obj, load_ply, save_ply, surface_edges)
from nrreg.solver import (LbfgsHistory, SolverParams, factor_h0, solve_inner,
                          two_loop_direction)

from conftest import grid_mesh
from oracles import (dense, edges_unique_keys, edges_unique_rows, fast_marching,
                     load_obj_rows, load_ply_rows, neighbour_covariances,
                     project_rotations_einsum, project_rotations_newton, robust_energy,
                     sample_nodes_farthest_uncapped, save_ply_rows, solve_inner_expanded,
                     surrogate_at, surrogate_energy, surrogate_gradient, upper_entries)
from test_energy import random_graph, random_state

seeds = st.integers(0, 2**32 - 1)


@st.composite
def wavy_grids(draw):
    """A small wavy grid mesh, its vertices jittered in the plane by up to
    0.3 grid spacings, and a seed vertex."""
    nx = draw(st.integers(3, 12))
    ny = draw(st.integers(3, 12))
    s = grid_mesh(nx, ny, wavy=draw(st.floats(0.0, 0.2)))
    rng = np.random.default_rng(draw(seeds))
    v = s.vertices.copy()
    v[:, :2] += rng.uniform(-0.3, 0.3, size=(len(v), 2)) / max(nx, ny)
    return Surface(v, s.faces), draw(st.integers(0, nx * ny - 1))


@settings(max_examples=40, deadline=None)
@given(wavy_grids(), st.floats(0.0, 1.2), st.booleans())
def test_capped_field_is_uncapped_field_cut_at_cap(case, cap_share, point_cloud):
    s, seed = case
    if point_cloud:
        s = Surface(s.vertices)     # Dijkstra on the k-NN surface graph
    full = dense(geodesic_from(s, seed), s.n_vertices)
    cap = cap_share * float(full.max())
    capped = dense(geodesic_from(s, seed, cap=cap), s.n_vertices)
    assert np.array_equal(capped, np.where(full > cap, np.inf, full))


@st.composite
def odd_meshes(draw):
    """A jittered wavy grid, optionally with a second, shifted copy as another
    component, an isolated vertex and a degenerate triangle on two vertices
    anywhere, one of them repeated; and a seed vertex anywhere."""
    s, _ = draw(wavy_grids())
    v, f = s.vertices, s.faces
    if draw(st.booleans()):
        f = np.vstack([f, f + len(v)])
        v = np.vstack([v, v + [2.0, 0.0, 0.0]])
    if draw(st.booleans()):
        v = np.vstack([v, [0.5, 0.5, 1.0]])
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, len(v) - 1), min_size=2, max_size=2,
                             unique=True))
        f = np.vstack([f, draw(st.permutations([a, a, b]))])
    return Surface(v, f), draw(st.integers(0, len(v) - 1))


@settings(max_examples=60, deadline=None)
@given(odd_meshes(), st.one_of(st.none(), st.floats(0.0, 1.5)))
def test_fmm_matches_pointwise_oracle(case, cap):
    s, seed = case
    assert np.array_equal(dense(geodesic_from(s, seed, cap=cap), s.n_vertices),
                          fast_marching(s.vertices, s.faces, seed, cap))


@settings(max_examples=30, deadline=None)
@given(odd_meshes(), st.booleans(), st.floats(0.1, 0.6))
def test_farthest_sampler_is_the_uncapped_sampler(case, point_cloud, radius_share):
    """Capping each march at ``max(nearest[f], R)`` changes no node and no
    field, on meshes and point clouds, with more than one component and
    isolated vertices."""
    s, _ = case
    if point_cloud:
        s = Surface(s.vertices)
    R = radius_share * float(np.linalg.norm(np.ptp(s.vertices, axis=0)))
    nodes, fields = sample_nodes_farthest(s, R)
    ref_nodes, ref_fields = sample_nodes_farthest_uncapped(s, R)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert len(fields) == len(ref_fields)
    for (idx, d), (ref_idx, ref_d) in zip(fields, ref_fields):
        assert idx.tobytes() == ref_idx.tobytes()
        assert d.tobytes() == ref_d.tobytes()


def two_grids():
    """Two 5x5 grids 2 apart, two components no geodesic joins."""
    s = grid_mesh(5, 5)
    return Surface(np.vstack([s.vertices, s.vertices + [2.0, 0.0, 0.0]]),
                   np.vstack([s.faces, s.faces + 25]))


@settings(max_examples=30, deadline=None)
@given(odd_meshes(), st.booleans(), st.sampled_from(SAMPLERS), st.floats(0.1, 0.6))
@example((two_grids(), 0), False, "farthest", 0.3)
def test_edges_join_the_nodes_that_share_a_point(case, point_cloud, sampler, radius_share):
    """Node edges are the pairs j < k with a point below R from both, by
    uncapped fields, on meshes and point clouds, with more than one component
    and isolated vertices; and every point has a node below R, so none
    falls back."""
    s, _ = case
    if point_cloud:
        s = Surface(s.vertices)
    R = radius_share * float(np.linalg.norm(np.ptp(s.vertices, axis=0)))
    g = build_graph(s, R=R, sampler=sampler)
    inside = np.stack([dense(geodesic_from(s, int(v)), s.n_vertices) < R
                       for v in g.node_indices])
    pairs = [(j, k) for j in range(g.n_nodes) for k in range(j + 1, g.n_nodes)
             if np.any(inside[j] & inside[k])]
    assert g.node_edges.dtype == np.int64
    assert g.node_edges.tobytes() == np.array(pairs, dtype=np.int64).tobytes()
    assert inside.any(axis=0).all()
    assert np.all(np.diff(g.influence.indptr) > 0)
    assert len(g.fallback_points) == 0


@pytest.mark.parametrize("kind", ["mesh", "cloud", "edges"])
@pytest.mark.parametrize("seed", [0, 37])
def test_uncapped_field_holds_its_component_only(kind, seed):
    """An uncapped march reaches all of its own grid and nothing of the
    other: no +inf entry for an unreached vertex, indices ascending."""
    s = two_grids()
    if kind == "cloud":
        s = Surface(s.vertices)
    elif kind == "edges":
        s = Surface(s.vertices, edges=surface_edges(s))
    f = geodesic_from(s, seed)
    own = np.arange(25) + 25 * (seed // 25)
    assert f.indices.tobytes() == own.tobytes()
    assert np.all(np.diff(f.indices) > 0)
    assert np.isfinite(f.distances).all()
    assert len(f.distances) == 25 and f.distances[seed % 25] == 0.0


def test_farthest_sampler_seeds_every_component():
    """A point no node reaches is the farthest, so farthest-point sampling
    puts nodes on both grids and leaves no point to fall back."""
    g = build_graph(two_grids(), sampler="farthest")
    assert np.any(g.node_indices < 25) and np.any(g.node_indices >= 25)
    assert len(g.fallback_points) == 0


@settings(max_examples=40, deadline=None)
@given(wavy_grids())
def test_fmm_between_euclidean_and_dijkstra(case):
    s, seed = case
    fmm = dense(geodesic_from(s, seed), s.n_vertices)
    dij = dense(geodesic_from(Surface(s.vertices, edges=surface_edges(s)), seed), s.n_vertices)
    euclid = np.linalg.norm(s.vertices - s.vertices[seed], axis=1)
    assert np.all(euclid <= fmm + 1e-12)
    assert np.all(fmm <= dij + 1e-12)


@settings(max_examples=25, deadline=None)
@given(wavy_grids(), st.booleans(), seeds)
def test_lifted_rigid_state_reproduces_rigid_map(case, point_cloud, seed):
    s, _ = case
    if point_cloud:
        s = Surface(s.vertices)
    g = build_graph(s)
    rng = np.random.default_rng(seed)
    rt = RigidTransform(Rotation.random(random_state=rng).as_matrix(),
                        rng.uniform(-1.0, 1.0, size=3))
    moved = transform_points(g, lift_rigid_to_state(rt, g))
    assert np.abs(moved - rt.apply(s.vertices)).max() < 1e-12


@st.composite
def query_walks(draw):
    """A target point set, query points over it and the steps of a walk:
    a number moves each query up to that many point spacings in a random
    direction (some queries stay put), ``"snap"`` moves every query onto a
    tie point (a cell centre of the integer grid, a target point elsewhere)
    and ``"nan"`` makes one query NaN.  The targets are a random cloud, an
    integer grid, a cloud with coincident points or one point."""
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["cloud", "grid", "coincident", "one"]))
    if kind == "grid":
        side = np.arange(float(draw(st.integers(2, 4))))
        pts = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1).reshape(-1, 3)
    elif kind == "coincident":
        base = rng.uniform(size=(draw(st.integers(1, 20)), 3))
        pts = base[rng.integers(0, len(base), size=2 * len(base))]
    else:
        pts = rng.uniform(size=(1 if kind == "one" else draw(st.integers(2, 60)), 3))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    spacing = 1.0 if kind == "grid" else len(pts) ** (-1 / 3)
    queries = rng.uniform(lo - spacing, hi + spacing, size=(draw(st.integers(1, 40)), 3))
    steps = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 1.0, 3.0,
                                           "snap", "nan"]), min_size=1, max_size=12))
    return kind, pts, queries, steps, spacing, rng


def _same_correspondences(a, b):
    return (a.indices.tobytes() == b.indices.tobytes()
            and a.positions.tobytes() == b.positions.tobytes()
            and a.distances.tobytes() == b.distances.tobytes())


@settings(max_examples=100, deadline=None)
@given(query_walks(), st.sampled_from([1.0, 1e-6, 1e6]), st.sampled_from([0.0, 1e3]))
def test_warm_correspondences_are_the_cold_ones(walk, scale, offset):
    """Along a walk of query sets, each found from the last, the closest
    points are bit for bit those found cold, and every margin is below the
    distance to every target point but the nearest.  A NaN query is never
    certified (the tree refuses it), and a previous set from another surface's
    tree or with another number of rows is ignored."""
    kind, pts, raw, steps, spacing, rng = walk
    target = Surface(pts * scale + offset)
    # every query's nearest decoy point is the target's first point, and the
    # other decoy point is far: its sets would certify that point everywhere
    decoy = Surface(target.vertices[0] + np.array([[0.0] * 3, [1e3 * scale] * 3]))
    prev = find_correspondences(raw * scale + offset, target)
    for step in steps:
        moved = raw.copy()
        if step == "nan":
            moved[rng.integers(len(moved))] = np.nan
        elif step == "snap":
            if kind == "grid":
                moved = np.floor(moved) + 0.5
            else:
                moved = pts[rng.integers(0, len(pts), size=len(moved))]
        else:
            direction = rng.normal(size=moved.shape)
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            moved += (step * spacing * rng.uniform(size=(len(moved), 1))
                      * (rng.uniform(size=(len(moved), 1)) < 0.8) * direction)
        queries = moved * scale + offset
        if step == "nan":
            for previous in (None, prev):
                with pytest.raises(ValueError):
                    find_correspondences(queries, target, previous)
            continue
        cold = find_correspondences(queries, target)
        warm = find_correspondences(queries, target, prev)
        assert _same_correspondences(warm, cold)
        foreign = find_correspondences(queries, decoy)
        assert _same_correspondences(find_correspondences(queries, target, foreign), cold)
        if len(queries) > 1:
            fewer = find_correspondences(queries[1:], target)
            assert _same_correspondences(find_correspondences(queries, target, fewer), cold)
        dist = np.linalg.norm(queries[:, None, :] - target.vertices[None, :, :], axis=2)
        dist[np.arange(len(queries)), warm.indices] = np.inf
        assert np.all(warm.margin <= dist.min(axis=1))
        raw, prev = moved, warm


@settings(max_examples=40, deadline=None)
@given(seeds, st.floats(0.05, 0.5), st.floats(0.05, 0.5), st.floats(0.1, 2.0),
       st.floats(0.1, 2.0), st.floats(0.01, 1.0))
def test_surrogate_majorizes_energy(seed, nu_a, nu_r, alpha, beta, step):
    """With the correspondences frozen, the surrogate rises from X_k at least
    as much as the robust energy does."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 4, 40)
    Xk = random_state(rng, 4)
    corr = CorrespondenceSet(np.zeros(40, dtype=np.int64), rng.uniform(size=(40, 3)),
                             np.zeros(40))
    params = EnergyParams(nu_a, nu_r, alpha, beta)
    sys = assemble_surrogate(g, deform(g, Xk), corr, params)
    X = Xk + step * rng.normal(size=Xk.shape)
    at, at_k = deform(g, X), deform(g, Xk)
    surrogate_change = surrogate_at(sys, X)[0] - surrogate_at(sys, Xk)[0]
    energy_change = total_energy(at, corr, params) - total_energy(at_k, corr, params)
    assert surrogate_change >= energy_change - 1e-10 * max(1.0, abs(surrogate_change))


@st.composite
def odd_graphs(draw):
    """A deformation graph of 1 to 6 nodes over 1 to 30 points.  Every node
    influences a point; each point's weights sit on 1 to 4 nodes, a drawn
    share of points on one node only; the edge set may be empty; the whole geometry may sit 1e3 away
    from the origin, where raw moments of the points would cancel."""
    rng = np.random.default_rng(draw(seeds))
    r = draw(st.integers(1, 6))
    n = draw(st.integers(r, 30))
    one_node = draw(st.floats(0.0, 1.0))
    rows, cols, vals = [], [], []
    for i in range(n):
        k = 1 if rng.uniform() < one_node else int(rng.integers(1, min(r, 4) + 1))
        js = rng.choice(r, size=k, replace=False)
        if i < r and i not in js:
            js[0] = i
        w = rng.uniform(0.1, 1.0, size=k)
        rows += [i] * k
        cols += list(js)
        vals += list(w / w.sum())
    W = csr_matrix((vals, (rows, cols)), shape=(n, r))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    keep = draw(st.sampled_from([0.0, 0.5, 1.0]))
    edges = np.array([e for e in pairs if rng.uniform() < keep], dtype=np.int64).reshape(-1, 2)
    offset = draw(st.sampled_from([0.0, 1e3]))
    return DeformationGraph(np.arange(r), rng.uniform(size=(r, 3)) + offset, edges, 1.0, W,
                            rng.uniform(size=(n, 3)) + offset)


@settings(max_examples=150, deadline=None)
@given(odd_graphs(), seeds, st.floats(0.0, 3.0), st.floats(0.05, 5.0),
       st.sampled_from([1e-3, 1.0, 1e2]))
def test_assembled_h0_is_the_dense_form_and_factors(g, seed, alpha, beta, scale):
    rng = np.random.default_rng(seed)
    wa = scale * rng.uniform(size=g.n_points)
    wr = scale * rng.uniform(size=g.B.shape[0])
    sys = SurrogateSystem(g, deform(g, identity_state(g.n_nodes)), np.zeros((g.n_points, 3)),
                          wa, wr, EnergyParams(1.0, 1.0, alpha, beta))
    two_m = sys.assemble_H0()
    M2 = two_m.toarray()
    F, B = g.F.toarray(), g.B.toarray()
    J = np.diag(np.tile([1.0, 1.0, 1.0, 0.0], g.n_nodes))     # identity on the A rows
    dense_two_m = 2.0 * (F.T @ np.diag(wa) @ F + alpha * B.T @ np.diag(wr) @ B)
    dense = dense_two_m + 2.0 * beta * J + SPD_JITTER * np.eye(4 * g.n_nodes)
    assert np.abs(M2 - dense_two_m).max() <= 1e-12 * np.abs(dense_two_m).max()
    assert np.array_equal(M2, M2.T)
    rhs = rng.normal(size=(4 * g.n_nodes, 3))
    # the factor is that of H0 = 2 M + diag(c)
    H = M2 + np.diag(sys.h0_diagonal())
    assert np.abs(H - dense).max() <= 1e-12 * np.abs(dense).max()
    x = factor_h0(two_m, sys.h0_diagonal()).solve(rhs)
    ref = np.linalg.solve(H, rhs)
    # both solvers are backward stable: each is within a few n eps cond(H)
    assert np.abs(x - ref).max() <= 1e-13 * np.linalg.cond(H) * np.abs(ref).max()
    assert_band_layout(g, two_m)


def assert_band_layout(g, H0):
    """H0's band rows take the nodes in some order, each node's four rows
    together, and every node pair that shares a point or an edge lies
    inside the band."""
    r = g.n_nodes
    nodes = H0.rows[::4] // 4
    assert np.array_equal(np.sort(nodes), np.arange(r))
    assert np.array_equal(H0.rows, (4 * nodes[:, None] + np.arange(4)).ravel())
    rank = np.argsort(nodes)
    W = (g.influence != 0).astype(np.int64)
    shared = (W.T @ W).toarray() > 0
    j, l = np.nonzero(shared | np.eye(r, dtype=bool))
    j, l = np.concatenate([j, g.node_edges[:, 0]]), np.concatenate([l, g.node_edges[:, 1]])
    assert np.all(4 * np.abs(rank[j] - rank[l]) + 3 <= len(H0.band) - 1)


@st.composite
def matrix_batches(draw):
    """1 to 30 3x3 matrices, each general, drawn entry by entry (zeros and
    repeats included), near the identity, rank 2, rank 1, zero, a rotation,
    or a rotation times a reflection (negative determinant); with each
    matrix's kind."""
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(["general", "drawn", "near_identity", "rank2",
                                           "rank1", "zero", "rotation", "reflection"]),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    out = []
    for kind in kinds:
        M = scale * rng.normal(size=(3, 3))
        if kind == "drawn":
            M = draw(arrays(np.float64, (3, 3), elements=st.sampled_from([0.0, -0.0, 1.0, -1.0,
                                                                          0.5, 2.0, -3.0])))
        elif kind == "near_identity":
            M = np.eye(3) + 1e-7 * M
        elif kind == "rank2":
            M[:, 2] = M[:, 0] if draw(st.booleans()) else 0.5 * M[:, 0] - 2.0 * M[:, 1]
        elif kind == "rank1":
            M = np.outer(M[0], M[1])
        elif kind == "zero":
            M = np.zeros((3, 3))
        elif kind in ("rotation", "reflection"):
            M = Rotation.random(random_state=rng).as_matrix()
            if kind == "reflection":
                M = M @ np.diag([1.0, 1.0, -1.0])
        out.append(M)
    return np.array(out), kinds


@settings(max_examples=300, deadline=None)
@given(matrix_batches())
def test_project_rotations_are_the_svd_rotations(case):
    As, kinds = case
    P = project_rotations(As)
    ref = project_rotations_einsum(As)
    # every row, by whichever route, is a rotation
    assert np.abs(np.einsum("nji,njk->nik", P, P) - np.eye(3)).max() <= 1e-14
    assert np.abs(np.linalg.det(P) - 1.0).max() <= 1e-14
    # where the rotation is well determined (condition number at most 100),
    # it is the SVD's
    s = np.linalg.svd(As, compute_uv=False)
    well = (np.linalg.det(As) > 0) & (s[:, 2] >= 1e-2 * s[:, 0])
    assert np.abs(P[well] - ref[well]).max(initial=0.0) <= 1e-12
    # reflections and singular matrices take the SVD itself
    fallback = np.isin(kinds, ["reflection", "rank2", "rank1", "zero"])
    assert P[fallback].tobytes() == ref[fallback].tobytes()


@settings(max_examples=300, deadline=None)
@given(matrix_batches())
def test_project_rotations_row_by_row_is_the_scalar_oracle(case):
    As, _ = case
    P = project_rotations(As)
    assert P.tobytes() == project_rotations_newton(As).tobytes()
    for k in range(len(As)):
        assert project_rotations(As[k:k + 1]).tobytes() == P[k].tobytes()


@st.composite
def psd_batches(draw):
    """1 to 20 symmetric positive semi-definite 3x3 matrices ``U diag(lam) U^T``
    of rank 0 to 3, some eigenvalues repeated, at one scale from 1e-12 to
    1e12, with their drawn spectra (largest first, before scaling)."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(seeds))
    scale = 10.0 ** draw(st.floats(-12.0, 12.0))
    values = st.sampled_from([1.0, 1e-3]) | st.floats(1e-8, 1.0)
    spectra = []
    for _ in range(n):
        rank = draw(st.integers(0, 3))
        lam = draw(st.lists(values, min_size=rank, max_size=rank)) + [0.0] * (3 - rank)
        spectra.append(sorted(lam, reverse=True))
    spectra = np.array(spectra)
    U = Rotation.random(n, random_state=rng).as_matrix()
    C = scale * np.einsum("nij,nj,nkj->nik", U, spectra, U)
    return 0.5 * (C + C.transpose(0, 2, 1)), spectra


@settings(max_examples=300, deadline=None)
@given(psd_batches())
def test_smallest_eigenvectors_solve_the_eigenproblem(case):
    C, spectra = case
    vec = _smallest_eigenvectors(upper_entries(C))
    assert np.isfinite(vec).all()
    assert np.abs(np.linalg.norm(vec, axis=1) - 1.0).max() <= 1e-12
    # holds for any vector of the eigenspace, unique or not
    lam = np.linalg.eigvalsh(C)
    resid = np.linalg.norm(np.einsum("nij,nj->ni", C, vec) - lam[:, :1] * vec, axis=1)
    assert np.all(resid <= 1e-10 * np.abs(lam).max(axis=1))
    # a well-separated smallest eigenvalue fixes the vector up to sign
    sep = spectra[:, 1] - spectra[:, 2] > 1e-3 * spectra[:, 0]
    ref = np.linalg.eigh(C[sep])[1][:, :, 0]
    sign = np.sign(np.einsum("ij,ij->i", vec[sep], ref))[:, None]
    # the chord, not arccos of the dot, resolves angles below 1e-8 rad
    assert np.all(np.linalg.norm(vec[sep] - sign * ref, axis=1) <= 1e-9)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(12, 400), st.floats(0.0, 0.05), st.sampled_from([6, 10]),
       st.floats(-10.0, 10.0))
def test_pca_normals_move_with_the_cloud(seed, n, noise, k, shift):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(size=(n, 2))
    pts = np.column_stack([xy, 0.1 * np.sin(4.0 * xy[:, 0]) + rng.normal(0.0, noise, size=n)])
    R = Rotation.random(random_state=rng).as_matrix()
    perm = rng.permutation(n)
    moved = (pts @ R.T + shift * rng.uniform(-1.0, 1.0, size=3))[perm]
    expected = _pca_normals(pts, k=k) @ R.T
    got = np.empty_like(expected)
    got[perm] = _pca_normals(moved, k=k)
    # the eigenvector is determined where the smallest eigenvalue is clear
    # of the middle one
    _, idx = cKDTree(pts).query(pts, k=min(k, n - 1) + 1)
    lam = np.linalg.eigvalsh(neighbour_covariances(pts, idx))
    clear = lam[:, 1] - lam[:, 0] > 1e-2 * lam[:, 2]
    sign = np.sign(np.einsum("ij,ij->i", got, expected))[:, None]
    # the chord, not arccos of the dot, resolves angles below 1e-8 rad
    assert np.all(np.linalg.norm(got - sign * expected, axis=1)[clear] <= 1e-9)


@st.composite
def normal_reads(draw):
    """A point cloud, a neighbourhood size k and keys to read its normals
    by, in turn: an int, an index array (any order, repeats, negative
    indices), a boolean mask, a slice, a row key with a column, or all
    rows.  The clouds are a noisy wavy sheet, an integer grid (exact
    distance ties), a cloud with coincident points, or three points; k runs
    up to and past n - 1."""
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["sheet", "grid", "coincident", "three"]))
    if kind == "sheet":
        n = draw(st.integers(3, 300))
        xy = rng.uniform(size=(n, 2))
        pts = np.column_stack([xy, 0.1 * np.sin(4.0 * xy[:, 0]) + rng.normal(0.0, 0.01, size=n)])
    elif kind == "grid":
        side = np.arange(float(draw(st.integers(2, 5))))
        layers = side[:draw(st.integers(1, 3))]
        pts = np.stack(np.meshgrid(side, side, layers, indexing="ij"), axis=-1).reshape(-1, 3)
    elif kind == "coincident":
        base = rng.uniform(size=(draw(st.integers(1, 20)), 3))
        pts = base[rng.integers(0, len(base), size=2 * len(base) + 1)]
    else:
        pts = rng.uniform(size=(3, 3))
    n = len(pts)
    k = draw(st.one_of(st.integers(2, 12), st.integers(max(2, n - 2), n + 2)))
    keys = []
    for how in draw(st.lists(st.sampled_from(["int", "array", "mask", "slice", "column", "all"]),
                             min_size=1, max_size=8)):
        if how == "int":
            key = int(rng.integers(-n, n))
        elif how == "array":
            key = rng.integers(-n, n, size=int(rng.integers(0, 2 * n)))
        elif how == "mask":
            key = rng.uniform(size=n) < rng.uniform()
        elif how == "slice":
            key = slice(*(int(v) for v in rng.integers(-n, n + 1, size=2)),
                        int(rng.choice([-3, -1, 1, 2, 5])))
        elif how == "column":
            key = (rng.integers(-n, n, size=int(rng.integers(1, 5))), int(rng.integers(-3, 3)))
        else:
            key = slice(None)
        keys.append(key)
    return pts, k, keys


@settings(max_examples=150, deadline=None)
@given(normal_reads())
def test_normals_read_row_by_row_are_the_full_pass(case):
    """Rows of a cloud's normals, estimated as they are first read, are the
    rows of one pass over all points, bit for bit, and so is the array
    they add up to."""
    pts, k, keys = case
    full = _pca_normals(pts, k)
    normals = compute_normals(Surface(pts), k=k).normals
    for key in keys:
        got, want = normals[key], full[key]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.asarray(normals).tobytes() == full.tobytes()


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(2, 6), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([0.0, 0.5, 1.5]),
       st.sampled_from(["welsch", "l2"]), st.floats(0.0, 1.0), st.sampled_from([0.0, 1e3]))
# near-zero Welsch weights: the quadratic energy is about 1e-28, so the trial
# curvature must carry no rounding from H0's diagonal
@example(seed=55813, r=2, nu_a=0.0625, nu_r=0.5, alpha=0.0, beta=0.0, kernel="welsch",
         step=1.0, offset=0.0)
def test_trial_energy_and_gradient_are_the_residual_forms(seed, r, nu_a, nu_r, alpha, beta,
                                                          kernel, step, offset):
    """A trial state evaluated around the start, in state space, has the
    energy and gradient computed from its residuals."""
    rng = np.random.default_rng(seed)
    n = 10 * r
    g = random_graph(rng, r, n)
    Xk = random_state(rng, r) + offset * np.tile([0.0, 0.0, 0.0, 1.0], r)[:, None]
    corr = CorrespondenceSet(np.zeros(n, dtype=np.int64), rng.uniform(size=(n, 3)) + offset,
                             np.zeros(n))
    start = deform(g, Xk)
    sys = assemble_surrogate(g, start, corr, EnergyParams(nu_a, nu_r, alpha, beta, kernel))
    zero = np.zeros_like(Xk)
    first = Trial(Xk, zero, zero, start.rot)
    two_m = sys.assemble_H0().toarray()
    for S in (np.zeros_like(Xk), step * rng.normal(size=Xk.shape)):
        trial = first.along(1.0, S, two_m @ S)
        E, G = surrogate_energy(sys, trial.X), surrogate_gradient(sys, trial.X)
        assert abs(sys.energy(trial) - E) <= 1e-10 * E
        assert np.abs(sys.gradient(trial) - G).max() <= 1e-10 * np.abs(G).max()


# |2 M d - dense 2 M @ d| / (max |H0| max |d|) reached 1.3e-14 over 20 601
# directions of 300 drawn solves, weights scaled from 1e-20 to 1e2
TWO_M_D_RTOL = 1e-13


@settings(max_examples=100, deadline=None)
@given(odd_graphs(), seeds, st.floats(0.0, 3.0), st.sampled_from([0.0, 0.5, 1.5]),
       st.sampled_from([1e-20, 1e-3, 1.0, 1e2]), st.integers(1, 6), st.floats(0.05, 1.0))
def test_inner_solve_takes_two_m_d_from_the_recursion(g, seed, alpha, beta, scale, m, spread):
    """The ``2 M d`` each direction of an inner solve carries into its
    trials, taken from the two-loop recursion with no product, is the
    product with the assembled ``2 M``, within ``TWO_M_D_RTOL`` of
    ``max |H0| max |d|``.  The solve runs to its floor (``eps1`` 1e-12), so
    its directions come from histories of 0 up to ``m`` pairs."""
    rng = np.random.default_rng(seed)
    wa = scale * rng.uniform(size=g.n_points)
    wr = scale * rng.uniform(size=g.B.shape[0])
    U = rng.uniform(size=(g.n_points, 3))
    start = deform(g, random_state(rng, g.n_nodes, spread))
    sys = SurrogateSystem(g, start, U, wa, wr, EnergyParams(1.0, 1.0, alpha, beta))
    two_m = sys.assemble_H0().toarray()
    h0_max = np.abs(two_m + np.diag(sys.h0_diagonal())).max()
    seen = []
    along = Trial.along

    def recorded(self, lam, d, two_m_d):
        seen.append((d, two_m_d))
        return along(self, lam, d, two_m_d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trial, "along", recorded)
        solve_inner(sys, SolverParams(m=m, eps1=1e-12))
    for d, two_m_d in seen:
        err = np.abs(two_m_d - two_m @ d).max()
        assert err <= TWO_M_D_RTOL * h0_max * np.abs(d).max()


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(2, 6), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       st.sampled_from([0.0, 0.3, 1.0, 2.0]), st.sampled_from([0.0, 0.5, 1.5]),
       st.sampled_from(["welsch", "l2"]), st.integers(1, 6), st.sampled_from([1e-3, 1e-9]),
       st.floats(0.05, 1.0))
def test_solve_inner_matches_expanded_array_oracle(seed, r, nu_a, nu_r, alpha, beta, kernel,
                                                   m, eps1, spread):
    rng = np.random.default_rng(seed)
    n = 10 * r
    g = random_graph(rng, r, n)
    Xk = random_state(rng, r, spread)
    corr = CorrespondenceSet(np.zeros(n, dtype=np.int64), rng.uniform(size=(n, 3)),
                             np.zeros(n))
    params = EnergyParams(nu_a, nu_r, alpha, beta, kernel)
    start = deform(g, Xk)
    sys = assemble_surrogate(g, start, corr, params)
    if kernel == "welsch":
        ra = g.F @ Xk + g.P - corr.positions
        rr = g.B @ Xk - g.Y
        assert sys.wa.tobytes() == gaussian_weight(np.sum(ra * ra, axis=1), nu_a).tobytes()
        assert sys.wr.tobytes() == gaussian_weight(np.sum(rr * rr, axis=1), nu_r).tobytes()

    solver_params = SolverParams(m=m, eps1=eps1)
    end, reason = solve_inner(sys, solver_params)
    X_ref, reason_ref = solve_inner_expanded(sys, Xk, solver_params)
    assert end.X.tobytes() == X_ref.tobytes()
    assert reason == reason_ref
    # the record returned is the evaluation of the state it holds
    again = deform(g, end.X)
    for name in ("points", "edges", "rot"):
        assert getattr(end, name).tobytes() == getattr(again, name).tobytes()
    # the total energy on the record is that of the state evaluated afresh,
    # to the bit, and the energy from its definition
    total = total_energy(end, corr, params)
    assert total == total_energy(again, corr, params)
    assert abs(total - robust_energy(g, end.X, corr, params)) <= 1e-12 * total


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(1, 3), st.integers(1, 6), st.integers(0, 10))
def test_two_loop_direction_is_descent(seed, r, m, n_pairs):
    """Any SPD H0 and any pairs pushed, of either curvature, give a descent
    direction for every gradient: the history keeps only the positive ones."""
    rng = np.random.default_rng(seed)
    n = 12 * r
    M = rng.normal(size=(n, n))
    H0 = M @ M.T + n * np.eye(n)
    hist = LbfgsHistory(m)
    for _ in range(n_pairs):
        C = rng.normal(size=(n, n))
        S = rng.normal(size=(4 * r, 3))
        sign = rng.choice([-1.0, 1.0])
        T = sign * ((C @ C.T + np.eye(n)) @ S.ravel()).reshape(S.shape)
        assert hist.push(S, T, (H0 @ S.ravel()).reshape(S.shape)) == (sign > 0)
    # the map grad -> -d is the implied inverse Hessian; d is a descent
    # direction for every gradient iff its symmetric part is positive definite
    Hinv = np.column_stack([
        -two_loop_direction(hist, e.reshape(4 * r, 3),
                            lambda Q: np.linalg.solve(H0, Q.ravel()).reshape(Q.shape))[0].ravel()
        for e in np.eye(n)])
    assert np.linalg.eigvalsh(Hinv + Hinv.T).min() > 0.0


# within the float32 range, so that binary files can hold every value
coords = st.floats(-1e30, 1e30, allow_nan=False)


@st.composite
def ply_surfaces(draw):
    """A surface of 1 to 20 vertices, each of faces, normals and per-vertex
    colors drawn or left out, and whether to write it as binary."""
    n = draw(st.integers(1, 20))
    faces = draw(st.none() | arrays(np.int64, st.tuples(st.integers(0, 12), st.just(3)),
                                    elements=st.integers(0, n - 1)))
    normals = draw(st.none() | arrays(np.float64, (n, 3), elements=coords))
    colors = draw(st.none() | arrays(np.uint8, (n, 3)))
    s = Surface(draw(arrays(np.float64, (n, 3), elements=coords)), faces, normals=normals)
    return s, colors, draw(st.booleans())


@st.composite
def polygon_plys(draw):
    """Bytes of a hand-written PLY whose polygons have 0 to 5 vertices each,
    in the same or mixed sizes, at least one of them with 3 or more.  The
    vertices may carry a list of 0 to 2 weights, so that rows of mixed length
    occur in the vertex element too, and an ascii file may write the face
    indices with a fraction, which loading rejects, or as whole floats."""
    n = draw(st.integers(1, 10))
    v = draw(arrays(np.float64, (n, 3), elements=coords)).tolist()
    weights = draw(st.none() | st.lists(st.lists(coords, max_size=2), min_size=n, max_size=n))
    polygons = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5),
                             min_size=1, max_size=12))
    assume(any(len(p) >= 3 for p in polygons))
    binary = draw(st.booleans())
    head = ["ply", "format %s 1.0" % ("binary_little_endian" if binary else "ascii"),
            "element vertex %d" % n, "property double x", "property double y", "property double z"]
    if weights is not None:
        head.append("property list uchar float weights")
    head += ["element face %d" % len(polygons), "property list uchar int vertex_indices",
             "end_header"]
    body = []
    if binary:
        for k, row in enumerate(v):
            body.append(np.array(row, dtype="<f8").tobytes())
            if weights is not None:
                body.append(bytes([len(weights[k])]) + np.array(weights[k], dtype="<f4").tobytes())
        for p in polygons:
            body.append(bytes([len(p)]) + np.array(p, dtype="<i4").tobytes())
    else:
        frac = draw(st.sampled_from([0.0, 0.5]))
        for k, row in enumerate(v):
            tokens = [repr(x) for x in row]
            if weights is not None:
                tokens += [str(len(weights[k]))] + [repr(w) for w in weights[k]]
            body.append((" ".join(tokens) + "\n").encode())
        for p in polygons:
            body.append((" ".join([str(len(p))] + [repr(i + frac) for i in p]) + "\n").encode())
    return ("\n".join(head) + "\n").encode() + b"".join(body)


_OBJ_TAGS = ["v", "f", "vn", "vt", "#", "#v", "v#", "o", "V"]
_OBJ_TOKENS = ["1", "2", "3", "0", "-1", "1.5", "x", "1/2", "2//3", "/3", "3/", "1e3",
               "nan", "1_0", "99999999999999999999"]
_OBJ_SPACE = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\u3000", "\x85"])


@st.composite
def obj_texts(draw):
    """Text of an OBJ file: well-formed vertex and triangle records mixed with
    lines of any tag and up to 5 tokens, separated by any whitespace."""
    lines = [" ".join(["v"] + [str(c) for c in draw(st.lists(st.integers(0, 3), min_size=3,
                                                           max_size=3))])
             for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            tokens = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
            lines.append("f " + " ".join(map(str, tokens)))
        else:
            tokens = [draw(st.sampled_from(_OBJ_TAGS))]
            tokens += draw(st.lists(st.sampled_from(_OBJ_TOKENS), max_size=5))
            lines.append(draw(_OBJ_SPACE) * draw(st.integers(0, 1)) + draw(_OBJ_SPACE).join(tokens))
    lines = draw(st.permutations(lines))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


def _outcome(load, path):
    """The loaded arrays, or the type of the error raised and its line (its
    message where it has no line)."""
    try:
        s = load(path)
    except (FormatError, InvalidInputError) as exc:
        return type(exc).__name__, getattr(exc, "line", None) or str(exc)
    return s.vertices.tobytes(), None if s.faces is None else (s.faces.shape, s.faces.tobytes())


@settings(max_examples=200, deadline=None)
@given(obj_texts())
def test_obj_loads_as_the_row_reader_loads_it(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.obj"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_obj, path) == _outcome(load_obj_rows, path)


@st.composite
def face_arrays(draw):
    """Triangles on up to 2 000 vertices, some repeated, some degenerate."""
    n = draw(st.integers(1, 2000))
    f = draw(arrays(np.int64, st.tuples(st.integers(0, 30), st.just(3)),
                    elements=st.integers(0, n - 1)))
    f = np.concatenate([f, f[:draw(st.integers(0, 5))]])
    degenerate = draw(arrays(np.bool_, len(f)))
    f[degenerate, 2] = f[degenerate, 0]
    return f


def _same(a, b):
    """Equal in shape, dtype and value, or both None."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and np.array_equal(a, b)


def _assert_loads_as_rows(path):
    """``load_ply`` gives what the row reader gives, or rejects the file as
    it does."""
    try:
        old = load_ply_rows(path)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            load_ply(path)
        assert str(got.value) == str(e)
        return
    new = load_ply(path)
    for name in ("vertices", "faces", "edges", "normals"):
        assert _same(getattr(new, name), getattr(old, name)), name


@settings(max_examples=60, deadline=None)
@given(ply_surfaces())
def test_saved_ply_loads_as_the_row_reader_loads_it(case):
    s, colors, binary = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.ply"
        save_ply(s, path, colors=colors, binary=binary)
        _assert_loads_as_rows(path)


@settings(max_examples=60, deadline=None)
@given(polygon_plys())
def test_polygon_ply_loads_as_the_row_reader_loads_it(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.ply"
        path.write_bytes(data)
        _assert_loads_as_rows(path)


_PLY_SPACE = st.text(alphabet=" \t\x0b\x0c\r\n", min_size=1, max_size=3)


@st.composite
def ascii_ply_values(draw):
    """Bytes of an ascii PLY of 1 to 12 vertices and the float64 values
    ``float`` reads from its tokens: finite values written by ``repr`` or by
    ``%.9g``, around and between which lie runs of spaces, tabs, vertical
    tabs, form feeds and LF, CRLF or CR line breaks."""
    values = draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                         elements=st.floats(-1e308, 1e308)))
    tokens = [draw(st.sampled_from([repr, "%.9g".__mod__]))(float(x)) for x in values.ravel()]
    spaces = draw(st.lists(_PLY_SPACE, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    head = ("ply\nformat ascii 1.0\nelement vertex %d\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n" % len(values))
    body = spaces[0] + "".join(t + sep for t, sep in zip(tokens, spaces[1:]))
    return (head + body).encode(), np.array([float(t) for t in tokens]).reshape(-1, 3)


@settings(max_examples=100, deadline=None)
@given(ascii_ply_values())
def test_ascii_ply_values_load_as_float_reads_them(case):
    data, expected = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "v.ply"
        path.write_bytes(data)
        assert load_ply(path).vertices.tobytes() == expected.tobytes()


_INT_TOKENS = st.integers(-300, 300).map(str) | st.sampled_from(["-0", "+7", "007"])
_FLOAT_TOKENS = st.sampled_from([repr, "%.9g".__mod__]).flatmap(
    lambda fmt: st.floats(-1e30, 1e30, allow_nan=False).map(lambda x: fmt(float(x))))
_BAD_TOKENS = st.sampled_from(["x", "2.5", "2.0", "-1", "nan", "inf", "1e400", "99", "#",
                               "99999999999999999999", "\xe9"])
_PLY_LAYOUTS = ["lines"] * 4 + ["split", "joined", "blank", "tail", "truncated", "bad"]


@st.composite
def ascii_ply_layouts(draw):
    """Bytes of an ascii PLY, and whether it is well formed, written one row
    per line and free of polygons of mixed sizes.

    The vertices, 1 to 8 of them, hold x, y and z, each a float, double, int
    or short, and optionally normals, an int property and uchar colors; a
    mesh adds a face element of triangles, quads or mixed polygons in an int,
    uint, uchar or float list.  Values are set apart by spaces or tabs, lines
    end in LF or CRLF.  The body is written one row per line, or once
    otherwise: one row split across two lines, two rows on one line, a blank
    line between rows, numbers or a word after the last element, its last 1
    to 3 characters lost, or one token replaced by one that is not a number,
    not whole, negative or out of range (the list length of a row, half the
    time)."""
    n = draw(st.integers(1, 8))
    head = ["ply", "format ascii 1.0", "element vertex %d" % n]
    vertex_types = [(name, draw(st.sampled_from(["float", "double", "int", "short"])))
                    for name in "xyz"]
    if draw(st.booleans()):
        vertex_types += [(name, "float") for name in ("nx", "ny", "nz")]
    if draw(st.booleans()):
        vertex_types.append(("quality", "int"))
    if draw(st.booleans()):
        vertex_types += [(name, "uchar") for name in ("red", "green", "blue")]
    head += ["property %s %s" % (t, name) for name, t in vertex_types]
    rows = [[draw(_FLOAT_TOKENS if t in ("float", "double") else
                  st.integers(0, 255).map(str) if t == "uchar" else _INT_TOKENS)
             for _, t in vertex_types] for _ in range(n)]
    polygons = []
    if draw(st.booleans()):
        sizes = draw(st.sampled_from([[3], [4], [3, 4, 5]]))
        polygons = draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=8))
        ltype = draw(st.sampled_from(["int", "uint", "uchar", "float"]))
        head += ["element face %d" % len(polygons),
                 "property list uchar %s vertex_indices" % ltype]
        rows += [[str(k)] + [str(draw(st.integers(0, n - 1))) for _ in range(k)]
                 for k in polygons]
    head.append("end_header")
    layout = draw(st.sampled_from(_PLY_LAYOUTS))
    r = draw(st.integers(0, len(rows) - 1))
    if layout == "bad":
        c = draw(st.sampled_from([0, draw(st.integers(0, len(rows[r]) - 1))]))
        rows[r][c] = draw(_BAD_TOKENS)
    space = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [space.join(row) for row in rows]
    if layout == "split":
        k = draw(st.integers(1, len(rows[r]) - 1))
        lines[r] = space.join(rows[r][:k]) + eol + space.join(rows[r][k:])
    if layout == "joined" and r + 1 < len(lines):
        lines[r:r + 2] = [lines[r] + space + lines[r + 1]]
    if layout == "blank":
        lines.insert(r, "")
    body = "".join(line + eol for line in lines)
    if layout == "tail":
        body += draw(st.sampled_from(["7 8.5", "-9" + eol, "x" + eol, eol + "1"]))
    if layout == "truncated":
        body = body.rstrip()[:-draw(st.integers(1, 3))]
    body += draw(st.sampled_from(["", eol, space + eol + eol]))
    plain = layout == "lines" and len(set(polygons)) <= 1
    return ("\n".join(head) + "\n" + body).encode("utf-8"), plain


def _ply_outcome(path):
    """The loaded vertices, normals and faces, each as its dtype, shape and
    bytes, or the type and message of the error raised."""
    try:
        s = load_ply(path)
    except (FormatError, InvalidInputError) as exc:
        return type(exc).__name__, str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for a in (s.vertices, s.normals, s.faces)]


_FLOAT_LIST_TRIANGLE = (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                        b"property float y\nproperty float z\nelement face 1\n"
                        b"property list uchar float vertex_indices\nend_header\n"
                        b"0 0 0\n1 0 0\n0 1 0\n%s 0 1 2\n")
# the first row spans two lines, so the body is read whole
_SPLIT_TRIANGLE = (b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                   b"property float y\nproperty float z\nelement face 1\n"
                   b"property list uchar int vertex_indices\nend_header\n"
                   b"0 0\n0\n1 0 0\n0 1 0\n%s 0 1 2\n")


@settings(max_examples=300, deadline=None)
@given(ascii_ply_layouts())
@example((_FLOAT_LIST_TRIANGLE % b"3", True))
@example((_FLOAT_LIST_TRIANGLE % b"nan", False))
@example((_FLOAT_LIST_TRIANGLE % b"inf", False))
@example((_FLOAT_LIST_TRIANGLE % b"-3", False))
@example((_SPLIT_TRIANGLE % b"2.5", False))
@example((_SPLIT_TRIANGLE % b"-1", False))
@example((_SPLIT_TRIANGLE % b"nan", False))
@example((_SPLIT_TRIANGLE % b"inf", False))
@example((_SPLIT_TRIANGLE % b"1e400", False))
def test_ascii_ply_loads_as_the_token_path_loads_it(case):
    """Loading an ascii body line by line gives what reading it whole, as one
    stream of values, gives, or fails with its message; a well-formed body
    written one row per line, with no polygons of mixed sizes, is never read
    whole."""
    data, plain = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.ply"
        path.write_bytes(data)
        whole = []
        with pytest.MonkeyPatch.context() as mp:
            ascii_values = mesh._ascii_values
            mp.setattr(mesh, "_ascii_values", lambda body: whole.append(body) or ascii_values(body))
            got = _ply_outcome(path)
            read_whole = bool(whole)
            mp.setattr(mesh, "_read_lines", lambda body, elements: None)
            assert got == _ply_outcome(path)
    assert not (plain and read_whole)


@settings(max_examples=60, deadline=None)
@given(ply_surfaces())
def test_save_ply_writes_the_row_writer_bytes(case):
    s, colors, binary = case
    with tempfile.TemporaryDirectory() as d:
        save_ply(s, Path(d) / "new.ply", colors=colors, binary=binary)
        save_ply_rows(s, Path(d) / "old.ply", colors=colors, binary=binary)
        assert (Path(d) / "new.ply").read_bytes() == (Path(d) / "old.ply").read_bytes()


@settings(max_examples=60, deadline=None)
@given(face_arrays())
@example(np.empty((0, 3), dtype=np.int64))
@example(np.array([[0, 0, 0], [1, 2, 3], [3, 2, 1], [1, 2, 3]], dtype=np.int64))
def test_edges_from_faces_are_the_unique_sorted_rows(faces):
    got = edges_from_faces(faces)
    assert _same(got, edges_unique_rows(faces))
    ref = edges_unique_keys(faces)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
