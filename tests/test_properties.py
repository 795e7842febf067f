"""Property tests of the invariants the graph and the solver rely on.

The graph marches each node's field once, capped at 2R, and reads both the
sampling test (distances below R) and the influence and edge rules from it.
That is exact only if a capped field equals the uncapped one with every
entry beyond the cap set to +inf.  Fast marching runs on lengths and dots
precomputed per surface, and must give the fields of a march that takes
them from the points as it goes, to the last bit.

The solver starts from a rigid map lifted onto the graph, so the lifted
state must reproduce that map exactly.  Each outer iteration minimizes a
quadratic surrogate, which lowers the robust energy only if the surrogate
majorizes it; and each L-BFGS step needs a descent direction.  L-BFGS is
seeded with the surrogate's quadratic form H0, which the graph's plan fills
from pair moments of the influence offsets: it must be the dense
``2 (F^T W_a F + alpha B^T W_r B + beta I_A) + jitter I`` on any graph (no
edges, points on one node, fallback points, coordinates far from the
origin), exactly symmetric, and the symmetric-mode factor must solve it.
The inner solver evaluates each point once and reads energy and gradient from
that record; it must stop at the very state, to the last bit, of a solver that
recomputes every term from the array at each call.

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
working precision, and LAPACK's own vector wherever it is unique.

Surfaces are read and written as PLY one block per element, and must load
and save exactly as a reader and writer that go row by row do; edges are
deduplicated through one integer key per index pair, and must come out as
the sorted unique rows.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.spatial.transform import Rotation

from nrreg.correspond import (CorrespondenceSet, RigidTransform,
                              lift_rigid_to_state)
from nrreg.energy import (SPD_JITTER, EnergyParams, SurrogateSystem, assemble_surrogate,
                          deform, energy_align, energy_reg, energy_rot, gaussian_weight,
                          project_rotations, total_energy)
from nrreg.errors import FormatError, InvalidInputError
from nrreg.geodesic import geodesic_from
from nrreg.graph import DeformationGraph, build_graph, transform_points
from nrreg.mesh import (Surface, _smallest_eigenvectors, edges_from_faces, load_obj,
                        load_ply, save_obj, save_ply)
from nrreg.solver import (LbfgsHistory, SolverParams, factor_h0, solve_inner,
                          two_loop_direction)

from conftest import grid_mesh
from oracles import (edges_unique_rows, fast_marching, load_obj_rows, load_ply_rows,
                     project_rotations_einsum, project_rotations_newton, save_obj_rows,
                     save_ply_rows, solve_inner_arrays, upper_entries)
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
    full = geodesic_from(s, seed).distances
    cap = cap_share * float(full.max())
    capped = geodesic_from(s, seed, cap=cap).distances
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
    assert np.array_equal(geodesic_from(s, seed, cap=cap).distances,
                          fast_marching(s.vertices, s.faces, seed, cap))


@settings(max_examples=40, deadline=None)
@given(wavy_grids())
def test_fmm_between_euclidean_and_dijkstra(case):
    s, seed = case
    fmm = geodesic_from(s, seed, method="fmm").distances
    dij = geodesic_from(s, seed, method="dijkstra").distances
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
                             np.zeros(40), np.ones(40, dtype=bool))
    params = EnergyParams(nu_a, nu_r, alpha, beta)
    sys = assemble_surrogate(g, deform(g, Xk), corr, params)
    X = Xk + step * rng.normal(size=Xk.shape)
    at, at_k = deform(g, X), deform(g, Xk)
    surrogate_change = sys.energy(at) - sys.energy(at_k)
    energy_change = total_energy(at, corr, params) - total_energy(at_k, corr, params)
    assert surrogate_change >= energy_change - 1e-10 * max(1.0, abs(surrogate_change))


@st.composite
def odd_graphs(draw):
    """A deformation graph of 1 to 6 nodes over 1 to 30 points.  Every node
    influences a point; each point's weights sit on 1 to 4 nodes, a drawn
    share of points on one node only, and these may be listed as fallback
    points; the edge set may be empty; the whole geometry may sit 1e3 away
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
    single = np.flatnonzero(np.diff(W.indptr) == 1)
    fallback = single if draw(st.booleans()) else np.empty(0, dtype=np.int64)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    keep = draw(st.sampled_from([0.0, 0.5, 1.0]))
    edges = np.array([e for e in pairs if rng.uniform() < keep], dtype=np.int64).reshape(-1, 2)
    offset = draw(st.sampled_from([0.0, 1e3]))
    return DeformationGraph(np.arange(r), rng.uniform(size=(r, 3)) + offset, edges, 1.0, W,
                            rng.uniform(size=(n, 3)) + offset, fallback_points=fallback)


@settings(max_examples=150, deadline=None)
@given(odd_graphs(), seeds, st.floats(0.0, 3.0), st.floats(0.05, 5.0),
       st.sampled_from([1e-3, 1.0, 1e2]))
def test_assembled_h0_is_the_dense_form_and_factors(g, seed, alpha, beta, scale):
    rng = np.random.default_rng(seed)
    wa = scale * rng.uniform(size=g.n_points)
    wr = scale * rng.uniform(size=g.B.shape[0])
    sys = SurrogateSystem(g, np.zeros((g.n_points, 3)), wa, wr,
                          EnergyParams(1.0, 1.0, alpha, beta))
    H = sys.assemble_H0().toarray()
    F, B = g.F.toarray(), g.B.toarray()
    J = np.diag(np.tile([1.0, 1.0, 1.0, 0.0], g.n_nodes))     # identity on the A rows
    dense = (2.0 * (F.T @ np.diag(wa) @ F + alpha * B.T @ np.diag(wr) @ B + beta * J)
             + SPD_JITTER * np.eye(4 * g.n_nodes))
    assert np.abs(H - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(H, H.T)
    rhs = rng.normal(size=(4 * g.n_nodes, 3))
    x = factor_h0(sys.assemble_H0()).solve(rhs)
    ref = np.linalg.solve(H, rhs)
    # both solvers are backward stable: each is within a few n eps cond(H)
    assert np.abs(x - ref).max() <= 1e-13 * np.linalg.cond(H) * np.abs(ref).max()


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


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(2, 6), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       st.sampled_from([0.0, 0.3, 1.0, 2.0]), st.sampled_from([0.0, 0.5, 1.5]),
       st.sampled_from(["welsch", "l2"]), st.integers(1, 6), st.sampled_from([1e-3, 1e-9]),
       st.floats(0.05, 1.0))
def test_solve_inner_matches_array_oracle(seed, r, nu_a, nu_r, alpha, beta, kernel, m,
                                          eps1, spread):
    rng = np.random.default_rng(seed)
    n = 10 * r
    g = random_graph(rng, r, n)
    Xk = random_state(rng, r, spread)
    corr = CorrespondenceSet(np.zeros(n, dtype=np.int64), rng.uniform(size=(n, 3)),
                             np.zeros(n), np.ones(n, dtype=bool))
    params = EnergyParams(nu_a, nu_r, alpha, beta, kernel)
    start = deform(g, Xk)
    sys = assemble_surrogate(g, start, corr, params)
    if kernel == "welsch":
        ra = g.F @ Xk + g.P - corr.positions
        rr = g.B @ Xk - g.Y
        assert sys.wa.tobytes() == gaussian_weight(np.sum(ra * ra, axis=1), nu_a).tobytes()
        assert sys.wr.tobytes() == gaussian_weight(np.sum(rr * rr, axis=1), nu_r).tobytes()

    solver_params = SolverParams(m=m, eps1=eps1)
    end = solve_inner(sys, start, solver_params)
    assert end.X.tobytes() == solve_inner_arrays(sys, Xk, solver_params).tobytes()
    # the record returned is the evaluation of the state it holds
    again = deform(g, end.X)
    for name in ("points", "edges", "rot"):
        assert getattr(end, name).tobytes() == getattr(again, name).tobytes()
    # the total energy on the record is the sum of the per-term energies, to the bit
    assert total_energy(end, corr, params) == (
        energy_align(g, end.X, corr, nu_a, kernel)
        + alpha * energy_reg(g, end.X, nu_r, kernel)
        + beta * energy_rot(end.X))


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(1, 3), st.integers(1, 6), st.integers(0, 10))
def test_two_loop_direction_is_descent(seed, r, m, n_pairs):
    """Any SPD H0 and any history of positive-curvature pairs that the
    curvature guard accepts give a descent direction for every gradient."""
    rng = np.random.default_rng(seed)
    n = 12 * r
    M = rng.normal(size=(n, n))
    H0 = M @ M.T + n * np.eye(n)
    hist = LbfgsHistory(m)
    for _ in range(n_pairs):
        C = rng.normal(size=(n, n))
        S = rng.normal(size=(4 * r, 3))
        T = ((C @ C.T + np.eye(n)) @ S.ravel()).reshape(S.shape)
        assert hist.push(S, T)
    # the map grad -> -d is the implied inverse Hessian; d is a descent
    # direction for every gradient iff its symmetric part is positive definite
    Hinv = np.column_stack([
        -two_loop_direction(hist, e.reshape(4 * r, 3),
                            lambda Q: np.linalg.solve(H0, Q.ravel()).reshape(Q.shape)).ravel()
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
    indices with a fraction, which loading truncates."""
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


@settings(max_examples=60, deadline=None)
@given(ply_surfaces())
def test_save_obj_writes_the_row_writer_bytes(case):
    s = case[0]
    with tempfile.TemporaryDirectory() as d:
        save_obj(s, Path(d) / "new.obj")
        save_obj_rows(s, Path(d) / "old.obj")
        assert (Path(d) / "new.obj").read_bytes() == (Path(d) / "old.obj").read_bytes()


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
    new, old = load_ply(path), load_ply_rows(path)
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
def test_edges_from_faces_are_the_unique_sorted_rows(faces):
    assert _same(edges_from_faces(faces), edges_unique_rows(faces))
