"""Scalar reference implementations.

The package computes every deformed point as ``F X + P`` and every edge
residual as ``B X - Y``.  These loops restate the same quantities one point,
one node or one edge at a time, straight from the definitions, so the tests
can check the matrix forms against something other than themselves.

The same goes for fast marching, which the package runs on lengths and dots
precomputed per surface: the loop below takes every quantity from the points
at the moment it is needed.  The package packs those lengths and dots into
one buffer, built by numpy in vertex order; the reference table below is
built by a loop over the faces into one list of Python numbers per vertex.
A point cloud's geodesics are restated as Dijkstra on a dense matrix of its
symmetric k-NN graph, with neighbours found by sorting every pairwise
distance.  The package's PCA eigenvectors come in
closed form; the version below takes them from LAPACK's ``eigh``.

The package reads and writes PLY one numpy block per element, and OBJ one
block per record type; the readers and writers below go one row at a time,
PLY through a dict per row and ``struct``.
Edges are deduplicated here as index-pair rows, and through ``np.unique``
of one key per pair (the package sorts the keys and drops repeats), and face
normals summed with ``np.add.at``, one corner at a time.

The inner solver below takes the surrogate's Hessian ``2 M`` from the
package: its band storage, the band product ``2 M @ S`` and the band
Cholesky factor of ``factor_h0``, given the diagonal that H0 adds to
``2 M`` as restated here.  It checks the two-loop recursion, not the band
layout or the factorization; the property tests compare those with the
dense ``2 M`` and H0.

The robust energy below sums its three terms from the definitions: points
blended node by node, one edge residual per directed edge, and each node's
rotation projected on its own by SVD.

The package's rigid ICP queries each iteration's closest points from the
last iteration's and stops once its pairs repeat; the loop below queries
every iteration cold, on a k-d tree of its own, fits each by SVD and runs
every iteration it is given.

The farthest-point sampler below marches every node's field uncapped, as
the definition reads, and reads it as a dense array (``dense``); the package
caps each march at ``max(nearest[f], R)``, which leaves uncapped only the
first march on each component, and reads only the vertices a march reached.

The package evaluates each state once (``energy.deform``) and lets the
surrogate energy, its gradient and the inner solver read that record; the
inner solver evaluates its trials in state space, through the surrogate's
quadratic part expanded once around its start.  The surrogate energy and
gradient below recompute every term from the array ``X`` on each call, the
inner solver restates the same expansion on arrays and calls energy and
gradient separately at every point, and the rotations are projected one
matrix at a time: the package's Newton polar iteration restated on nine
Python floats, with its cofactors written out from the definition, and the
SVD fallback as a LAPACK determinant and one three-operand einsum.  A test
that reads the package's surrogate at another state than its start moves
the surrogate there (``surrogate_at``): at its zero step it reads the
state's residuals.
"""

import dataclasses
import heapq
import math
import struct

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from nrreg.energy import (POLAR_ITERS, POLAR_TOL, SPD_JITTER, Trial, deform, pack_state,
                          unpack_state)
from nrreg.geodesic import _dots, geodesic_from
from nrreg.graph import directed_edges
from nrreg.solver import (MAX_INNER_ITERS, LbfgsHistory, factor_h0, line_search,
                          two_loop_direction)
from nrreg.errors import FormatError, InvalidInputError
from nrreg.mesh import _PLY_TYPES, KNN_GRAPH_K, Surface, _parse_ply_header


def influence_list(g, i):
    """List of (node index, weight) pairs for source point ``i``."""
    row = g.influence.getrow(i)
    return list(zip(row.indices.tolist(), row.data.tolist()))


def blend_points(g, X):
    """Per-node blending: point i moves to sum_j w_ij (A_j (v_i - p_j) + p_j + t_j)."""
    A, t = unpack_state(X)
    V = g.source_positions
    out = np.zeros_like(V)
    Wc = g.influence.tocsc()
    for j in range(g.n_nodes):
        sl = slice(Wc.indptr[j], Wc.indptr[j + 1])
        rows, w = Wc.indices[sl], Wc.data[sl]
        p = g.node_positions[j]
        out[rows] += w[:, None] * ((V[rows] - p) @ A[j].T + p + t[j])
    return out


def residual_Dij(X, i, j, positions):
    """Transformation-consistency residual of node j measured at node i."""
    A, t = unpack_state(X)
    p_i = positions[i]
    p_j = positions[j]
    return A[j] @ (p_i - p_j) + p_j + t[j] - (p_i + t[i])


def robust_energy(g, X, corr, params):
    """Alignment + alpha * smoothness + beta * rotation deviation at the
    array ``X``, every term from its definition."""
    if params.kernel == "welsch":
        def kernel(x, nu):
            return 1.0 - np.exp(-x * x / (2.0 * nu * nu))
    else:
        def kernel(x, nu):
            return x * x
    align = np.linalg.norm(blend_points(g, X) - corr.positions, axis=1)
    reg = [np.linalg.norm(residual_Dij(X, i, j, g.node_positions))
           for i, j in directed_edges(g)]
    A, _ = unpack_state(X)
    rot = sum(float(np.sum((a - project_rotation(a)) ** 2)) for a in A)
    return (float(np.sum(kernel(align, params.nu_a)))
            + params.alpha * float(np.sum(kernel(np.array(reg), params.nu_r)))
            + params.beta * rot)


def project_rotation(A):
    """Closest rotation in Frobenius norm, via SVD with det correction."""
    U, _, Vt = np.linalg.svd(np.asarray(A, dtype=np.float64))
    d = np.sign(np.linalg.det(U @ Vt))
    if d == 0:
        d = 1.0
    return U @ np.diag([1.0, 1.0, d]) @ Vt


def project_rotations_einsum(As):
    """Batched closest rotations: ``U D Vt`` with ``D = diag(1, 1, sign
    det(U Vt))`` from ``np.linalg.det`` and a three-operand einsum."""
    As = np.asarray(As, dtype=np.float64)
    U, _, Vt = np.linalg.svd(As)
    det = np.linalg.det(np.einsum("nab,nbc->nac", U, Vt))
    D = np.broadcast_to(np.eye(3), As.shape).copy()
    D[:, 2, 2] = np.where(det < 0, -1.0, 1.0)
    return np.einsum("nab,nbc,ncd->nad", U, D, Vt)


def project_rotation_newton(A):
    """Closest rotation to one 3x3 matrix, one float at a time: the unscaled
    Newton polar iteration ``X <- (X + cof(X) / det(X)) / 2`` from ``X = A``
    for ``POLAR_ITERS`` steps, kept only for a finite ``A`` with
    ``det(A) > 0`` whose last step moved no entry by more than
    ``POLAR_TOL``; any other matrix takes the SVD projection."""
    x = [float(v) for v in np.asarray(A, dtype=np.float64).ravel()]
    if all(math.isfinite(v) for v in x):
        try:
            for k in range(POLAR_ITERS):
                cof = []
                for i in range(3):
                    i1, i2 = (i + 1) % 3, (i + 2) % 3
                    for j in range(3):
                        j1, j2 = (j + 1) % 3, (j + 2) % 3
                        cof.append(x[3 * i1 + j1] * x[3 * i2 + j2]
                                   - x[3 * i1 + j2] * x[3 * i2 + j1])
                det = x[0] * cof[0] + x[1] * cof[1] + x[2] * cof[2]
                if k == 0 and not det > 0:
                    break
                x_prev, x = x, [0.5 * (v + c / det) for v, c in zip(x, cof)]
            else:
                if all(abs(v - w) <= POLAR_TOL for v, w in zip(x, x_prev)):
                    return np.array(x).reshape(3, 3)
        except ZeroDivisionError:
            pass
    return project_rotations_einsum(np.asarray(A, dtype=np.float64)[None])[0]


def project_rotations_newton(As):
    """``project_rotation_newton`` of each matrix of a batch."""
    return np.array([project_rotation_newton(A) for A in As]).reshape(np.shape(As))


def quadratic_energy(sys, X):
    """A ``SurrogateSystem``'s quadratic part at the array ``X``."""
    g, p = sys.graph, sys.params
    ra = g.F @ X + g.P - sys.U
    rr = g.B @ X - g.Y
    return (float(np.sum(sys.wa * np.sum(ra * ra, axis=1)))
            + p.alpha * float(np.sum(sys.wr * np.sum(rr * rr, axis=1))))


def quadratic_gradient(sys, X):
    """The gradient of a ``SurrogateSystem``'s quadratic part at the array ``X``."""
    g, p = sys.graph, sys.params
    return 2.0 * (g.F.T @ (sys.wa[:, None] * (g.F @ X + g.P - sys.U))
                  + p.alpha * (g.B.T @ (sys.wr[:, None] * (g.B @ X - g.Y))))


def rotation_gradient(sys, X):
    """The gradient of a ``SurrogateSystem``'s rotation term at the array ``X``."""
    A, _ = unpack_state(X)
    return 2.0 * sys.params.beta * pack_state(A - project_rotations_newton(A),
                                              np.zeros((len(A), 3)))


def surrogate_energy(sys, X):
    """A ``SurrogateSystem``'s energy at the array ``X``, every term from X."""
    A, _ = unpack_state(X)
    return (quadratic_energy(sys, X)
            + sys.params.beta * float(np.sum((A - project_rotations_newton(A)) ** 2)))


def surrogate_gradient(sys, X):
    """A ``SurrogateSystem``'s gradient at the array ``X``, every term from X."""
    G = quadratic_gradient(sys, X)
    return G + rotation_gradient(sys, X) if sys.params.beta != 0.0 else G


def surrogate_at(sys, X):
    """The package's energy and gradient of the surrogate ``sys`` at the
    array ``X``: ``sys`` moved to start at ``X``, at its zero step."""
    moved = dataclasses.replace(sys, start=deform(sys.graph, X))
    zero = np.zeros(X.shape)
    trial = Trial(moved.start.X, zero, zero, moved.start.rot)
    return moved.energy(trial), moved.gradient(trial)


def solve_inner_expanded(sys, X0, params):
    """L-BFGS on one surrogate with its quadratic part expanded around the
    array ``X0``: at ``X = X0 + S`` the part is ``E0 + <G0, S> + <S, C> / 2``
    with gradient ``G0 + C``, where ``C = 2 M S`` is carried along the solve
    and never multiplied out.  The initial Hessian H0 is ``2 M`` plus the
    diagonal ``c``, 2 beta on the A rows and ``SPD_JITTER``.  Each
    direction's ``2 M d`` is ``H0 d - c d``, with ``H0 d`` from the two-loop
    recursion; a trial ``lam`` along ``d`` from ``(S, C)`` is
    ``(S + lam d, C + lam 2 M d)``, and the pair stored for an accepted
    step is ``(lam d, G_new - G)`` with ``H0 S = lam H0 d``.  Energy and
    gradient are evaluated separately at every point, the rotation term
    with the scalar projection and added to the A rows of the gradient in
    place; inner products are BLAS dots.  Returns the final state and why
    the solve stopped."""
    p = sys.params
    c = np.tile([2.0 * p.beta] * 3 + [0.0], sys.graph.n_nodes) + SPD_JITTER
    h0_solve = factor_h0(sys.assemble_H0(), c).solve
    c = c[:, None]
    E0, G0 = quadratic_energy(sys, X0), quadratic_gradient(sys, X0)

    def rotation_residual(X):
        A, _ = unpack_state(X)
        return A - project_rotations_newton(A)

    def energy(X, S, C):
        R = rotation_residual(X)
        return E0 + np.vdot(G0, S) + 0.5 * np.vdot(S, C) + p.beta * np.vdot(R, R)

    def gradient(X, C):
        G = G0 + C
        if p.beta != 0.0:
            R = rotation_residual(X)
            for k in range(3):
                G[k::4] += 2.0 * p.beta * R[:, :, k]
        return G

    def trial_at(lam):
        trial = X + lam * d, S + lam * d, C + lam * two_m_d
        return trial, energy(*trial)

    hist = LbfgsHistory(params.m)
    X, S, C = X0, np.zeros_like(X0), np.zeros_like(X0)
    E = energy(X, S, C)
    G = gradient(X, C)
    for _ in range(MAX_INNER_ITERS):
        d, h0_d = two_loop_direction(hist, G, h0_solve)
        gd = np.vdot(G, d)
        if gd >= 0.0:
            return X, "stationary"
        two_m_d = h0_d - c * d
        step = line_search(trial_at, E, gd, params.gamma)
        if step is None:
            return X, "line_search"
        lam, (X_new, S_new, C_new), E_new = step
        G_new = gradient(X_new, C_new)
        hist.push(lam * d, G_new - G, lam * h0_d)
        decrease = E - E_new
        X, S, C, E, G = X_new, S_new, C_new, E_new, G_new
        if decrease < params.eps1:
            return X, "tolerance"
    return X, "iteration_cap"


def rigid_icp_full_cap(source, target, iters, eps_d, theta):
    """Rigid ICP from the identity, for exactly ``iters`` iterations: each
    keeps the pairs within ``eps_d`` whose normals lie within ``theta``
    degrees (with sign only between two meshes) and composes the SVD
    least-squares fit of them.  Returns the rotation and translation."""
    tree = cKDTree(target.vertices)
    cos_lim = math.cos(math.radians(theta))
    R, t = np.eye(3), np.zeros(3)
    for _ in range(iters):
        moved = source.vertices @ R.T + t
        dist, idx = tree.query(moved)
        dots = np.einsum("ij,ij->i", source.normals @ R.T, target.normals[idx])
        if not (source.has_faces and target.has_faces):
            dots = np.abs(dots)
        keep = (dist <= eps_d) & (dots >= cos_lim)
        p, q = moved[keep], target.vertices[idx[keep]]
        cp, cq = p.mean(axis=0), q.mean(axis=0)
        U, _, Vt = np.linalg.svd((p - cp).T @ (q - cq))
        sign = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
        step = Vt.T @ sign @ U.T
        R, t = step @ R, step @ (t - cp) + cq
    return R, t


def dense(field, n):
    """A :class:`nrreg.geodesic.GeodesicField` as an (n,) array of distances,
    +inf at every vertex the march did not reach."""
    out = np.full(n, np.inf)
    out[field.indices] = field.distances
    return out


def sample_nodes_farthest_uncapped(s, R):
    """Farthest-point sampling from vertex 0 to half-radius coverage of every
    component, every node's field marched uncapped; returns the nodes and
    their fields as the (vertex indices, distances) of the points below R."""
    nearest = np.full(s.n_vertices, np.inf)
    nodes, fields = [], []
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] <= 0.5 * R:
            return np.array(nodes, dtype=np.int64), fields
        d = dense(geodesic_from(s, far), s.n_vertices)
        np.minimum(nearest, d, out=nearest)
        nodes.append(far)
        idx = np.flatnonzero(d < R)
        fields.append((idx, d[idx]))


def triangle_update(dc_a, dc_b, p_c, p_a, p_b):
    """Planar-wavefront arrival time at ``p_c`` given times at ``p_a``/``p_b``,
    from the points (+inf when not upwind-admissible)."""
    if dc_b < dc_a:
        dc_a, dc_b = dc_b, dc_a
        p_a, p_b = p_b, p_a
    ca = p_a - p_c
    cb = p_b - p_c
    b_len = math.sqrt(float(ca @ ca))
    a_len = math.sqrt(float(cb @ cb))
    if a_len == 0.0 or b_len == 0.0:
        return math.inf
    cos_t = float(ca @ cb) / (a_len * b_len)
    if cos_t <= 0.0:
        return math.inf
    cos_t = min(cos_t, 1.0)
    sin2 = 1.0 - cos_t * cos_t
    u = dc_b - dc_a
    aa = a_len * a_len + b_len * b_len - 2.0 * a_len * b_len * cos_t
    bb = 2.0 * b_len * u * (a_len * cos_t - b_len)
    cc = b_len * b_len * (u * u - a_len * a_len * sin2)
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0 or aa <= 0.0:
        return math.inf
    t = (-bb + math.sqrt(disc)) / (2.0 * aa)
    if t <= u:
        return math.inf
    q = b_len * (t - u) / t
    if not (a_len * cos_t < q < a_len / cos_t):
        return math.inf
    return dc_a + t


def incident_triangle_lists(points, faces):
    """Per vertex v, one flat list of 7-value records
    ``(q, r, |vq|, |vr|, |qr|, dot_q, dot_r)``, one for each triangle
    (v, q, r) at v in face order, with the package's lengths and dots as
    Python floats; triangles that repeat v are skipped."""
    p = [points[faces[:, k]] for k in range(3)]
    # column k: the length of edge (k, k + 1) and the dot at corner k
    edge = np.column_stack([np.sqrt(_dots(e, e))
                            for e in (p[1] - p[0], p[2] - p[1], p[0] - p[2])]).tolist()
    corner = np.column_stack([_dots(p[(k + 1) % 3] - p[k], p[(k + 2) % 3] - p[k])
                              for k in range(3)]).tolist()
    incident = [[] for _ in range(len(points))]
    for f, el, cd in zip(faces.tolist(), edge, corner):
        for k, q, r in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            v = f[k]
            if f[q] != v != f[r]:
                incident[v] += (f[q], f[r], el[k], el[r], el[q], cd[q], cd[r])
    return incident


def fast_marching(points, faces, seed, cap):
    """Fast marching from ``seed``, every length and dot taken from the points
    as it is needed, with the vertex-to-triangle lists built per call."""
    n = len(points)
    tri_of = [[] for _ in range(n)]
    for ti, f in enumerate(faces):
        for v in f:
            tri_of[v].append(ti)
    dist = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    dist[seed] = 0.0
    heap = [(0.0, seed)]
    limit = math.inf if cap is None else cap
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d > dist[v]:
            continue
        if d > limit:
            break
        done[v] = True
        for ti in tri_of[v]:
            f = faces[ti]
            others = [w for w in f if w != v]
            if len(others) != 2:
                continue  # degenerate triangle
            for c in others:
                if done[c]:
                    continue
                o = others[0] if c == others[1] else others[1]
                cand = d + float(np.linalg.norm(points[c] - points[v]))
                if done[o] and np.isfinite(dist[o]):
                    tu = triangle_update(d, dist[o], points[c], points[v], points[o])
                    if tu < cand:
                        cand = tu
                if cand < dist[c]:
                    dist[c] = cand
                    heapq.heappush(heap, (cand, c))
    if cap is not None:
        dist = np.where(dist > cap, np.inf, dist)
    return dist


def pca_normals_eigh(points, k=10):
    """Unoriented PCA normals with the eigenvectors from LAPACK
    (``np.linalg.eigh``)."""
    k = min(k, len(points) - 1)
    _, idx = cKDTree(points).query(points, k=k + 1)
    return np.linalg.eigh(neighbour_covariances(points, idx))[1][:, :, 0]


def neighbour_covariances(points, idx):
    """(n, 3, 3) scatter matrices of the centred neighbourhoods ``idx``."""
    nbrs = points[idx]
    nbrs = nbrs - nbrs.mean(axis=1, keepdims=True)
    return np.einsum("nki,nkj->nij", nbrs, nbrs)


def upper_entries(cov):
    """The six distinct entries of symmetric (n, 3, 3) matrices, row by row."""
    return [cov[:, i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]


def edges_unique_rows(faces):
    """Unique undirected edges (sorted index pairs) of a triangle array."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def edges_unique_keys(faces):
    """Unique undirected edges of a triangle array through ``np.unique`` of
    one integer key per sorted index pair."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    a, b = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()
    i, j = np.minimum(a, b), np.maximum(a, b)
    n = j.max() + 1
    key = np.unique(i * n + j)
    return np.column_stack([key // n, key % n])


def face_vertex_normals(vertices, faces):
    v0, v1, v2 = (vertices[faces[:, k]] for k in range(3))
    fn = np.cross(v1 - v0, v2 - v0)
    lens = np.linalg.norm(fn, axis=1)
    ok = lens > 0
    fn[ok] /= lens[ok, None]
    acc = np.zeros_like(vertices)
    for k in range(3):
        np.add.at(acc, faces[:, k], fn)
    lens = np.linalg.norm(acc, axis=1)
    lens[lens == 0] = 1.0
    return acc / lens[:, None]


def load_ply_rows(path):
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh, path)
        data = {}
        if fmt == "ascii":
            text = fh.read().decode("ascii", errors="replace").split()
            pos = 0
            for name, count, props in elements:
                rows = []
                for _ in range(count):
                    row = {}
                    for pname, ptype, ltype in props:
                        if ltype is None:
                            row[pname] = float(text[pos]); pos += 1
                        else:
                            cnt = int(text[pos]); pos += 1
                            row[pname] = [float(text[pos + k]) for k in range(cnt)]
                            pos += cnt
                    rows.append(row)
                data[name] = rows
        else:
            for name, count, props in elements:
                rows = []
                for _ in range(count):
                    row = {}
                    for pname, ptype, ltype in props:
                        if ltype is None:
                            code = _PLY_TYPES[ptype]
                            (val,) = struct.unpack("<" + code, fh.read(struct.calcsize(code)))
                            row[pname] = float(val)
                        else:
                            ccode = _PLY_TYPES[ltype]
                            (cnt,) = struct.unpack("<" + ccode, fh.read(struct.calcsize(ccode)))
                            icode = _PLY_TYPES[ptype]
                            sz = struct.calcsize(icode)
                            row[pname] = list(struct.unpack("<" + icode * cnt, fh.read(sz * cnt)))
                    rows.append(row)
                data[name] = rows

    if "vertex" not in data or not data["vertex"]:
        raise InvalidInputError(f"{path}: no vertices")
    vrows = data["vertex"]
    verts = np.array([[r["x"], r["y"], r["z"]] for r in vrows], dtype=np.float64)
    normals = None
    if all(k in vrows[0] for k in ("nx", "ny", "nz")):
        normals = np.array([[r["nx"], r["ny"], r["nz"]] for r in vrows], dtype=np.float64)
    faces = None
    if "face" in data and data["face"]:
        tri = []
        for r in data["face"]:
            if any(i != int(i) for i in r["vertex_indices"]):
                raise FormatError("non-integral vertex index in element 'face'", path)
            idx = [int(i) for i in r["vertex_indices"]]
            for a, b in zip(idx[1:-1], idx[2:]):
                tri.append([idx[0], a, b])
        faces = np.array(tri, dtype=np.int64)
        if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
            raise FormatError("face index out of range", path)
    return Surface(verts, faces, normals=normals)


def save_ply_rows(s: Surface, path, colors=None, binary=False):
    """Write a surface as PLY; ``colors`` is an optional (n, 3) uint8 array."""
    n = s.n_vertices
    has_n = s.normals is not None
    has_c = colors is not None
    if has_c:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise InvalidInputError("colors must be (n, 3)")
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    if has_n:
        header += ["property float nx", "property float ny", "property float nz"]
    if has_c:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    nf = 0 if s.faces is None else len(s.faces)
    if s.faces is not None:
        header += [f"element face {nf}",
                   "property list uchar int vertex_indices"]
    header.append("end_header")

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            for i in range(n):
                fh.write(struct.pack("<3f", *s.vertices[i]))
                if has_n:
                    fh.write(struct.pack("<3f", *s.normals[i]))
                if has_c:
                    fh.write(struct.pack("<3B", *colors[i]))
            if s.faces is not None:
                for f in s.faces:
                    fh.write(struct.pack("<B3i", 3, *f))
        else:
            lines = []
            for i in range(n):
                parts = [f"{x:.9g}" for x in s.vertices[i]]
                if has_n:
                    parts += [f"{x:.9g}" for x in s.normals[i]]
                if has_c:
                    parts += [str(int(x)) for x in colors[i]]
                lines.append(" ".join(parts))
            if s.faces is not None:
                for f in s.faces:
                    lines.append(f"3 {f[0]} {f[1]} {f[2]}")
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


def load_obj_rows(path):
    """OBJ ``v``/``f`` records one line at a time, fan-triangulating each
    polygon as it is read."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise FormatError("vertex needs 3 coordinates", path, lineno)
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise FormatError("bad vertex coordinate", path, lineno) from None
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise FormatError("face needs at least 3 indices", path, lineno)
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise FormatError(f"bad face index {head!r}", path, lineno) from None
                    if not 0 < i <= np.iinfo(np.int64).max:
                        raise FormatError(f"face index {i} is not a 1-based int64", path, lineno)
                    idx.append(i - 1)
                for a, b in zip(idx[1:-1], idx[2:]):
                    faces.append([idx[0], a, b])
    if not vertices:
        raise InvalidInputError(f"{path}: no vertices")
    verts = np.array(vertices, dtype=np.float64)
    farr = np.array(faces, dtype=np.int64) if faces else None
    if farr is not None and farr.max() >= len(verts):
        raise FormatError("face index out of range", path)
    return Surface(verts, farr)


def save_obj_rows(s: Surface, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in s.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        if s.faces is not None:
            for f in s.faces:
                fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def knn_geodesics(points, seed, k=KNN_GRAPH_K):
    """Dijkstra from ``seed`` over the symmetric k-NN graph, each edge once
    at its Euclidean length."""
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    rows = np.repeat(np.arange(len(points)), k)
    cols = np.argsort(d, axis=1, kind="stable")[:, :k].ravel()
    w = np.zeros_like(d)
    w[rows, cols] = d[rows, cols]
    return dijkstra(np.maximum(w, w.T), indices=seed)
