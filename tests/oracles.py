"""Scalar reference implementations.

The package computes every deformed point as ``F X + P`` and every edge
residual as ``B X - Y``.  These loops restate the same quantities one point,
one node or one edge at a time, straight from the definitions, so the tests
can check the matrix forms against something other than themselves.

The same goes for fast marching, which the package runs on lengths and dots
precomputed per surface, and for the orientation of PCA normals, which it
propagates along the spanning tree by pointer jumping: the loops below take
every quantity from the points or normals at the moment it is needed.  The
package also slices that tree's neighbour graph from the k-nearest-neighbour
query of the PCA fit, straight into CSR; the version below queries the tree a
second time and symmetrizes a COO graph.  The package's PCA eigenvectors come
in closed form; a further version takes them from LAPACK's ``eigh``.

The package reads and writes PLY one numpy block per element, and OBJ one
block per record type; the readers and writers below go one row at a time,
PLY through a dict per row and ``struct``.
Edges are deduplicated here as index-pair rows, and face normals summed
with ``np.add.at``, one corner at a time.

The inner solver below factors H0 through the package's own
``factor_h0``: it checks the two-loop recursion, not the factorization.

The package evaluates each state once (``energy.deform``) and lets the
surrogate energy, its gradient and the inner solver read that record.  The
surrogate energy and gradient below recompute every term from the array
``X`` on each call, the inner solver calls them separately at every point,
and the rotations are projected one matrix at a time: the package's Newton
polar iteration restated on nine Python floats, with its cofactors written
out from the definition, and the SVD fallback as a LAPACK determinant and
one three-operand einsum.
"""

import heapq
import math
import struct

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree
from scipy.spatial import cKDTree

from nrreg.energy import POLAR_ITERS, POLAR_TOL, pack_state, unpack_state
from nrreg.solver import (MAX_INNER_ITERS, LbfgsHistory, factor_h0, line_search,
                          two_loop_direction)
from nrreg.errors import FormatError, InvalidInputError
from nrreg.mesh import (_PLY_TYPES, Surface, _orient_along_tree, _parse_ply_header,
                        _smallest_eigenvectors)


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


def surrogate_energy(sys, X):
    """A ``SurrogateSystem``'s energy at the array ``X``, every term from X."""
    g, p = sys.graph, sys.params
    ra = g.F @ X + g.P - sys.U
    rr = g.B @ X - g.Y
    A, _ = unpack_state(X)
    return (float(np.sum(sys.wa * np.sum(ra * ra, axis=1)))
            + p.alpha * float(np.sum(sys.wr * np.sum(rr * rr, axis=1)))
            + p.beta * float(np.sum((A - project_rotations_newton(A)) ** 2)))


def surrogate_gradient(sys, X):
    """A ``SurrogateSystem``'s gradient at the array ``X``, every term from X."""
    g, p = sys.graph, sys.params
    Gm = (g.F.T @ (sys.wa[:, None] * (g.F @ X + g.P - sys.U))
          + p.alpha * (g.B.T @ (sys.wr[:, None] * (g.B @ X - g.Y))))
    if p.beta != 0.0:
        A, _ = unpack_state(X)
        Gm = Gm + p.beta * pack_state(A - project_rotations_newton(A), np.zeros((len(A), 3)))
    return 2.0 * Gm


def solve_inner_arrays(sys, X_k, params):
    """L-BFGS on one surrogate, evaluating energy and gradient separately at
    every point from the array state; returns the final state."""

    def energy(X):
        return surrogate_energy(sys, X)

    h0_solve = factor_h0(sys.assemble_H0()).solve
    hist = LbfgsHistory(params.m)
    X = X_k
    E = energy(X)
    G = surrogate_gradient(sys, X)
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
                if gd >= 0.0:
                    break
        step = line_search(energy, X, d, E, gd, params.gamma)
        if step is None:
            d = -G
            gd = float(np.sum(G * d))
            step = line_search(energy, X, d, E, gd, params.gamma)
            if step is None:
                break
        _, X_new, E_new = step
        G_new = surrogate_gradient(sys, X_new)
        hist.push(X_new - X, G_new - G)
        decrease = E - E_new
        X, E, G = X_new, E_new, G_new
        if decrease < params.eps1:
            break
    return X


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


def orient_along_tree(normals, order, preds):
    """Visit vertices in BFS order and flip each normal whose dot with its
    parent's (already oriented) normal is negative."""
    for v in order:
        p = preds[v]
        if p >= 0 and np.dot(normals[v], normals[p]) < 0:
            normals[v] = -normals[v]


def pca_normals_two_queries(points, k=10):
    """PCA normals over the k+1 nearest neighbours, oriented along a spanning
    tree of a second, 7-nearest-neighbour query of the same tree.  The eigen
    step is the package's own."""
    n = len(points)
    k = min(k, n - 1)
    tree = cKDTree(points)
    _, idx = tree.query(points, k=k + 1)
    normals = _smallest_eigenvectors(upper_entries(_neighbour_covariances(points, idx)))
    _orient_on_coo_mst(normals, *tree.query(points, k=min(7, n)))
    return normals


def pca_normals_eigh(points, k=10):
    """PCA normals with the eigenvectors from LAPACK (``np.linalg.eigh``),
    oriented along the spanning tree of the 7 nearest neighbours sliced
    from the same query."""
    n = len(points)
    k = min(k, n - 1)
    dist, idx = cKDTree(points).query(points, k=k + 1)
    _, vecs = np.linalg.eigh(_neighbour_covariances(points, idx))
    normals = vecs[:, :, 0]
    _orient_on_coo_mst(normals, dist[:, :7], idx[:, :7])
    return normals


def _orient_on_coo_mst(normals, d, j):
    """Orient normals in place along the spanning tree of the graph with an
    edge from each point i to each j[i], of length d[i] + 1e-12, built as a
    COO matrix and symmetrized before the breadth-first pass."""
    n = len(normals)
    rows = np.repeat(np.arange(n), j.shape[1])
    mst = minimum_spanning_tree(coo_matrix((d.ravel() + 1e-12, (rows, j.ravel())),
                                           shape=(n, n)))
    order, preds = breadth_first_order(mst + mst.T, 0, directed=False)
    _orient_along_tree(normals, order, preds)


def _neighbour_covariances(points, idx):
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
