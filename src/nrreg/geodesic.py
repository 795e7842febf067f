"""On-surface geodesic distances.

Triangle meshes use the fast marching method with the classic planar-wavefront
triangle update; every update is clamped from above by the corresponding edge
(Dijkstra) update, so fast-marching values never exceed edge-graph distances.
Surfaces without faces fall back to Dijkstra, either on their explicit edges
or on a k-nearest-neighbor graph for raw point clouds.

A field holds only what its march reached, the vertices no farther than
the cap, in ascending index order: no n-length array per march.

What a surface is marched on is built on first use and kept with the
surface, which never changes (:meth:`nrreg.mesh.Surface.derived`): for fast
marching, one flat list per vertex v holding a 7-value record
``(q, r, |vq|, |vr|, |qr|, dot_q, dot_r)`` for each triangle (v, q, r) at
v, its edge lengths and corner dot products as plain floats, so the
marching loop makes no numpy call; for Dijkstra, the CSR matrix of the
surface graph.  Each length and dot comes from numpy's 3-vector dot (BLAS
``ddot``), as when the loop took them from the points on the fly.  That
dot fuses its multiply-adds, so a plain ``x*x + y*y + z*z`` rounds
differently in about a third of cases and would move fields in the last
bit.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import InvalidInputError
from .mesh import Surface, surface_edges


@dataclass
class GeodesicField:
    """The vertices one seed's march reached, ascending, and their distances;
    a vertex on another component or beyond the march's cap is absent."""

    indices: np.ndarray     # (k,) int64
    distances: np.ndarray   # (k,) float64, each finite and at most the cap


def _edge_graph(points, edges):
    """Each undirected edge once, at its length; Dijkstra reads it both
    ways.  A point cloud's k-NN edges hold both (i, j) and (j, i) for mutual
    neighbors, and a matrix holding an edge twice sums the two lengths."""
    n = len(points)
    key = np.unique(np.sort(edges, axis=1) @ [n, 1])
    i, j = key // n, key % n
    w = np.linalg.norm(points[i] - points[j], axis=1)
    return coo_matrix((w, (i, j)), shape=(n, n)).tocsr()


def _dots(a, b):
    """Row-wise dot products of two (m, 3) arrays, each through numpy's
    3-vector dot: a stacked (1, 3) @ (3, 1) matmul makes one such dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _incident_triangles(points, faces):
    """Per vertex v, one flat list of 7-value records
    ``(q, r, |vq|, |vr|, |qr|, dot_q, dot_r)``, one for each triangle
    (v, q, r) at v in face order, where ``dot_q = (v - q).(r - q)`` and
    ``dot_r = (v - r).(q - r)`` are the dots at the two other corners;
    triangles that repeat v are skipped.  The lengths and dots are plain
    floats, computed once per triangle edge and corner and shared by the
    triangle's three records."""
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


def _geometry(s: Surface):
    """What ``s`` is marched on, built once per surface: the
    :func:`_incident_triangles` table for fast marching on a mesh, the
    surface graph's CSR matrix of edge lengths for Dijkstra otherwise.  Each
    march returns the :class:`GeodesicField` of what it reached."""
    if s.has_faces:
        return s.derived("fmm", lambda s: _incident_triangles(s.vertices, s.faces))
    return s.derived("dijkstra", lambda s: _edge_graph(s.vertices, surface_edges(s)))


def _dijkstra(graph, seed, cap):
    limit = np.inf if cap is None else cap
    d = _csgraph_dijkstra(graph, directed=False, indices=[seed],
                          limit=limit, min_only=True)
    # an unreached vertex is at +inf, which an uncapped limit would keep
    idx = np.flatnonzero(np.isfinite(d) & (d <= limit))
    return GeodesicField(idx, d[idx])


def _triangle_update(dc_a, dc_b, b_len, a_len, cab):
    """Planar-wavefront arrival time at vertex c of triangle (c, a, b), given
    the times at a and b, the edge lengths ``b_len = |ca|`` and
    ``a_len = |cb|``, and the corner dot ``cab = (a - c).(b - c)``.

    Returns +inf when the update is not upwind-admissible (the caller then
    falls back to edge updates).
    """
    if dc_b < dc_a:
        dc_a, dc_b, a_len, b_len = dc_b, dc_a, b_len, a_len
    if a_len == 0.0 or b_len == 0.0:
        return math.inf
    cos_t = cab / (a_len * b_len)
    if cos_t <= 0.0:            # obtuse at the update vertex: edge update only
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


def _fast_marching(incident, seed, cap):
    n = len(incident)
    dist = [math.inf] * n
    done = [False] * n
    dist[seed] = 0.0
    reached = [seed]
    heap = [(0.0, seed)]
    limit = math.inf if cap is None else cap
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d > dist[v]:
            continue
        if d > limit:
            break
        done[v] = True
        it = iter(incident[v])
        for q, r, vq, vr, qr, dot_q, dot_r in zip(it, it, it, it, it, it, it):
            # triangle (v, q, r) updates q, then r
            if not done[q]:
                cand = d + vq       # edge update from the newly accepted vertex
                if done[r]:
                    tu = _triangle_update(d, dist[r], vq, qr, dot_q)
                    if tu < cand:
                        cand = tu
                if cand < dist[q]:
                    if dist[q] == math.inf:
                        reached.append(q)
                    dist[q] = cand
                    heapq.heappush(heap, (cand, q))
            if not done[r]:
                cand = d + vr
                if done[q]:
                    tu = _triangle_update(d, dist[q], vr, qr, dot_r)
                    if tu < cand:
                        cand = tu
                if cand < dist[r]:
                    if dist[r] == math.inf:
                        reached.append(r)
                    dist[r] = cand
                    heapq.heappush(heap, (cand, r))
    # a capped march reaches few of the vertices: convert only those
    idx = sorted(v for v in reached if dist[v] <= limit)
    return GeodesicField(np.array(idx, dtype=np.int64), np.array([dist[v] for v in idx]))


def geodesic_from(s: Surface, seed, cap=None):
    """The :class:`GeodesicField` of the vertices a march from ``seed``
    reaches: fast marching on a mesh, Dijkstra on its edges or k-NN graph
    otherwise, stopped at ``cap`` if given.  Vertices beyond the cap or on
    another component are left out, which is not an error.  The seed must be
    an integer (not a bool), the cap ``None`` or a real number, at least 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Real)
                            or not cap >= 0):
        raise InvalidInputError(f"cap must be None or a real number at least 0, got {cap!r}")
    if not (0 <= seed < s.n_vertices):
        raise InvalidInputError(f"seed {seed} out of range")
    march = _fast_marching if s.has_faces else _dijkstra
    return march(_geometry(s), seed, cap)

