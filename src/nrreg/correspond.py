"""Closest-point queries, and rigid ICP with its own pair rejection.

The spatial index is exact: ties between equidistant target points resolve to
the lowest index.  Hard distance/normal rejection is used only during the
rigid initialization; the robust kernel takes over during non-rigid solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InitializationError, InvalidInputError
from .mesh import Surface

DEFAULT_EPS_D = 0.3
DEFAULT_THETA_DEG = 60.0
DEFAULT_ICP_ITERS = 15


class SpatialIndex:
    """Exact nearest-neighbor index over a fixed point set."""

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if len(points) == 0:
            raise InvalidInputError("cannot index an empty point set")
        self.points = points
        self._tree = cKDTree(points)

    def query(self, queries):
        """Nearest index and distance per query; equidistant ties give the
        lowest index."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(2, len(self.points))
        d, idx = self._tree.query(queries, k=k)
        if k == 1:
            return idx.ravel().astype(np.int64), d.ravel()
        dist = d[:, 0].copy()
        best = idx[:, 0].copy()
        tied = d[:, 0] == d[:, 1]
        for q in np.where(tied)[0]:
            cands = self._tree.query_ball_point(queries[q], dist[q] * (1 + 1e-12) + 1e-300)
            at_min = [c for c in cands
                      if np.linalg.norm(self.points[c] - queries[q]) <= dist[q]]
            if at_min:
                best[q] = min(at_min)
        return best.astype(np.int64), dist


@dataclass
class CorrespondenceSet:
    """Per-query nearest target point."""

    indices: np.ndarray      # (n,) target index rho(i)
    positions: np.ndarray    # (n, 3) u_rho(i)
    distances: np.ndarray    # (n,)


def find_correspondences(queries, target: Surface, index: SpatialIndex | None = None):
    """Exact closest target point per query, with no pair rejected (rigid
    ICP rejects its own pairs).  ``index`` is a :class:`SpatialIndex` over
    the target's vertices, built here if omitted."""
    queries = np.asarray(queries, dtype=np.float64)
    if index is None:
        index = SpatialIndex(target.vertices)
    idx, dist = index.query(queries)
    return CorrespondenceSet(idx, target.vertices[idx], dist)


@dataclass
class RigidTransform:
    rotation: np.ndarray     # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def apply(self, points):
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform"):
        """self after other: x -> self(other(x))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    @staticmethod
    def identity():
        return RigidTransform(np.eye(3), np.zeros(3))


def best_rigid(src_pts, dst_pts):
    """Closed-form least-squares rigid transform (SVD, det-corrected)."""
    src_pts = np.asarray(src_pts, dtype=np.float64)
    dst_pts = np.asarray(dst_pts, dtype=np.float64)
    cs = src_pts.mean(axis=0)
    cd = dst_pts.mean(axis=0)
    H = (src_pts - cs).T @ (dst_pts - cd)
    U, _, Vt = np.linalg.svd(H)
    S = np.eye(3)
    if np.linalg.det(Vt.T @ U.T) < 0:
        S[2, 2] = -1.0
    Rm = Vt.T @ S @ U.T
    return RigidTransform(Rm, cd - Rm @ cs)


def rigid_icp_init(source: Surface, target: Surface, iters=DEFAULT_ICP_ITERS,
                   eps_d=DEFAULT_EPS_D, theta=DEFAULT_THETA_DEG,
                   index: SpatialIndex | None = None):
    """Point-to-point ICP with distance/normal pair rejection.

    A pair is kept when its points lie at most ``eps_d`` apart and its
    normals within ``theta`` degrees.  Between two meshes the normals must
    point the same way (``n . m >= cos theta``), which rejects back-facing
    pairs on folded or thin sheets.  When either surface is a point cloud,
    whose PCA normals have no sign, they need only lie along the same line
    (``|n . m| >= cos theta``).  Fewer than 3 pairs kept raise
    ``InitializationError``.

    The iterations start from the identity.  ``index`` is a
    :class:`SpatialIndex` over the target's vertices, built here if omitted.
    """
    if source.normals is None or target.normals is None:
        raise InvalidInputError("rigid ICP needs normals on both surfaces")
    if index is None:
        index = SpatialIndex(target.vertices)
    rt = RigidTransform.identity()
    signed = source.has_faces and target.has_faces
    cos_lim = np.cos(np.deg2rad(theta))
    for it in range(iters):
        moved = rt.apply(source.vertices)
        corr = find_correspondences(moved, target, index)
        dots = np.einsum("ij,ij->i", source.normals @ rt.rotation.T,
                         target.normals[corr.indices])
        if not signed:
            dots = np.abs(dots)
        keep = (corr.distances <= eps_d) & (dots >= cos_lim)
        if int(keep.sum()) < 3:
            raise InitializationError(
                f"rigid ICP iteration {it}: fewer than 3 valid pairs")
        rt = best_rigid(moved[keep], corr.positions[keep]).compose(rt)
    return rt


def lift_rigid_to_state(rt: RigidTransform, g):
    """Per-node state that reproduces the rigid map exactly under blending:
    A_j = R and t_j = R p_j + t - p_j."""
    from .energy import pack_state

    r = g.n_nodes
    A = np.broadcast_to(rt.rotation, (r, 3, 3)).copy()
    t = g.node_positions @ rt.rotation.T + rt.translation - g.node_positions
    return pack_state(A, t)

