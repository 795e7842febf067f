"""Synthetic inputs: wavy grid surfaces, twists, normal orientation."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from nrreg import Surface, compute_normals, normalize_pair

WAVE = 0.05          # height of the sinusoidal relief, in grid units
TWIST_DEG = 10.0     # twist of acceptance criterion 7
TWIST_LIFT = 0.02    # lift of acceptance criterion 7


def wavy_grid(nx, ny, wave=WAVE):
    """(nx, ny) grid over the unit square with a sinusoidal height field and
    two triangles per cell."""
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny),
                         indexing="ij")
    z = wave * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    verts = np.column_stack([xs.ravel(), ys.ravel(), z.ravel()])
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    a = (i * ny + j).ravel()
    b = a + ny
    faces = np.stack([np.column_stack([a, b, b + 1]),
                      np.column_stack([a, b + 1, a + 1])], axis=1).reshape(-1, 3)
    return Surface(verts, faces)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def twist_fraction(x):
    """Position along the twist axis, 0 at the lowest x and 1 at the highest."""
    return (x - x.min()) / max(float(np.ptp(x)), 1e-12)


def node_twist(t, angle_deg=TWIST_DEG, lift=TWIST_LIFT):
    """Per-node rotation about z growing linearly with ``t`` in [0, 1] up to
    ``angle_deg``, plus a lift along z: the linear twist of acceptance
    criterion 7."""
    rots = np.stack([rot_z(a) for a in np.deg2rad(angle_deg) * t])
    trans = np.zeros((len(t), 3))
    trans[:, 2] = lift * t
    return rots, trans


def analytic_twist(points, angle_deg=TWIST_DEG, lift=TWIST_LIFT):
    """Twist a sheet spanning the unit square about its centre line along x:
    each point turns about the axis (y, z) = (0.5, 0) by an angle growing
    linearly with x (0 to ``angle_deg``) and is lifted linearly with x."""
    x = points[:, 0]
    ang = np.deg2rad(angle_deg) * x
    c, s = np.cos(ang), np.sin(ang)
    y = points[:, 1] - 0.5
    z = points[:, 2]
    return np.column_stack([x, c * y - s * z + 0.5, s * y + c * z + lift * x])


def normals_agree(source: Surface, target: Surface):
    """Whether the source normals point the same way as the target normals
    near them, both estimated as ``nrreg register`` does (normals, normalize
    the pair, normals again)."""
    s_n, t_n, _ = normalize_pair(compute_normals(source), compute_normals(target))
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    _, idx = cKDTree(t_n.vertices).query(s_n.vertices)
    return float(np.median(np.einsum("ij,ij->i", s_n.normals, t_n.normals[idx]))) > 0.0
