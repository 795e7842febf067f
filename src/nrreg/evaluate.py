"""Accuracy metrics and synthetic corruption generators.

These reproduce the robustness experiments: per-vertex Gaussian noise along
normals, geodesic-ball removal for partial overlap, and model-based ground
truth deformations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .geodesic import geodesic_from
from .graph import transform_points
from .mesh import Surface, compute_normals, save_ply
from .energy import pack_state


@dataclass
class GroundTruth:
    """Per-source-vertex ground-truth deformed positions (original units)."""

    gt_positions: np.ndarray

    def save_ply(self, path):
        save_ply(Surface(self.gt_positions), path)


def rmse(result_positions, gt: GroundTruth):
    """Root mean square pointwise deviation from the ground truth."""
    result_positions = np.asarray(result_positions, dtype=np.float64)
    if len(result_positions) != len(gt.gt_positions):
        raise InvalidInputError("position count mismatch")
    e = np.linalg.norm(result_positions - gt.gt_positions, axis=1)
    return float(np.sqrt(np.mean(e * e)))


def add_gaussian_normal_noise(s: Surface, fraction, sigma, rng_seed=0):
    """Displace a random vertex subset along its normals by N(0, sigma^2)."""
    if s.normals is None:
        raise InvalidInputError("noise generator needs normals")
    if sigma < 0 or not (0.0 <= fraction <= 1.0):
        raise InvalidInputError("need sigma >= 0 and fraction in [0, 1]")
    count = int(np.floor(fraction * s.n_vertices))
    if count == 0 or sigma == 0.0:
        return s
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(s.n_vertices, size=count, replace=False)
    delta = rng.normal(0.0, sigma, size=count)
    v = s.vertices.copy()
    v[chosen] += s.normals[chosen] * delta[:, None]
    return replace(s, vertices=v)


def remove_region(s: Surface, seed_vertex, geodesic_radius):
    """Delete all vertices within a geodesic ball of the seed, reindexing."""
    if not geodesic_radius > 0:
        raise InvalidInputError("radius must be positive")
    keep = np.ones(s.n_vertices, dtype=bool)
    keep[geodesic_from(s, seed_vertex, cap=geodesic_radius).indices] = False
    if not keep.any():
        raise InvalidInputError("removal would empty the surface")
    new_index = -np.ones(s.n_vertices, dtype=np.int64)
    new_index[keep] = np.arange(int(keep.sum()))
    faces = None
    if s.faces is not None:
        mask = keep[s.faces].all(axis=1)
        faces = new_index[s.faces[mask]]
    return Surface(
        s.vertices[keep],
        faces,
        normals=None if s.normals is None else s.normals[keep],
    ), keep


def synthesize_deformation(s: Surface, g, node_rotations, node_translations):
    """Deform a surface with known per-node transforms; returns the deformed
    surface (as target) and the per-vertex ground truth."""
    if s.n_vertices != g.n_points:
        raise InvalidInputError("the graph was built on a different surface")
    X = pack_state(np.asarray(node_rotations, dtype=np.float64),
                   np.asarray(node_translations, dtype=np.float64))
    deformed = transform_points(g, X)
    target = Surface(deformed, s.faces)
    if target.faces is not None:
        target = compute_normals(target)
    return target, GroundTruth(deformed.copy())


def random_node_rotations(g, max_angle_deg, rng_seed=0, translation_scale=0.0):
    """Small random rotations (angle <= max_angle_deg) plus optional random
    translations, one per graph node."""
    for name, value in (("max_angle_deg", max_angle_deg),
                        ("translation_scale", translation_scale)):
        if not (np.isfinite(value) and value >= 0.0):
            raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
    rng = np.random.default_rng(rng_seed)
    r = g.n_nodes
    axes = rng.normal(size=(r, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.deg2rad(rng.uniform(0.0, max_angle_deg, size=r))
    rots = np.empty((r, 3, 3))
    for j in range(r):
        k = axes[j]
        K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        rots[j] = np.eye(3) + np.sin(angles[j]) * K + (1 - np.cos(angles[j])) * K @ K
    trans = rng.normal(0.0, translation_scale, size=(r, 3)) if translation_scale else np.zeros((r, 3))
    return rots, trans
