"""Accuracy metrics and synthetic corruption generators.

These reproduce the robustness experiments: per-vertex Gaussian noise along
normals, geodesic-ball removal for partial overlap, and model-based ground
truth deformations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, check_number
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
    if result_positions.shape != gt.gt_positions.shape:
        raise InvalidInputError(f"positions {result_positions.shape}, not {gt.gt_positions.shape}")
    e = np.linalg.norm(result_positions - gt.gt_positions, axis=1)
    return float(np.sqrt(np.mean(e * e)))


def _check_seed(rng_seed):
    """A seed is an integer >= 0 or a list or tuple of them, as numpy's
    ``default_rng`` takes it; anything else is an ``InvalidInputError``."""
    for v in rng_seed if isinstance(rng_seed, (list, tuple)) else [rng_seed]:
        check_number("rng_seed", v, lambda v: v >= 0,
                     "an integer >= 0 or a list or tuple of them", integer=True)


def add_gaussian_normal_noise(s: Surface, fraction, sigma, rng_seed=0):
    """Displace a random vertex subset along its normals by N(0, sigma^2),
    drawn from ``rng_seed``: an integer >= 0 or a list or tuple of them."""
    if s.normals is None:
        raise InvalidInputError("noise generator needs normals")
    check_number("fraction", fraction, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    check_number("sigma", sigma, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
    _check_seed(rng_seed)
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
    check_number("geodesic_radius", geodesic_radius, lambda v: v > 0, "positive")
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
    """Deform a surface with known per-node transforms, shaped (r, 3, 3)
    and (r, 3) for a graph of r nodes; returns the deformed surface (as
    target) and the per-vertex ground truth."""
    if s.n_vertices != g.n_points:
        raise InvalidInputError("the graph was built on a different surface")
    rotations = np.asarray(node_rotations, dtype=np.float64)
    translations = np.asarray(node_translations, dtype=np.float64)
    r = g.n_nodes
    if rotations.shape != (r, 3, 3) or translations.shape != (r, 3):
        raise InvalidInputError(
            f"node_rotations {rotations.shape} and node_translations {translations.shape}, "
            f"not ({r}, 3, 3) and ({r}, 3) for a graph of {r} nodes")
    X = pack_state(rotations, translations)
    deformed = transform_points(g, X)
    target = Surface(deformed, s.faces)
    if target.faces is not None:
        target = compute_normals(target)
    return target, GroundTruth(deformed.copy())


def random_node_rotations(g, max_angle_deg, rng_seed=0, translation_scale=0.0):
    """Small random rotations (angle <= max_angle_deg) plus optional random
    translations, one per graph node, drawn from ``rng_seed``: an integer
    >= 0 or a list or tuple of them."""
    for name, value in (("max_angle_deg", max_angle_deg),
                        ("translation_scale", translation_scale)):
        check_number(name, value, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
    _check_seed(rng_seed)
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
