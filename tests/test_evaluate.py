import numpy as np
import pytest

from nrreg.errors import InvalidInputError
from nrreg.evaluate import (GroundTruth, add_gaussian_normal_noise,
                            random_node_rotations, remove_region, rmse,
                            synthesize_deformation)
from nrreg.geodesic import geodesic_from
from nrreg.graph import build_graph
from nrreg.mesh import compute_normals

from conftest import grid_mesh
from oracles import dense


def test_rmse_arithmetic():
    gt = GroundTruth(np.zeros((2, 3)))
    pts = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    assert rmse(pts, gt) == pytest.approx(np.sqrt(25.0 / 2.0))
    with pytest.raises(InvalidInputError):
        rmse(np.zeros((3, 3)), gt)


def test_noise_moves_expected_subset():
    s = compute_normals(grid_mesh(10, 10))
    noisy = add_gaussian_normal_noise(s, fraction=0.3, sigma=0.05, rng_seed=42)
    moved = np.any(noisy.vertices != s.vertices, axis=1)
    assert moved.sum() == int(np.floor(0.3 * s.n_vertices))
    # displacement is along the vertex normal
    delta = noisy.vertices[moved] - s.vertices[moved]
    unit = delta / np.linalg.norm(delta, axis=1, keepdims=True)
    assert np.abs(np.abs(np.einsum("ij,ij->i", unit, s.normals[moved])) - 1).max() < 1e-9


def test_noise_reproducible_and_degenerate_cases():
    s = compute_normals(grid_mesh(8, 8))
    a = add_gaussian_normal_noise(s, 0.5, 0.1, rng_seed=7)
    b = add_gaussian_normal_noise(s, 0.5, 0.1, rng_seed=7)
    assert np.array_equal(a.vertices, b.vertices)
    c = add_gaussian_normal_noise(s, 0.5, 0.1, rng_seed=8)
    assert not np.array_equal(a.vertices, c.vertices)
    assert np.array_equal(add_gaussian_normal_noise(s, 0.0, 0.1).vertices, s.vertices)
    assert np.array_equal(add_gaussian_normal_noise(s, 0.5, 0.0).vertices, s.vertices)
    with pytest.raises(InvalidInputError):
        add_gaussian_normal_noise(s, 1.5, 0.1)
    with pytest.raises(InvalidInputError):
        add_gaussian_normal_noise(grid_mesh(4, 4), 0.5, 0.1)   # no normals


def test_remove_region():
    s = grid_mesh(10, 10)
    out, keep = remove_region(s, seed_vertex=44, geodesic_radius=0.3)
    assert not keep[44]
    # the capped march removes the ball of the uncapped field
    assert np.array_equal(keep, dense(geodesic_from(s, 44), s.n_vertices) > 0.3)
    assert out.n_vertices == int(keep.sum())
    assert out.n_vertices < s.n_vertices
    # surviving vertices keep their coordinates; faces are valid reindexes
    assert np.array_equal(out.vertices, s.vertices[keep])
    assert out.faces.min() >= 0 and out.faces.max() < out.n_vertices
    for radius in (-1.0, 0.0, float("nan")):
        with pytest.raises(InvalidInputError, match="radius must be positive"):
            remove_region(s, 0, radius)
    with pytest.raises(InvalidInputError):
        remove_region(s, 0, 100.0)   # would remove everything
    for seed in (44.0, 44.5, np.float64(44.0), True):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            remove_region(s, seed, 0.3)


def test_synthesize_identity_is_noop(grid25):
    g = build_graph(grid25)
    rots = np.broadcast_to(np.eye(3), (g.n_nodes, 3, 3)).copy()
    trans = np.zeros((g.n_nodes, 3))
    target, gt = synthesize_deformation(grid25, g, rots, trans)
    assert np.abs(target.vertices - grid25.vertices).max() < 1e-12
    assert np.array_equal(gt.gt_positions, target.vertices)
    assert target.normals is not None


def test_synthesize_needs_the_graph_surface(grid25, grid9):
    g = build_graph(grid9)
    rots = np.broadcast_to(np.eye(3), (g.n_nodes, 3, 3)).copy()
    with pytest.raises(InvalidInputError):
        synthesize_deformation(grid25, g, rots, np.zeros((g.n_nodes, 3)))


def test_random_node_rotations_are_rotations(grid25):
    g = build_graph(grid25)
    rots, trans = random_node_rotations(g, 10.0, rng_seed=5, translation_scale=0.01)
    assert rots.shape == (g.n_nodes, 3, 3)
    for R in rots:
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R) == pytest.approx(1.0)
        angle = np.degrees(np.arccos(np.clip((np.trace(R) - 1) / 2, -1, 1)))
        assert angle <= 10.0 + 1e-9
    assert np.any(trans != 0)
    r2, t2 = random_node_rotations(g, 10.0, rng_seed=5, translation_scale=0.01)
    assert np.array_equal(rots, r2) and np.array_equal(trans, t2)


@pytest.mark.parametrize("field, value", [
    ("max_angle_deg", float("nan")), ("max_angle_deg", float("inf")), ("max_angle_deg", -1.0),
    ("translation_scale", float("nan")), ("translation_scale", float("inf")),
    ("translation_scale", -1.0)])
def test_random_node_rotations_reject_malformed_magnitudes(grid25, field, value):
    args = {"max_angle_deg": 10.0, "translation_scale": 0.01, field: value}
    with pytest.raises(InvalidInputError, match=field):
        random_node_rotations(build_graph(grid25), **args)


def test_ground_truth_save(tmp_path):
    gt = GroundTruth(np.random.default_rng(0).uniform(size=(10, 3)))
    p = tmp_path / "gt.ply"
    gt.save_ply(p)
    from nrreg.mesh import load_ply
    back = load_ply(p)
    assert np.allclose(back.vertices, gt.gt_positions, atol=1e-8)
