import numpy as np
import pytest
from scipy.spatial import cKDTree

import nrreg.correspond
from nrreg.correspond import (RigidTransform, best_rigid, find_correspondences,
                              lift_rigid_to_state, rigid_icp_init)
from nrreg.errors import InitializationError, InvalidInputError
from nrreg.graph import build_graph, transform_points
from nrreg.mesh import Surface, compute_normals

from conftest import grid_mesh, rot_z
from oracles import rigid_icp_full_cap


def brute_nearest(queries, points):
    d = np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=2)
    return d.argmin(axis=1), d.min(axis=1)


def nearest(queries, points):
    corr = find_correspondences(queries, Surface(points))
    return corr.indices, corr.distances


@pytest.mark.parametrize("bad", ["nan", "inf", "2d"])
def test_malformed_queries_are_invalid_input(bad):
    """A query that is not finite, or not three coordinates, fails typed,
    whether or not a previous set is offered for reuse."""
    target = Surface(np.random.default_rng(1).uniform(size=(20, 3)))
    queries = np.random.default_rng(2).uniform(size=(5, 3))
    previous = find_correspondences(queries, target)
    if bad == "2d":
        queries = queries[:, :2]
    else:
        queries[3] = float(bad)
    for prev in (None, previous):
        with pytest.raises(InvalidInputError, match="finite" if bad != "2d" else r"\(m, 3\)"):
            find_correspondences(queries, target, prev)


def test_index_matches_brute_force():
    """At any coordinate scale the closest point's distance is the row norm
    of the difference to the bit, which warm-started queries rely on (see
    ``nrreg.correspond``)."""
    rng = np.random.default_rng(0)
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        pts = (rng.uniform(size=(300, 3)) + 7.3) * scale
        q = (rng.uniform(size=(100, 3)) + 7.3) * scale
        got_i, got_d = nearest(q, pts)
        exp_i, exp_d = brute_nearest(q, pts)
        assert np.allclose(got_d, exp_d, rtol=1e-14, atol=0.0)
        assert np.array_equal(got_i, exp_i)
        assert got_d.tobytes() == np.linalg.norm(q - pts[got_i], axis=1).tobytes()


def test_tie_break_lowest_index():
    pts = np.array([[2.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    i, d = nearest(np.zeros((1, 3)), pts)
    assert d[0] == pytest.approx(1.0)
    assert i[0] == 1  # indices 1 and 2 tie; lowest wins
    # two points at the same distance as the tree computes it: the lowest
    # index wins, however a dot product would round the two distances
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(500):
        c = rng.uniform(-1.0, 1.0, size=3) * rng.choice([1e-3, 1.0, 1e3])
        v = rng.normal(size=3) * rng.choice([1e-2, 1.0, 1e2])
        pts = np.array([c + v, c - v, c + 3 * v])[rng.permutation(3)]
        d, i = cKDTree(pts).query(c, k=2)
        got_i, got_d = nearest(c[None], pts)
        assert got_d[0] == d[0]
        if d[0] == d[1]:
            ties += 1
            assert got_i[0] == min(i)
    assert ties > 400


def test_empty_index_rejected():
    with pytest.raises(InvalidInputError):
        nearest(np.zeros((1, 3)), np.empty((0, 3)))
    src = compute_normals(grid_mesh(3, 3))
    empty = Surface(np.empty((0, 3)), normals=np.empty((0, 3)))
    for iters in (0, 1):
        with pytest.raises(InvalidInputError):
            rigid_icp_init(src, empty, iters=iters)


def test_previous_sets_are_reused_on_the_same_tree(monkeypatch):
    """A set found on a surface is reused on its normals copy, which shares
    its k-d tree, so fewer rows reach the tree; a surface over equal points
    has its own tree and reuses none.  Every answer is the cold one."""
    sent = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            sent.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", CountingTree)
    rng = np.random.default_rng(6)
    target = Surface(rng.uniform(size=(200, 3)))
    queries = rng.uniform(size=(50, 3))
    prev = find_correspondences(queries, target)
    moved = queries + rng.normal(scale=1e-4, size=queries.shape)
    cold = find_correspondences(moved, target)
    for surface, reused in ((compute_normals(target), True), (Surface(target.vertices), False)):
        sent.clear()
        warm = find_correspondences(moved, surface, prev)
        assert (sum(sent) < len(moved)) == reused
        assert warm.indices.tobytes() == cold.indices.tobytes()
        assert warm.distances.tobytes() == cold.distances.tobytes()


def counted_queries(monkeypatch):
    """The row count of each closest-point query rigid ICP makes."""
    asked = []
    find = nrreg.correspond.find_correspondences

    def counted(queries, target, previous=None):
        asked.append(len(queries))
        return find(queries, target, previous)

    monkeypatch.setattr(nrreg.correspond, "find_correspondences", counted)
    return asked


@pytest.mark.parametrize("reject", [dict(iters=-3), dict(iters=True), dict(iters=2.5),
                                    dict(iters="3"), dict(iters=np.bool_(True)),
                                    dict(eps_d=0.0), dict(eps_d=-0.1), dict(eps_d=np.inf),
                                    dict(eps_d=np.nan), dict(eps_d=True), dict(eps_d="0.3"),
                                    dict(theta=0.0), dict(theta=-30.0), dict(theta=720.0),
                                    dict(theta=np.nan), dict(theta=None)])
def test_rigid_icp_rejects_bad_arguments(monkeypatch, reject):
    """Arguments are checked before any query, with a typed error naming
    the argument: a negative count would return the identity, a bool run
    one iteration, and a theta beyond 180 degrees reject every pair."""
    src = compute_normals(grid_mesh(5, 5))
    asked = counted_queries(monkeypatch)
    (name, _), = reject.items()
    with pytest.raises(InvalidInputError, match=name):
        rigid_icp_init(src, src, **reject)
    assert asked == []


def test_rigid_icp_stops_at_its_fixed_point(monkeypatch):
    """Under a small rigid motion the pairs change for a few iterations,
    then repeat, and a fit of repeated pairs is the identity: ICP stops
    there, after fewer queries than its cap, at the transform the loop run
    to the cap reaches."""
    src = compute_normals(grid_mesh(15, 15, wavy=0.1))
    R = rot_z(np.deg2rad(5.0))
    t = np.array([0.03, -0.02, 0.01])
    tgt = compute_normals(Surface(src.vertices @ R.T + t, src.faces.copy()))
    asked = counted_queries(monkeypatch)
    res = rigid_icp_init(src, tgt, iters=15, eps_d=0.3, theta=60.0)
    assert res.reason == "fixed_point"
    assert 2 < len(asked) == res.iterations < 15
    R_ref, t_ref = rigid_icp_full_cap(src, tgt, 15, eps_d=0.3, theta=60.0)
    assert np.abs(res.transform.rotation - R_ref).max() < 1e-12
    assert np.abs(res.transform.translation - t_ref).max() < 1e-12
    # the last closest points are those of the source the transform moves
    moved = res.transform.apply(src.vertices)
    assert np.array_equal(res.correspondences.indices,
                          find_correspondences(moved, tgt).indices)


def test_rigid_icp_without_iterations_is_the_identity(monkeypatch):
    src = compute_normals(grid_mesh(5, 5))
    asked = counted_queries(monkeypatch)
    res = rigid_icp_init(src, src, iters=0)
    assert asked == [] and res.correspondences is None
    assert (res.iterations, res.reason) == (0, "iteration_cap")
    assert np.array_equal(res.transform.rotation, np.eye(3))
    assert np.array_equal(res.transform.translation, np.zeros(3))


def kept_pairs(monkeypatch, source, target, **reject):
    """The pairs one rigid ICP iteration fits; ``InitializationError`` when
    it keeps fewer than 3."""
    fitted = []

    def counting(src_pts, dst_pts):
        fitted.append(len(src_pts))
        return best_rigid(src_pts, dst_pts)

    monkeypatch.setattr(nrreg.correspond, "best_rigid", counting)
    rigid_icp_init(source, target, iters=1, **reject)
    return fitted[0]


def test_rigid_icp_rejects_far_and_back_facing_pairs(monkeypatch):
    """Between two meshes a pair is kept within ``eps_d`` and with normals
    pointing the same way; a source without normals is refused."""
    target = compute_normals(grid_mesh(5, 5, wavy=0.0))
    q = target.vertices + [0.0, 0.0, 0.05]
    qn = np.tile([0.0, 0.0, 1.0], (len(q), 1))
    source = Surface(q, target.faces, normals=qn)
    assert kept_pairs(monkeypatch, source, target, eps_d=0.1, theta=60) == len(q)
    with pytest.raises(InitializationError):
        kept_pairs(monkeypatch, source, target, eps_d=0.01, theta=60)
    flipped = Surface(q, target.faces, normals=-qn)
    with pytest.raises(InitializationError):
        kept_pairs(monkeypatch, flipped, target, eps_d=0.1, theta=60)
    with pytest.raises(InvalidInputError):
        rigid_icp_init(Surface(q, target.faces), target, iters=1)


def test_rigid_icp_with_a_point_cloud_ignores_normal_sign(monkeypatch):
    """PCA normals of a point cloud have no sign: when either surface is a
    cloud, anti-parallel normals lie along the same line and pass."""
    grid = grid_mesh(5, 5, wavy=0.0)
    q = grid.vertices + [0.0, 0.0, 0.05]
    qn = np.tile([0.0, 0.0, -1.0], (len(q), 1))
    cloud = compute_normals(Surface(grid.vertices))
    for normals in (qn, -qn):
        source = Surface(q, grid.faces, normals=normals)
        assert kept_pairs(monkeypatch, source, cloud, eps_d=0.1, theta=60) == len(q)
    # tilted by more than theta from the line, a pair fails either way
    tilted = np.tile([np.sin(1.2), 0.0, np.cos(1.2)], (len(q), 1))
    with pytest.raises(InitializationError):
        kept_pairs(monkeypatch, Surface(q, grid.faces, normals=tilted), cloud,
                   eps_d=0.1, theta=60)
    # a cloud source against a mesh target: the mesh's normals lose their sign
    mesh = compute_normals(grid)
    source = Surface(q, normals=-mesh.normals)
    assert kept_pairs(monkeypatch, source, mesh, eps_d=0.1, theta=60) == len(q)


def test_best_rigid_recovers_exact():
    rng = np.random.default_rng(1)
    src = rng.normal(size=(50, 3))
    R = rot_z(0.7) @ np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    t = np.array([0.3, -1.0, 2.0])
    rt = best_rigid(src, src @ R.T + t)
    assert np.abs(rt.rotation - R).max() < 1e-12
    assert np.abs(rt.translation - t).max() < 1e-12
    assert np.linalg.det(rt.rotation) == pytest.approx(1.0)


def test_best_rigid_no_reflection():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(40, 3))
    dst = src * [1, 1, -1]          # mirror image
    rt = best_rigid(src, dst)
    assert np.linalg.det(rt.rotation) == pytest.approx(1.0)


def test_rigid_transform_compose():
    a = RigidTransform(rot_z(0.5), np.array([1.0, 0, 0]))
    b = RigidTransform(rot_z(-0.2), np.array([0, 2.0, 0]))
    pts = np.random.default_rng(3).normal(size=(10, 3))
    assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)))
    assert np.allclose(RigidTransform.identity().apply(pts), pts)


def test_rigid_icp_recovers_transform():
    # wavy=0.1 gives the grid enough relief that closest-point matching does
    # not alias onto a lattice-shifted local minimum at this rotation
    src = compute_normals(grid_mesh(15, 15, wavy=0.1))
    R = rot_z(np.deg2rad(8.0))
    t = np.array([0.03, -0.02, 0.01])
    tgt = Surface(src.vertices @ R.T + t, src.faces.copy())
    tgt = compute_normals(tgt)
    rt = rigid_icp_init(src, tgt, iters=50).transform
    assert np.abs(rt.rotation - R).max() < 1e-3
    assert np.abs(rt.translation - t).max() < 1e-3


def test_rigid_icp_with_outliers(monkeypatch):
    # with 30% of the target corrupted the pair rejection keeps the estimate
    # close; the init only needs to land in the non-rigid solver's basin, so
    # the tolerance is coarse (the corruption scale is 0.5).  Its pairs keep
    # changing, so ICP runs to its cap
    rng = np.random.default_rng(4)
    src = compute_normals(grid_mesh(15, 15, wavy=0.1))
    R = rot_z(np.deg2rad(6.0))
    t = np.array([0.02, 0.01, 0.0])
    v = src.vertices @ R.T + t
    out = rng.choice(len(v), size=len(v) * 3 // 10, replace=False)
    v = v.copy()
    v[out] += rng.normal(scale=0.5, size=(len(out), 3))
    tgt = compute_normals(Surface(v, src.faces.copy()))
    asked = counted_queries(monkeypatch)
    res = rigid_icp_init(src, tgt)
    assert len(asked) == res.iterations == 15 and res.reason == "iteration_cap"
    rt = res.transform
    assert np.abs(rt.rotation - R).max() < 5e-2
    assert np.abs(rt.translation - t).max() < 5e-2


def test_rigid_icp_builds_one_tree_on_the_target(monkeypatch):
    """Every ICP iteration queries the target's own k-d tree, built once at
    the first query; the source gets none."""
    src = compute_normals(grid_mesh(10, 10, wavy=0.1))
    tgt = compute_normals(Surface(src.vertices @ rot_z(0.1).T, src.faces.copy()))
    trees = []

    class CountingTree(nrreg.mesh.cKDTree):
        def __init__(self, points, *args, **kwargs):
            trees.append(self)
            super().__init__(points, *args, **kwargs)

    monkeypatch.setattr(nrreg.mesh, "cKDTree", CountingTree)
    rt = rigid_icp_init(src, tgt, iters=5).transform
    assert len(trees) == 1 and trees[0] is nrreg.mesh._kd_tree(tgt)
    again = rigid_icp_init(src, tgt, iters=5).transform
    assert len(trees) == 1
    assert np.array_equal(rt.rotation, again.rotation)
    assert np.array_equal(rt.translation, again.translation)


def test_rigid_icp_requires_normals():
    s = grid_mesh(5, 5)
    with pytest.raises(InvalidInputError):
        rigid_icp_init(s, s)


def test_lift_rigid_to_state_exact(grid25):
    g = build_graph(grid25)
    rt = RigidTransform(rot_z(0.2), np.array([0.05, 0.0, -0.03]))
    X = lift_rigid_to_state(rt, g)
    assert np.abs(transform_points(g, X) - rt.apply(grid25.vertices)).max() < 1e-12
