"""The benchmark workloads: seeded inputs written to disk, a new random
draw for every registration of a run.

track-2k5 reuses one deformation graph, so the MM/L-BFGS solver dominates;
cloud-outliers builds the graph in every registration against a large
noisy point cloud (see README.md).  The seed draws the random corruption of
the targets (noise, outliers), never the source geometry, so runs with
different seeds do comparable work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from nrreg import (SolverParams, Surface, add_gaussian_normal_noise,
                   compute_normals, mean_edge_length, normalize_pair, save_ply,
                   synthesize_deformation)
from nrreg import graph as nrreg_graph
from nrreg import mesh as nrreg_mesh

from .inputs import (TWIST_DEG, TWIST_LIFT, analytic_twist, node_twist,
                     normals_agree, twist_fraction, wavy_grid)
from .pipeline import Case

RADIUS_FACTOR = 5.0   # graph radius in mean edge lengths, nrreg's default


def _noise_seed(rng):
    return int(rng.integers(2**31))


class Workload:
    """Seeded inputs: set-up writes those of the first registration, and each
    later registration's are written when a run first asks for them, outside
    the timed registration.  Every registration of a run gets inputs of its
    own, so that one run's figures are medians over many random draws."""

    name = ""
    why = ""
    rmse_ceiling = 0.0
    params = SolverParams()

    def setup(self, rng: np.random.Generator, inputs: Path):
        """Prepare the draws into ``inputs`` and write the first one."""
        raise NotImplementedError

    def case(self, k: int) -> Case:
        """Inputs of the k-th registration of a run."""
        if k not in self._cases:
            self._cases[k] = self._draw(k)
        return self._cases[k]

    def _draw(self, k: int) -> Case:
        """Write the inputs of the k-th registration; they depend only on the
        seed and k."""
        raise NotImplementedError

    def done(self, k: int, result):
        """Called after the k-th registration with its result (or None)."""


class TrackFrames(Workload):
    """A tracked sequence: every frame reuses the set-up graph and starts from
    the previous frame's node transforms, as ``register(graph=...,
    initial_state=...)`` allows.  The first frame of each pass is registered
    from scratch (rigid ICP).  Every pass draws new noise."""

    name = "track-2k5"
    why = ("2 500-vertex frames of growing twist with noise, graph built once "
           "in set-up and reused: solver and energy layers dominate")
    rmse_ceiling = 3e-3
    grid = 50
    frames = 16
    step_deg = 1.0          # twist added per frame
    noise_fraction = 0.3    # share of target vertices displaced along normals
    noise_sigma = 0.3       # noise std-dev in mean edge lengths

    def setup(self, rng, inputs):
        save_ply(wavy_grid(self.grid, self.grid), inputs / "source.ply")
        # graph and frames live in the fixed normalized frame of the source
        source = compute_normals(nrreg_mesh.load_surface(inputs / "source.ply"))
        s_n, _, self.frame = normalize_pair(source, source)
        self.graph = nrreg_graph.build_graph(s_n, R=RADIUS_FACTOR * mean_edge_length(s_n))
        t = twist_fraction(s_n.vertices[self.graph.node_indices, 0])
        self._sigma = self.noise_sigma * mean_edge_length(source)
        self._clean = []        # (noise-free target, ground truth) per frame
        for f in range(self.frames):
            angle = f * self.step_deg
            lift = TWIST_LIFT * angle / TWIST_DEG * self.frame.scale
            tgt_n, gt_n = synthesize_deformation(s_n, self.graph, *node_twist(t, angle, lift))
            target = compute_normals(Surface(self.frame.denormalize(tgt_n.vertices, "source"),
                                             source.faces))
            self._clean.append((target, self.frame.denormalize(gt_n.gt_positions, "source")))
        self._seed = _noise_seed(rng)
        self._inputs = inputs
        self._cases = {}
        self._state = None
        self.case(0)

    def case(self, k):
        c = super().case(k)
        start = None if k % self.frames == 0 else self._state
        return Case(c.key, c.source, c.target, c.gt, c.params, c.rmse_ceiling,
                    graph=c.graph, frame=c.frame, initial_state=start)

    def _draw(self, k):
        pass_, f = divmod(k, self.frames)
        clean, gt = self._clean[f]
        target = add_gaussian_normal_noise(clean, self.noise_fraction, self._sigma,
                                           [self._seed, pass_, f])
        path = self._inputs / f"target_{pass_:03d}_{f:02d}.ply"
        save_ply(Surface(target.vertices, target.faces), path)
        return Case(k, self._inputs / "source.ply", path, gt, self.params,
                    self.rmse_ceiling, graph=self.graph, frame=self.frame)

    def done(self, k, result):
        if result is not None:
            self._state = result.final_state


class CloudOutliers(Workload):
    """Every registration gets its own outlier draw: the MM iteration count
    varies up to twofold between draws."""

    name = "cloud-outliers"
    why = ("400-vertex mesh to a 10 000-point cloud with 20% outliers, a new "
           "outlier draw per registration, graph built in each: graph build, "
           "closest-point queries, PCA normals, annealed MM")
    rmse_ceiling = 2e-2
    params = SolverParams(nu_a_min_factor=0.25)   # anneal one stage further
    grid = 20
    cloud_grid = 100
    outlier_fraction = 0.2
    outlier_offset = 5.0    # outlier displacement in target grid spacings

    def setup(self, rng, inputs):
        self._src = wavy_grid(self.grid, self.grid)
        dense = wavy_grid(self.cloud_grid, self.cloud_grid)
        self._twisted = compute_normals(Surface(analytic_twist(dense.vertices), dense.faces))
        self._gt = analytic_twist(self._src.vertices)
        self._seed = _noise_seed(rng)
        self._inputs = inputs
        self._cases = {}
        self.case(0)

    def _draw(self, k):
        n = self._twisted.n_vertices
        out = np.random.default_rng([self._seed, k]).choice(
            n, size=int(self.outlier_fraction * n), replace=False)
        cloud = self._twisted.vertices.copy()
        cloud[out] += (self.outlier_offset / (self.cloud_grid - 1)) * self._twisted.normals[out]
        target_path = self._inputs / f"target_{k}.ply"
        save_ply(Surface(cloud), target_path)
        # a cloud has no inherent orientation and rigid ICP rejects pairs
        # whose normals disagree, so the source winding is chosen to match
        # the PCA normals nrreg estimates for the cloud; the
        # cloud-normals-flipped probe records what happens otherwise
        source = self._src
        if not normals_agree(source, nrreg_mesh.load_surface(target_path)):
            source = Surface(source.vertices, source.faces[:, ::-1].copy())
        source_path = self._inputs / f"source_{k}.ply"
        save_ply(source, source_path)
        return Case(k, source_path, target_path, self._gt, self.params, self.rmse_ceiling)


WORKLOADS = {w.name: w for w in (TrackFrames, CloudOutliers)}
