"""Deformation-graph construction on a synthetic surface, step by step.

Builds a wavy grid mesh, computes on-surface (geodesic) distances with fast
marching, samples graph nodes two ways, and reports how the sampling radius
controls graph density.  Writes the node set as a PLY point cloud plus an
edge-list sidecar next to the other outputs.

Run:  python3 demos/01_graph_and_geodesics.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from nrreg.geodesic import geodesic_from
from nrreg.graph import (build_graph, dump_graph_ply, sample_nodes_farthest,
                         sample_nodes_pca)
from nrreg.mesh import Surface, compute_normals, mean_edge_length, save_ply


def make_surface(nx=30, ny=30, wavy=0.08):
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                         indexing="ij")
    z = wavy * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    verts = np.column_stack([xs.ravel(), ys.ravel(), z.ravel()])
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b = i * ny + j, (i + 1) * ny + j
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return compute_normals(Surface(verts, np.array(faces)))


def main(out_dir="demo_out"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    s = make_surface()
    l_bar = mean_edge_length(s)
    print(f"surface: {s.n_vertices} vertices, {len(s.faces)} faces, "
          f"mean edge length {l_bar:.4f}")

    # Geodesic distances respect the surface: compare the marching distance
    # from one corner to the opposite one against the straight-line chord.
    field = geodesic_from(s, 0)
    k = int(np.argmax(field.distances))
    far = int(field.indices[k])
    chord = np.linalg.norm(s.vertices[far] - s.vertices[0])
    print(f"farthest vertex {far}: geodesic {field.distances[k]:.4f} "
          f"vs Euclidean chord {chord:.4f} (the wave makes the surface longer)")

    # Node sampling at the default influence radius R = 5 * mean edge length.
    R = 5 * l_bar
    pca_nodes, _ = sample_nodes_pca(s, R)
    far_nodes, _ = sample_nodes_farthest(s, R)
    print(f"\nsampling at R = {R:.4f}:")
    print(f"  pca scan:       {len(pca_nodes)} nodes (separation >= R)")
    print(f"  farthest-point: {len(far_nodes)} nodes (denser: covers to R/2)")

    # Halving the radius roughly quadruples the node count on a 2D surface.
    for factor in (1.0, 0.5):
        n = len(sample_nodes_pca(s, factor * R)[0])
        print(f"  pca scan at {factor:.1f}R: {n} nodes")

    g = build_graph(s)
    w_per_point = np.diff(g.influence.indptr)
    print(f"\ngraph: {g.n_nodes} nodes, {len(g.node_edges)} edges; "
          f"each point influenced by {w_per_point.min()}-{w_per_point.max()} "
          f"nodes (mean {w_per_point.mean():.1f})")
    sums = np.asarray(g.influence.sum(axis=1)).ravel()
    print(f"weights sum to one per point: max deviation {np.abs(sums - 1).max():.2e}")

    save_ply(s, out / "surface.ply")
    dump_graph_ply(g, out / "graph_nodes.ply")
    print(f"\nwrote {out / 'surface.ply'} and {out / 'graph_nodes.ply'} "
          "(+ .edges.txt sidecar)")


if __name__ == "__main__":
    main(*sys.argv[1:])
