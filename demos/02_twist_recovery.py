"""Non-rigid registration of a known synthetic deformation.

Deforms a grid surface with a smooth per-node twist (so the exact answer is
representable by the deformation graph), then registers the undeformed source
back onto the deformed target and measures the recovery error against the
ground truth.  Also writes the annealing trace and an error-colored result
mesh.

Run:  python3 demos/02_twist_recovery.py [out_dir]
"""

import sys
import time
from pathlib import Path

import numpy as np

from nrreg.evaluate import rmse, synthesize_deformation
from nrreg.graph import build_graph
from nrreg.mesh import Surface, compute_normals, normalize_pair, write_error_mesh
from nrreg.solver import SolverParams, register

from importlib import import_module
sys.path.insert(0, str(Path(__file__).resolve().parent))
graph_demo = import_module("01_graph_and_geodesics")


def main(out_dir="demo_out"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    src = graph_demo.make_surface(nx=25, ny=25, wavy=0.05)
    g = build_graph(src)

    # Per-node ground truth: rotation about z growing linearly with x
    # (0 to 10 degrees) plus a small lift, blended through the graph.
    x = g.node_positions[:, 0]
    t01 = (x - x.min()) / np.ptp(x)
    angles = np.deg2rad(10.0) * t01
    c, s = np.cos(angles), np.sin(angles)
    rots = np.zeros((g.n_nodes, 3, 3))
    rots[:, 0, 0] = c; rots[:, 0, 1] = -s
    rots[:, 1, 0] = s; rots[:, 1, 1] = c
    rots[:, 2, 2] = 1.0
    trans = np.zeros((g.n_nodes, 3))
    trans[:, 2] = 0.02 * t01
    target, gt = synthesize_deformation(src, g, rots, trans)
    moved = np.linalg.norm(gt.gt_positions - src.vertices, axis=1)
    print(f"synthetic twist: max vertex displacement {moved.max():.4f}")

    # Registration runs in the normalized common frame; errors are reported
    # in normalized units (fractions of the combined bounding-box diagonal).
    s_n, t_n, rec = normalize_pair(src, target)
    s_n, t_n = compute_normals(s_n), compute_normals(t_n)
    params = SolverParams(k_alpha=7.0, k_beta=7.0,
                          nu_a_min_factor=0.25, nu_a_max_factor=2.0)
    t0 = time.perf_counter()
    res = register(s_n, t_n, params)
    print(f"registered in {time.perf_counter() - t0:.2f}s, "
          f"{len(res.energy_trace)} outer iterations over "
          f"{res.energy_trace[-1].stage + 1} annealing stages")
    for reason in res.termination_reasons:
        print(f"  {reason}")

    denorm = rec.denormalize(res.transformed_source, "target")
    err = rmse(denorm, gt) * rec.scale
    init_err = rmse(src.vertices, gt) * rec.scale
    print(f"\nrmse vs ground truth: {err:.3e} normalized "
          f"(before registration: {init_err:.3e})")

    res.write_trace_csv(out / "twist_trace.csv")
    write_error_mesh(Surface(denorm, src.faces),
                     np.linalg.norm(denorm - gt.gt_positions, axis=1),
                     out / "twist_result_error.ply")
    print(f"wrote {out / 'twist_trace.csv'} and "
          f"{out / 'twist_result_error.ply'} (blue = accurate, red = off)")


if __name__ == "__main__":
    main(*sys.argv[1:])
