"""Command-line pipeline: register, synth, ablate.

A run can be described by flags, by a flat ``key = value`` config file, or
both (flags override the file).  All outputs land in ``--out``; on failure,
partially written outputs are removed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import traceback

import numpy as np

from . import evaluate, mesh
from .energy import KERNELS
from .errors import NrregError
from .graph import SAMPLERS, build_graph
from .mesh import (Surface, compute_normals, load_surface, mean_edge_length,
                   normalize_pair, save_ply, write_error_mesh)
from .solver import SolverParams, register

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_PATH = 2


def _read_config(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise NrregError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


def _add_common_flags(p):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--source", help="source surface (OBJ or PLY)")
    p.add_argument("--target", help="target surface (OBJ or PLY)")
    p.add_argument("--gt", help="ground-truth deformed positions (PLY)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--kernel", choices=KERNELS, default=None)
    p.add_argument("--sampler", choices=SAMPLERS, default=None)
    p.add_argument("--radius-factor", type=float, default=None)
    p.add_argument("--k-alpha", type=float, default=None)
    p.add_argument("--k-beta", type=float, default=None)
    p.add_argument("--nu-a-max-factor", type=float, default=None)
    p.add_argument("--nu-a-min-factor", type=float, default=None)
    p.add_argument("--nu-r-max-factor", type=float, default=None)
    p.add_argument("--fixed-nu", action="store_true", default=None)
    p.add_argument("--eps-d", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eps1", type=float, default=None)
    p.add_argument("--eps2", type=float, default=None)
    p.add_argument("--imax", type=int, default=None)


_PARAM_FIELDS = {
    "kernel": str, "sampler": str, "radius_factor": float,
    "k_alpha": float, "k_beta": float,
    "nu_a_max_factor": float, "nu_a_min_factor": float,
    "nu_r_max_factor": float, "fixed_nu": lambda v: str(v).lower() in ("1", "true", "yes"),
    "eps_d": float, "theta": float,
    "m": int, "gamma": float, "eps1": float, "eps2": float, "imax": int,
}

_PARAM_TO_SOLVER = {"imax": "i_max"}


def _merge_config(args):
    """File values first, then command-line overrides; returns a flat dict."""
    merged = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise FileNotFoundError(args.config)
        merged.update(_read_config(args.config))
    for key in vars(args):
        val = getattr(args, key)
        if val is not None and key not in ("config", "func"):
            merged[key] = val
    return merged


def _solver_params(cfg):
    kwargs = {}
    for key, conv in _PARAM_FIELDS.items():
        if key in cfg:
            kwargs[_PARAM_TO_SOLVER.get(key, key)] = conv(cfg[key])
    return SolverParams(**kwargs)


def _require_path(cfg, key):
    path = cfg.get(key)
    if not path:
        raise NrregError(f"missing required option --{key}")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return path


class _OutputSet:
    """Tracks written files so failures can clean up partial output."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.paths = []

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def cleanup(self):
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)


def cmd_register(args):
    cfg = _merge_config(args)
    src_path = _require_path(cfg, "source")
    tgt_path = _require_path(cfg, "target")
    gt_path = cfg.get("gt")
    if gt_path and not os.path.exists(gt_path):
        raise FileNotFoundError(gt_path)
    params = _solver_params(cfg)

    source = load_surface(src_path)
    target = load_surface(tgt_path)
    src_n, tgt_n, rec = normalize_pair(source, target)
    src_n = compute_normals(src_n)
    tgt_n = compute_normals(tgt_n)

    out = _OutputSet(cfg.get("out", "."))
    try:
        t0 = time.perf_counter()
        result = register(src_n, tgt_n, params)
        elapsed = time.perf_counter() - t0

        deformed = rec.denormalize(result.transformed_source, "target")
        out_surface = Surface(deformed,
                              None if source.faces is None else source.faces.copy())
        save_ply(out_surface, out.path("result.ply"))
        result.write_trace_csv(out.path("trace.csv"))
        result.write_trace_csv(out.path("timing.csv"), include_timing=True)

        print(f"registered {src_path} -> {tgt_path} in {elapsed:.2f}s "
              f"({len(result.energy_trace)} outer iterations)")

        if gt_path:
            gt = evaluate.GroundTruth(load_surface(gt_path).vertices)
            err = np.linalg.norm(deformed - gt.gt_positions, axis=1)
            value = evaluate.rmse(deformed, gt)
            print(f"RMSE {value:.9g}")
            write_error_mesh(out_surface, err, out.path("error.ply"))
        return EXIT_OK
    except Exception:
        out.cleanup()
        raise


def cmd_synth(args):
    cfg = _merge_config(args)
    src_path = _require_path(cfg, "source")
    source = compute_normals(load_surface(src_path))
    seed = int(cfg.get("seed", 0))
    out = _OutputSet(cfg.get("out", "."))
    try:
        target = source
        gt = evaluate.GroundTruth(source.vertices.copy())

        max_angle = float(cfg.get("deform_angle", 0.0))
        if max_angle > 0.0:
            l_bar = mean_edge_length(source)
            g = build_graph(source, R=float(cfg.get("radius_factor", 5.0)) * l_bar)
            rots, trans = evaluate.random_node_rotations(
                g, max_angle, rng_seed=seed,
                translation_scale=float(cfg.get("deform_translation", 0.0)))
            target, gt = evaluate.synthesize_deformation(source, g, rots, trans)

        frac = float(cfg.get("noise_fraction", 0.0))
        sigma_factor = float(cfg.get("noise_sigma_factor", 0.0))
        if frac > 0.0 and sigma_factor > 0.0:
            if target.normals is None:
                target = compute_normals(target)
            sigma = sigma_factor * mean_edge_length(target)
            target = evaluate.add_gaussian_normal_noise(target, frac, sigma,
                                                        rng_seed=seed)

        radius = float(cfg.get("remove_radius", 0.0))
        if radius > 0.0:
            target, _ = evaluate.remove_region(
                target, int(cfg.get("remove_seed", 0)), radius)

        save_ply(target, out.path("target.ply"))
        gt.save_ply(out.path("gt.ply"))
        print(f"wrote synthetic target ({target.n_vertices} vertices) and ground truth")
        return EXIT_OK
    except Exception:
        out.cleanup()
        raise


def cmd_ablate(args):
    cfg = _merge_config(args)
    _require_path(cfg, "source")
    _require_path(cfg, "target")
    gt_path = cfg.get("gt")

    kernels = str(cfg.get("kernels", cfg.get("kernel", "welsch"))).split(",")
    radii = [float(x) for x in str(cfg.get("radius_factors",
                                           cfg.get("radius_factor", "5"))).split(",")]
    nu_modes = [False, True] if cfg.get("sweep_fixed_nu") else [bool(cfg.get("fixed_nu", False))]

    out = _OutputSet(cfg.get("out", "."))
    rows = []
    for kernel in kernels:
        for rf in radii:
            for fixed in nu_modes:
                cell = dict(cfg)
                cell["kernel"] = kernel.strip()
                cell["radius_factor"] = rf
                cell["fixed_nu"] = fixed
                cell["out"] = os.path.join(
                    cfg.get("out", "."),
                    f"cell_{kernel.strip()}_r{rf:g}_{'fixed' if fixed else 'anneal'}")
                row = {"kernel": kernel.strip(), "radius_factor": rf,
                       "fixed_nu": int(fixed)}
                try:
                    t0 = time.perf_counter()
                    ns = argparse.Namespace(**{**{k: None for k in vars(args)}, **cell})
                    ns.config = None
                    cmd_register(ns)
                    row["seconds"] = round(time.perf_counter() - t0, 3)
                    row["rmse"] = _cell_rmse(cell, gt_path)
                    row["status"] = "ok"
                except Exception as exc:   # record the failed cell, keep going
                    row["seconds"] = ""
                    row["rmse"] = ""
                    row["status"] = f"failed: {exc}"
                rows.append(row)

    with open(out.path("ablation.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["kernel", "radius_factor",
                                                "fixed_nu", "rmse", "seconds",
                                                "status"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} ablation cells")
    return EXIT_OK


def _cell_rmse(cell, gt_path):
    if not gt_path:
        return ""
    result = load_surface(os.path.join(cell["out"], "result.ply"))
    gt = evaluate.GroundTruth(load_surface(gt_path).vertices)
    return f"{evaluate.rmse(result.vertices, gt):.9g}"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nrreg",
        description="Robust non-rigid surface registration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reg = sub.add_parser("register", help="align a source surface to a target")
    _add_common_flags(p_reg)
    p_reg.set_defaults(func=cmd_register)

    p_syn = sub.add_parser("synth", help="generate corrupted targets + ground truth")
    _add_common_flags(p_syn)
    p_syn.add_argument("--deform-angle", type=float, default=None,
                       help="max per-node rotation angle in degrees")
    p_syn.add_argument("--deform-translation", type=float, default=None,
                       help="std-dev of random per-node translations")
    p_syn.add_argument("--noise-fraction", type=float, default=None)
    p_syn.add_argument("--noise-sigma-factor", type=float, default=None,
                       help="noise std-dev as a multiple of mean edge length")
    p_syn.add_argument("--remove-seed", type=int, default=None)
    p_syn.add_argument("--remove-radius", type=float, default=None)
    p_syn.set_defaults(func=cmd_synth)

    p_abl = sub.add_parser("ablate", help="run a matrix of configurations")
    _add_common_flags(p_abl)
    p_abl.add_argument("--kernels", help="comma-separated kernel list")
    p_abl.add_argument("--radius-factors", help="comma-separated radius sweep")
    p_abl.add_argument("--sweep-fixed-nu", action="store_true", default=None)
    p_abl.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return EXIT_BAD_PATH
    except NrregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
