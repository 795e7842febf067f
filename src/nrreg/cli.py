"""Command-line pipeline: register, synth, ablate.

Each subcommand has one table of options.  An option is a ``--flag`` and a
key of the flat ``key = value`` config file given by ``--config``: the key
is the flag's name, with ``-`` or ``_``, and its value goes through the
option's conversion.  The solver's options are the fields of
:class:`SolverParams`, typed by their defaults (``i_max`` is spelled
``imax``).  Flags override the file.  A key the subcommand has no option
for, a boolean other than ``1/true/yes/0/false/no`` and a value that does
not convert fail with an ``NrregError`` before any mesh is loaded.  All
outputs land in ``--out``; on failure, partially written outputs are
removed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import time
import traceback
from dataclasses import fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import evaluate
from .energy import KERNELS
from .errors import InvalidInputError, NrregError, check_number
from .graph import SAMPLERS, build_graph
from .mesh import (Surface, compute_normals, load_surface, mean_edge_length,
                   normalize_pair, save_ply, write_error_mesh)
from .solver import SolverParams, register

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_PATH = 2


def _bool(text):
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"{text!r} is not one of 1/true/yes/0/false/no")


def _floats(text):
    return [float(x) for x in text.split(",")]


def _names(text):
    return [x.strip() for x in text.split(",")]


class _Option(NamedTuple):
    key: str          # run-config and config-file key; the flag is --key, '-' for '_'
    kind: Callable    # converts a config value, or a flag's argument
    help: Optional[str] = None
    choices: Optional[tuple] = None


# one option per SolverParams field; i_max keeps its CLI spelling imax
_SOLVER = [_Option({"i_max": "imax"}.get(f.name, f.name),
                   _bool if isinstance(f.default, bool) else type(f.default),
                   choices={"kernel": KERNELS, "sampler": SAMPLERS}.get(f.name))
           for f in fields(SolverParams)]
_SOURCE = _Option("source", str, "source surface (OBJ or PLY)")
_TARGET = _Option("target", str, "target surface (OBJ or PLY)")
_GT = _Option("gt", str, "ground-truth deformed positions (PLY)")
_OUT = _Option("out", str, "output directory")

_OPTIONS = {
    "register": [_SOURCE, _TARGET, _GT, _OUT, *_SOLVER],
    "synth": [
        _SOURCE, _OUT, _Option("seed", int), _Option("radius_factor", float),
        _Option("deform_angle", float, "max per-node rotation angle in degrees"),
        _Option("deform_translation", float, "std-dev of random per-node translations"),
        _Option("noise_fraction", float),
        _Option("noise_sigma_factor", float,
                "noise std-dev as a multiple of mean edge length"),
        _Option("remove_seed", int), _Option("remove_radius", float)],
    "ablate": [
        _SOURCE, _TARGET, _GT, _OUT, *_SOLVER,
        _Option("kernels", _names, "comma-separated kernel list"),
        _Option("radius_factors", _floats, "comma-separated radius sweep"),
        _Option("sweep_fixed_nu", _bool)],
}


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


def _merge_config(args):
    """The run config of parsed ``args``: the config file's values, typed by
    their options, then the flags given over them; keyed by option key."""
    options = {opt.key: opt for opt in _OPTIONS[args.command]}
    merged = {}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(args.config)
        for key, text in _read_config(args.config).items():
            if key not in options:
                raise NrregError(f"unknown {key} in {args.config}: "
                                 f"nrreg {args.command} has no such option")
            try:
                merged[key] = options[key].kind(text)
            except ValueError as exc:
                raise NrregError(f"{args.config}: {key}: {exc}") from None
    merged.update((key, getattr(args, key)) for key in options
                  if getattr(args, key) is not None)
    return merged


def _solver_params(cfg):
    return SolverParams(**{f.name: cfg[opt.key] for f, opt in zip(fields(SolverParams), _SOLVER)
                           if opt.key in cfg})


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


def _register(cfg):
    """Register the source to the target and write the outputs; returns the
    RMSE against the ground truth, or None without one."""
    src_path = _require_path(cfg, "source")
    tgt_path = _require_path(cfg, "target")
    gt_path = _require_path(cfg, "gt") if cfg.get("gt") else None
    params = _solver_params(cfg)

    source = load_surface(src_path)
    target = load_surface(tgt_path)
    if gt_path:
        gt = evaluate.GroundTruth(load_surface(gt_path).vertices)
        if len(gt.gt_positions) != source.n_vertices:
            raise InvalidInputError(
                f"{gt_path}: {len(gt.gt_positions)} ground-truth positions "
                f"for {source.n_vertices} source vertices")
    src_n, tgt_n, rec = normalize_pair(source, target)
    src_n = compute_normals(src_n)
    tgt_n = compute_normals(tgt_n)

    out = _OutputSet(cfg.get("out", "."))
    try:
        t0 = time.perf_counter()
        result = register(src_n, tgt_n, params)
        elapsed = time.perf_counter() - t0

        deformed = rec.denormalize(result.transformed_source, "target")
        out_surface = Surface(deformed, source.faces)
        save_ply(out_surface, out.path("result.ply"))
        result.write_trace_csv(out.path("trace.csv"))
        result.write_trace_csv(out.path("timing.csv"), include_timing=True)

        print(f"registered {src_path} -> {tgt_path} in {elapsed:.2f}s "
              f"({len(result.energy_trace)} outer iterations)")

        if not gt_path:
            return None
        err = np.linalg.norm(deformed - gt.gt_positions, axis=1)
        value = evaluate.rmse(deformed, gt)
        print(f"RMSE {value:.9g}")
        write_error_mesh(out_surface, err, out.path("error.ply"))
        return value
    except Exception:
        out.cleanup()
        raise


def _synth(cfg):
    # the graph radius is checked by build_graph
    for key in ("deform_angle", "deform_translation", "noise_fraction",
                "noise_sigma_factor", "remove_radius"):
        check_number(key, cfg.get(key, 0.0), lambda v: 0.0 <= v < np.inf,
                     "finite and non-negative")
    src_path = _require_path(cfg, "source")
    source = compute_normals(load_surface(src_path))
    seed = cfg.get("seed", 0)
    out = _OutputSet(cfg.get("out", "."))
    try:
        target = source
        gt = evaluate.GroundTruth(source.vertices)

        max_angle = cfg.get("deform_angle", 0.0)
        if max_angle > 0.0:
            l_bar = mean_edge_length(source)
            g = build_graph(source, R=cfg.get("radius_factor", SolverParams.radius_factor) * l_bar)
            rots, trans = evaluate.random_node_rotations(
                g, max_angle, rng_seed=seed,
                translation_scale=cfg.get("deform_translation", 0.0))
            target, gt = evaluate.synthesize_deformation(source, g, rots, trans)

        frac = cfg.get("noise_fraction", 0.0)
        sigma_factor = cfg.get("noise_sigma_factor", 0.0)
        if frac > 0.0 and sigma_factor > 0.0:
            if target.normals is None:
                target = compute_normals(target)
            sigma = sigma_factor * mean_edge_length(target)
            target = evaluate.add_gaussian_normal_noise(target, frac, sigma,
                                                        rng_seed=seed)

        radius = cfg.get("remove_radius", 0.0)
        if radius > 0.0:
            target, _ = evaluate.remove_region(target, cfg.get("remove_seed", 0), radius)

        save_ply(target, out.path("target.ply"))
        gt.save_ply(out.path("gt.ply"))
        print(f"wrote synthetic target ({target.n_vertices} vertices) and ground truth")
    except Exception:
        out.cleanup()
        raise


def _ablate(cfg):
    _require_path(cfg, "source")
    _require_path(cfg, "target")
    kernels = cfg.get("kernels", [cfg.get("kernel", SolverParams.kernel)])
    radii = cfg.get("radius_factors", [cfg.get("radius_factor", SolverParams.radius_factor)])
    nu_modes = [False, True] if cfg.get("sweep_fixed_nu") else [cfg.get("fixed_nu", False)]

    out_dir = cfg.get("out", ".")
    out = _OutputSet(out_dir)
    rows = []
    for kernel, rf, fixed in itertools.product(kernels, radii, nu_modes):
        cell = f"cell_{kernel}_r{rf:g}_{'fixed' if fixed else 'anneal'}"
        row = {"kernel": kernel, "radius_factor": rf, "fixed_nu": int(fixed),
               "rmse": "", "seconds": ""}
        try:
            t0 = time.perf_counter()
            rmse = _register({**cfg, "kernel": kernel, "radius_factor": rf,
                              "fixed_nu": fixed, "out": os.path.join(out_dir, cell)})
            row["seconds"] = round(time.perf_counter() - t0, 3)
            row["rmse"] = "" if rmse is None else f"{rmse:.9g}"
            row["status"] = "ok"
        except Exception as exc:   # record the failed cell, keep going
            row["status"] = f"failed: {exc}"
        rows.append(row)

    with open(out.path("ablation.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["kernel", "radius_factor",
                                                "fixed_nu", "rmse", "seconds",
                                                "status"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} ablation cells")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nrreg",
        description="Robust non-rigid surface registration")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("register", _register, "align a source surface to a target"),
            ("synth", _synth, "generate corrupted targets + ground truth"),
            ("ablate", _ablate, "run a matrix of configurations")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key=value config file; flags override")
        for opt in _OPTIONS[command]:
            kind = (dict(action="store_true", default=None) if opt.kind is _bool
                    else dict(type=opt.kind, choices=opt.choices))
            p.add_argument("--" + opt.key.replace("_", "-"), help=opt.help, **kind)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(_merge_config(args))
        return EXIT_OK
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
