"""Smoke test of the demos: each one runs end to end and writes its outputs.
So does the README's library quick start."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from nrreg import GroundTruth, Surface, rmse, save_ply

from conftest import grid_mesh, rot_z
from oracles import save_obj_rows

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name, outputs", [
    ("01_graph_and_geodesics",
     ["surface.ply", "graph_nodes.ply", "graph_nodes.ply.edges.txt"]),
    ("02_twist_recovery", ["twist_trace.csv", "twist_result_error.ply"]),
    ("03_robust_vs_l2", []),
])
def test_demo_runs(name, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(DEMOS))
    importlib.import_module(name).main(tmp_path)
    printed = capsys.readouterr().out
    assert printed
    for f in outputs:
        assert (tmp_path / f).stat().st_size > 0
    if name == "03_robust_vs_l2":
        # one row per corruption: welsch error, l2 error, ratio
        assert "outliers" in printed and "noise" in printed


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """The README's "Library quick start" block, run as written on an OBJ
    source and a PLY target, aligns the source to the target."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    source = grid_mesh(8, 8)
    target = Surface(source.vertices @ rot_z(0.1).T + [0.0, 0.0, 0.05], source.faces)
    save_obj_rows(source, tmp_path / "source.obj")
    save_ply(target, tmp_path / "target.ply")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    aligned = scope["aligned"]
    assert aligned.shape == source.vertices.shape and np.isfinite(aligned).all()
    assert rmse(aligned, GroundTruth(target.vertices)) < 1e-9
