"""Smoke test of the demos: each one runs end to end and writes its outputs."""

import importlib
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
