import numpy as np
import pytest

from nrreg import mesh
from nrreg.cli import (EXIT_BAD_PATH, EXIT_OK, _merge_config, _read_config,
                       _solver_params, main)
from nrreg.mesh import (Surface, compute_normals, load_ply, load_surface,
                        normalize_pair, save_obj, save_ply)
from nrreg.solver import SolverParams, register

from conftest import grid_mesh


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("meshes")
    s = grid_mesh(12, 12)
    save_obj(s, d / "source.obj")
    save_ply(s, d / "target.ply")
    save_ply(s, d / "gt.ply")
    return d, s


def test_register_self(mesh_files, tmp_path, capsys):
    d, s = mesh_files
    rc = main(["register", "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"),
               "--gt", str(d / "gt.ply"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "RMSE" in out
    value = float(out.split("RMSE")[1].split()[0])
    assert value < 1e-6
    result = load_ply(tmp_path / "result.ply")
    assert result.n_vertices == s.n_vertices
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "timing.csv").exists()
    assert (tmp_path / "error.ply").exists()


def test_register_missing_path_exit_2(tmp_path):
    rc = main(["register", "--source", str(tmp_path / "none.obj"),
               "--target", str(tmp_path / "none.ply")])
    assert rc == EXIT_BAD_PATH


def test_register_missing_flag_exit_1(mesh_files):
    d, _ = mesh_files
    rc = main(["register", "--source", str(d / "source.obj")])
    assert rc == 1


def test_register_nan_vertex_is_typed_error(mesh_files, tmp_path, capsys):
    d, _ = mesh_files
    bad = tmp_path / "nan.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                   "property float x\nproperty float y\nproperty float z\n"
                   "end_header\n0 0 0\n1 nan 0\n0 1 0\n")
    rc = main(["register", "--source", str(bad), "--target", str(d / "target.ply"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err
    assert "Traceback" not in err


def test_register_truncated_ply_is_typed_error(mesh_files, tmp_path, capsys):
    d, _ = mesh_files
    bad = tmp_path / "truncated.ply"
    bad.write_bytes((d / "target.ply").read_bytes()[:-40])
    rc = main(["register", "--source", str(d / "source.obj"), "--target", str(bad),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_register_estimates_normals_once_per_input(mesh_files, tmp_path, monkeypatch):
    """Normals come from the normalized surfaces only: a point-cloud target
    gets one PCA estimate, and the outputs are those of a run that also
    estimated normals on the raw inputs."""
    d, s = mesh_files
    cloud = tmp_path / "cloud.ply"
    bent = s.vertices + [0.0, 0.0, 0.05] * np.sin(3.0 * s.vertices[:, :1])
    save_ply(Surface(bent), cloud)
    calls = []
    pca = mesh._pca_normals
    monkeypatch.setattr(mesh, "_pca_normals", lambda *a, **k: calls.append(1) or pca(*a, **k))
    new = tmp_path / "new"
    assert main(["register", "--source", str(d / "source.obj"), "--target", str(cloud),
                 "--out", str(new)]) == EXIT_OK
    assert len(calls) == 1

    old = tmp_path / "old"
    old.mkdir()
    source = compute_normals(load_surface(d / "source.obj"))
    target = compute_normals(load_surface(cloud))
    src_n, tgt_n, rec = normalize_pair(source, target)
    result = register(compute_normals(src_n), compute_normals(tgt_n), SolverParams())
    save_ply(Surface(rec.denormalize(result.transformed_source, "target"), source.faces),
             old / "result.ply")
    result.write_trace_csv(old / "trace.csv")
    for name in ("result.ply", "trace.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes()


def test_register_determinism(mesh_files, tmp_path):
    d, _ = mesh_files
    args = ["register", "--source", str(d / "source.obj"),
            "--target", str(d / "target.ply")]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_synth_deform_and_remove(mesh_files, tmp_path):
    d, s = mesh_files
    rc = main(["synth", "--source", str(d / "source.obj"),
               "--deform-angle", "8", "--seed", "3",
               "--out", str(tmp_path / "full")])
    assert rc == EXIT_OK
    tgt = load_ply(tmp_path / "full" / "target.ply")
    gt = load_ply(tmp_path / "full" / "gt.ply")
    assert tgt.n_vertices == s.n_vertices
    assert gt.n_vertices == s.n_vertices
    assert not np.allclose(tgt.vertices, s.vertices)

    rc = main(["synth", "--source", str(d / "source.obj"),
               "--remove-seed", "70", "--remove-radius", "0.25",
               "--out", str(tmp_path / "partial")])
    assert rc == EXIT_OK
    part = load_ply(tmp_path / "partial" / "target.ply")
    assert part.n_vertices < s.n_vertices


def test_synth_noise(mesh_files, tmp_path):
    d, s = mesh_files
    rc = main(["synth", "--source", str(d / "source.obj"),
               "--noise-fraction", "0.5", "--noise-sigma-factor", "1.0",
               "--seed", "11", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    tgt = load_ply(tmp_path / "target.ply")
    moved = np.any(~np.isclose(tgt.vertices, s.vertices, atol=1e-7), axis=1)
    assert 0.3 < moved.mean() <= 0.5


def test_ablate(mesh_files, tmp_path):
    d, _ = mesh_files
    rc = main(["ablate", "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"),
               "--gt", str(d / "gt.ply"),
               "--kernels", "welsch,l2", "--radius-factors", "5",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
    assert lines[0].startswith("kernel,radius_factor,fixed_nu")
    assert len(lines) == 3
    assert all(",ok" in ln for ln in lines[1:])


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = l2\nk-alpha = 0.5   # comment\nimax = 7\nfixed-nu = true\n")
    parsed = _read_config(cfg)
    assert parsed == {"kernel": "l2", "k_alpha": "0.5", "imax": "7",
                      "fixed_nu": "true"}
    params = _solver_params(parsed)
    assert params.kernel == "l2"
    assert params.k_alpha == 0.5
    assert params.i_max == 7
    assert params.fixed_nu is True

    import argparse
    ns = argparse.Namespace(config=str(cfg), kernel="welsch", k_alpha=None)
    merged = _merge_config(ns)
    assert merged["kernel"] == "welsch"      # flag wins
    assert merged["k_alpha"] == "0.5"        # file value survives


@pytest.mark.parametrize("line", ["kernel = l1", "sampler = grid"])
def test_config_unknown_choice_fails_before_loading(mesh_files, tmp_path, capsys,
                                                    monkeypatch, line):
    d, _ = mesh_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")

    def no_load(*args, **kwargs):
        raise AssertionError("a mesh was loaded")

    monkeypatch.setattr("nrreg.cli.load_surface", no_load)
    rc = main(["register", "--config", str(cfg), "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown " + line.split()[0])
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--imax", "0"], ["--radius-factor", "0"],
                                   ["--k-alpha", "-1"], ["--k-beta", "-1"], ["--m", "0"]])
def test_out_of_range_param_fails_before_loading(mesh_files, tmp_path, capsys,
                                                 monkeypatch, flags):
    d, _ = mesh_files

    def no_load(*args, **kwargs):
        raise AssertionError("a mesh was loaded")

    monkeypatch.setattr("nrreg.cli.load_surface", no_load)
    rc = main(["register", "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"), "--out", str(tmp_path / "out")] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err


def test_config_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel welsch\n")
    from nrreg.errors import NrregError
    with pytest.raises(NrregError):
        _read_config(cfg)


def test_failed_run_cleans_outputs(mesh_files, tmp_path):
    d, _ = mesh_files
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    out = tmp_path / "out"
    rc = main(["register", "--source", str(d / "source.obj"),
               "--target", str(bad), "--out", str(out)])
    assert rc == 1
    assert not any(out.iterdir()) if out.exists() else True
