from dataclasses import fields

import numpy as np
import pytest

from nrreg import mesh
from nrreg.cli import (EXIT_BAD_PATH, EXIT_OK, _merge_config, _read_config,
                       _solver_params, build_parser, main)
from nrreg.mesh import (Surface, compute_normals, load_ply, load_surface,
                        normalize_pair, save_ply)
from nrreg.solver import SolverParams, register

from conftest import grid_mesh
from oracles import save_obj_rows


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("meshes")
    s = grid_mesh(12, 12)
    save_obj_rows(s, d / "source.obj")
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


@pytest.mark.parametrize("flags", [
    ["--deform-angle", "8", "--radius-factor", "nan"],
    ["--deform-angle", "8", "--deform-translation", "-1"],
    ["--deform-angle", "nan"],
    ["--noise-fraction", "0.5", "--noise-sigma-factor", "nan"]])
def test_synth_malformed_number_is_typed_error(mesh_files, tmp_path, capsys, flags):
    d, _ = mesh_files
    out = tmp_path / "out"
    rc = main(["synth", "--source", str(d / "source.obj"), "--out", str(out)] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err
    assert not (out / "target.ply").exists()


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
    """Normals come from the normalized surfaces only, and a point-cloud
    target's PCA normals only at the rows rigid ICP reads: the estimator is
    given no row of the raw target, each row of the normalized target at
    most once, and fewer rows than the cloud has.  The outputs are those of
    a run that also estimated normals on the raw inputs and estimated every
    normal of the normalized target up front."""
    d, _ = mesh_files
    cloud = tmp_path / "cloud.ply"
    dense = grid_mesh(30, 30).vertices
    save_ply(Surface(dense + [0.0, 0.0, 0.05] * np.sin(3.0 * dense[:, :1])), cloud)
    _, normalized, _ = normalize_pair(load_surface(d / "source.obj"), load_surface(cloud))
    given = []
    pca = mesh._pca_normals

    def counted(points, k, rows, tree):
        assert np.array_equal(points, normalized.vertices)
        given.extend(rows.tolist())
        return pca(points, k, rows, tree)

    monkeypatch.setattr(mesh, "_pca_normals", counted)
    new = tmp_path / "new"
    assert main(["register", "--source", str(d / "source.obj"), "--target", str(cloud),
                 "--out", str(new)]) == EXIT_OK
    assert 0 < len(given) == len(set(given)) < normalized.n_vertices
    monkeypatch.undo()

    old = tmp_path / "old"
    old.mkdir()
    source = compute_normals(load_surface(d / "source.obj"))
    target = compute_normals(load_surface(cloud))
    src_n, tgt_n, rec = normalize_pair(source, target)
    tgt_n = Surface(tgt_n.vertices, normals=np.asarray(compute_normals(tgt_n).normals))
    result = register(compute_normals(src_n), tgt_n, SolverParams())
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


def test_ablate(mesh_files, tmp_path, capsys):
    d, _ = mesh_files
    inputs = ["--source", str(d / "source.obj"), "--target", str(d / "target.ply"),
              "--gt", str(d / "gt.ply")]
    rc = main(["ablate", *inputs, "--kernels", "welsch,l2", "--radius-factors", "5",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
    assert lines[0].startswith("kernel,radius_factor,fixed_nu")
    assert len(lines) == 3
    assert all(",ok" in ln for ln in lines[1:])

    # each cell's RMSE is the one nrreg register prints for it
    for line in lines[1:]:
        kernel, _, _, rmse = line.split(",")[:4]
        capsys.readouterr()
        assert main(["register", *inputs, "--kernel", kernel,
                     "--out", str(tmp_path / kernel)]) == EXIT_OK
        assert f"RMSE {rmse}\n" in capsys.readouterr().out


@pytest.mark.parametrize("line, modes", [
    ("fixed-nu = false", ["0"]), ("fixed-nu = yes", ["1"]),
    ("sweep-fixed-nu = no", ["0"]), ("sweep-fixed-nu = 1", ["0", "1"])])
def test_ablate_config_booleans(mesh_files, tmp_path, line, modes):
    d, _ = mesh_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["ablate", "--config", str(cfg), "--source", str(d / "source.obj"),
                 "--target", str(d / "target.ply"), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "ablation.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == modes


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = l2\nk-alpha = 0.5   # comment\nimax = 7\nfixed-nu = true\n")
    parsed = _read_config(cfg)
    assert parsed == {"kernel": "l2", "k_alpha": "0.5", "imax": "7",
                      "fixed_nu": "true"}
    params = _solver_params(_merge_config(build_parser().parse_args(
        ["register", "--config", str(cfg)])))
    assert params.kernel == "l2"
    assert params.k_alpha == 0.5
    assert params.i_max == 7
    assert params.fixed_nu is True

    merged = _merge_config(build_parser().parse_args(
        ["register", "--config", str(cfg), "--kernel", "welsch"]))
    assert merged["kernel"] == "welsch"      # flag wins
    assert merged["k_alpha"] == 0.5          # file value survives, typed


def test_config_out_is_not_overridden_by_a_default(mesh_files, tmp_path, monkeypatch):
    d, _ = mesh_files
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'from_config'}\n")
    assert main(["synth", "--config", str(cfg), "--source", str(d / "source.obj")]) == EXIT_OK
    assert (tmp_path / "from_config" / "target.ply").exists()
    assert not (tmp_path / "target.ply").exists()


@pytest.mark.parametrize("command", ["register", "ablate"])
@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("field", fields(SolverParams), ids=lambda f: f.name)
def test_every_solver_field_is_a_flag_and_a_config_key(tmp_path, command, how, field):
    name = "imax" if field.name == "i_max" else field.name
    kind = type(field.default)
    value = {"kernel": "l2", "sampler": "farthest", "fixed_nu": True}.get(
        field.name, field.default * 2)
    if how == "flag":
        argv = [command, "--" + name.replace("_", "-")] + ([] if kind is bool else [str(value)])
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {'yes' if kind is bool else value}\n")
        argv = [command, "--config", str(cfg)]
    params = _solver_params(_merge_config(build_parser().parse_args(argv)))
    got = getattr(params, field.name)
    assert got == value and got != field.default and type(got) is kind


def test_config_run_writes_the_library_outputs(mesh_files, tmp_path):
    """A config file plus flags runs exactly the SolverParams they name."""
    d, s = mesh_files
    bent = tmp_path / "bent.ply"
    save_ply(Surface(s.vertices + [0.0, 0.0, 0.05] * np.sin(3.0 * s.vertices[:, :1]),
                     s.faces), bent)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = l2\nk-alpha = 0.5   # comment\nimax = 7\nnu_r_max_factor = 30\n")
    new = tmp_path / "new"
    assert main(["register", "--config", str(cfg), "--source", str(d / "source.obj"),
                 "--target", str(bent), "--sampler", "farthest", "--k-beta", "2",
                 "--fixed-nu", "--out", str(new)]) == EXIT_OK

    old = tmp_path / "old"
    old.mkdir()
    params = SolverParams(kernel="l2", k_alpha=0.5, i_max=7, nu_r_max_factor=30.0,
                          sampler="farthest", k_beta=2.0, fixed_nu=True)
    source = load_surface(d / "source.obj")
    src_n, tgt_n, rec = normalize_pair(source, load_surface(bent))
    result = register(compute_normals(src_n), compute_normals(tgt_n), params)
    save_ply(Surface(rec.denormalize(result.transformed_source, "target"), source.faces),
             old / "result.ply")
    result.write_trace_csv(old / "trace.csv")
    for name in ("result.ply", "trace.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes()


@pytest.mark.parametrize("line", ["kernel = l1", "sampler = grid", "k_alfa = 5"])
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


@pytest.mark.parametrize("flags", [
    ["--imax", "0"], ["--radius-factor", "0"], ["--k-alpha", "-1"], ["--k-beta", "-1"],
    ["--m", "0"], ["--k-beta", "inf"], ["--k-alpha", "inf"], ["--eps1", "nan"],
    ["--eps2", "nan"], ["--nu-a-max-factor", "nan"], ["--nu-r-max-factor", "nan"],
    ["--nu-r-max-factor", "0"], ["--radius-factor", "inf"], ["--icp-iters", "-5"]])
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


@pytest.mark.parametrize("line", ["k-alpha = abc", "imax = 7.5", "fixed-nu = maybe",
                                  "sweep-fixed-nu = 2", "radius-factors = 4,x"])
def test_config_bad_value_fails_before_loading(mesh_files, tmp_path, capsys,
                                               monkeypatch, line):
    d, _ = mesh_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")

    def no_load(*args, **kwargs):
        raise AssertionError("a mesh was loaded")

    monkeypatch.setattr("nrreg.cli.load_surface", no_load)
    rc = main(["ablate", "--config", str(cfg), "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.split()[0].replace("-", "_") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth", "--kernel", "l2"], ["synth", "--gamma", "0.9"], ["synth", "--imax", "3"],
    ["synth", "--gt", "gt.ply"], ["register", "--seed", "1"], ["ablate", "--seed", "1"]])
def test_options_a_command_does_not_read_are_rejected(mesh_files, tmp_path, argv):
    d, _ = mesh_files
    inputs = ["--source", str(d / "source.obj"), "--out", str(tmp_path)]
    if argv[0] != "synth":
        inputs += ["--target", str(d / "target.ply")]
    with pytest.raises(SystemExit) as exc:
        main(argv + inputs)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_register_gt_count_mismatch_fails_before_solving(mesh_files, tmp_path, capsys):
    d, _ = mesh_files
    small = tmp_path / "small_gt.ply"
    save_ply(grid_mesh(5, 5), small)
    out = tmp_path / "out"
    rc = main(["register", "--source", str(d / "source.obj"),
               "--target", str(d / "target.ply"), "--gt", str(small), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(small) in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


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
