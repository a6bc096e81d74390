import ast
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from chiralmeta import cli, np_spectral
from chiralmeta.background import ChiralBackground
from chiralmeta.cli import fmt, main, write_csv, write_field_csv, write_json
from chiralmeta.effective import effective_closed_form
from chiralmeta.mesh import icosphere

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBES_CSV = """x,y,z
3.5,0.5,0.5
0.5,3.5,0.5
0.5,0.5,-2.5
-2.0,1.5,2.0
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def write_off(path, vertices, triangles):
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [" ".join(repr(float(v)) for v in row) for row in vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in row) for row in triangles]
    return write(path, "\n".join(lines) + "\n")


@pytest.fixture()
def decompositions(monkeypatch):
    """An empty spectrum memo, and the mode_count of every spectral_decomposition call."""
    monkeypatch.setattr(np_spectral, "_MEMO", OrderedDict())
    calls = []
    decompose = np_spectral.spectral_decomposition

    def counted(S, K, mesh, mode_count, orbits=None):
        calls.append(mode_count)
        return decompose(S, K, mesh, mode_count, orbits)

    monkeypatch.setattr(np_spectral, "spectral_decomposition", counted)
    return calls


def declared_scripts():
    """The [project.scripts] table of pyproject.toml as {name: "module:attr"}.

    Read line by line rather than with tomllib, which Python 3.10 lacks.
    """
    scripts, inside = {}, False
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_cli_help_subprocess():
    out = subprocess.run([sys.executable, "-m", "chiralmeta.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "eff-sweep" in out.stdout


def test_console_script_help():
    # the installed script, wherever one is on PATH
    if shutil.which("chiralmeta") is not None:
        out = subprocess.run(["chiralmeta", "--help"], capture_output=True, text=True)
        assert out.returncode == 0
    # the declared entry point, run the way pip's generated wrapper runs it:
    # import module:attr, call it with no arguments so it reads sys.argv
    module, attr = declared_scripts()["chiralmeta"].split(":")
    wrapper = ("import sys\n"
               f"from {module} import {attr}\n"
               "sys.argv[0] = 'chiralmeta'\n"
               f"sys.exit({attr}())\n")
    out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: chiralmeta")


def test_import_loads_only_scipy_linalg():
    # A fresh interpreter with the source tree on PYTHONPATH, as every CLI
    # invocation starts: importing the CLI may load scipy.linalg, and no
    # other scipy subpackage, so start-up pays for no module it does not use.
    code = ("import sys, chiralmeta.cli\n"
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "scipy.linalg" in loaded
    for sub in ("optimize", "fft", "spatial", "sparse", "special"):
        assert not [m for m in loaded if m.split(".")[1] == sub], sub


def test_preset_right_panel(tmp_path, capsys):
    rc = main(["eff-sweep", "--preset", "figure1-right", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "eff_sweep.csv")
    assert header.startswith("eps_c,re_eps_eff")
    # achiral sweep: permeability stays at the background value everywhere
    mu_re = np.array([float(r[3]) for r in rows])
    mu_im = np.array([float(r[4]) for r in rows])
    assert np.abs(mu_re - 1.0).max() < 1e-10
    assert np.abs(mu_im).max() < 1e-10
    summary = json.loads((tmp_path / "eff_sweep_summary.json").read_text())
    assert abs(summary["resonance_abscissa"] - (-2.0)) < 1e-4
    assert summary["resonance_peak_magnitude"] > 1e2
    assert summary["double_negative_count"] == 0


def test_preset_left_panel(tmp_path, capsys):
    rc = main(["eff-sweep", "--preset", "figure1-left", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "eff_sweep_summary.json").read_text())
    assert summary["double_negative_count"] > 0
    assert summary["double_negative_min"] < summary["double_negative_max"]
    assert summary["reference_abscissa"] == -2.94455
    assert "abscissa_deviation" in summary
    # the grid hits the permeability zero crossing at exactly one point
    assert len(summary["failed_points"]) <= 1
    header, rows = read_csv(tmp_path / "eff_sweep.csv")
    assert any(r[5] == "true" for r in rows)
    assert all(r[6] == "true" for r in rows)  # k*beta > 1 flagged on every row


def test_rerun_byte_identical_sweep(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["eff-sweep", "--preset", "figure1-right", "--out", str(a)]) == 0
    assert main(["eff-sweep", "--preset", "figure1-right", "--out", str(b)]) == 0
    assert (a / "eff_sweep.csv").read_bytes() == (b / "eff_sweep.csv").read_bytes()
    assert (a / "eff_sweep_summary.json").read_bytes() == \
        (b / "eff_sweep_summary.json").read_bytes()


def test_rerun_byte_identical_spectrum(tmp_path, capsys, decompositions):
    cfg = write(tmp_path / "s.cfg", "subdivisions = 2\nmode_count = 8\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["np-spectrum", "--config", cfg, "--out", str(a)]) == 0
    np_spectral._MEMO.clear()
    assert main(["np-spectrum", "--config", cfg, "--out", str(b)]) == 0
    assert decompositions == [8, 8]
    assert (a / "np_spectrum.json").read_bytes() == (b / "np_spectrum.json").read_bytes()
    spectrum = np_spectral.mesh_spectrum(icosphere(2), 8)
    assert json.loads((a / "np_spectrum.json").read_text()) == spectrum.to_json_dict()


def test_every_known_key_is_read():
    # a key that no command reads is accepted and then ignored: every key of
    # the table must be in a command's key set and be read from the resolved
    # config, as cfg["key"], somewhere outside the table
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) == "cfg" and isinstance(node.slice, ast.Constant)}
    assert cli._KNOWN_KEYS == set(cli._KEYS)
    assert sorted(set(cli._KEYS) - read) == []


def test_readme_key_table_matches_the_cli():
    # the README's table of each command's keys and defaults is cli's: a
    # blank cell where the command does not read the key, the default as
    # config text, and plain words where the key has no default
    lines = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key |"))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")][1:]
    assert header == list(cli._COMMANDS)
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[key.strip("`")] = dict(zip(header, cells))
    assert list(rows) == list(cli._KEYS)
    for command, (keys, defaults) in cli._COMMANDS.items():
        for key, (_, default, _) in cli._KEYS.items():
            default = defaults.get(key, default)
            cell = rows[key][command]
            if key not in keys:
                assert cell == "", (command, key)
            elif default is None:
                assert cell and "`" not in cell, (command, key)
            else:
                assert cell == f"`{default}`", (command, key)


def test_field_csv_rows_match_fmt(tmp_path, rng):
    # every CSV goes through write_csv, which renders each column of a
    # block of rows at once: each cell must read as fmt renders it
    points = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-20, 20, (5, 3))
    fields = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    fields[0, 0] = complex(-0.0, 0.0)
    fields[1, 2] = complex(1e300, -1e-300)
    write_field_csv(tmp_path / "field.csv", points, fields)
    expect = [[fmt(v) for v in p] + [fmt(part) for c in f for part in (c.real, c.imag)]
              for p, f in zip(points, fields)]
    assert read_csv(tmp_path / "field.csv")[1] == expect
    # SweepRow.out_of_assumption is a numpy.bool_; an n_list entry an int
    columns = [[np.bool_(True), False, np.bool_(False)], [3, np.int64(-7), 0],
               [-0.0, 1e300, -1e-300]]
    write_csv(tmp_path / "mixed.csv", "b,i,f", columns)
    assert read_csv(tmp_path / "mixed.csv") == ("b,i,f", [[fmt(v) for v in row]
                                                          for row in zip(*columns)])


@pytest.mark.parametrize("rows", [0, 1, cli._CSV_ROWS - 1, cli._CSV_ROWS, cli._CSV_ROWS + 1,
                                  2 * cli._CSV_ROWS + 3])
def test_csv_blocks_match_one_rendering(tmp_path, rng, rows):
    # write_csv renders and writes _CSV_ROWS rows at a time; around the
    # block boundaries the file is byte for byte one fmt rendering of every
    # row, for float, int and bool arrays and plain lists that mix Python
    # and numpy scalars
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    ints = rng.integers(-10 ** 6, 10 ** 6, rows)
    bools = rng.random(rows) < 0.5
    columns = [floats, ints, bools,
               [np.bool_(b) if i % 2 else bool(b) for i, b in enumerate(bools)],
               [np.int64(v) if i % 2 else int(v) for i, v in enumerate(ints)],
               floats.tolist()]
    write_csv(tmp_path / "blocks.csv", "f,i,b,lb,li,lf", columns)
    expect = "f,i,b,lb,li,lf\n" + "".join(",".join(map(fmt, row)) + "\n"
                                         for row in zip(*columns))
    assert (tmp_path / "blocks.csv").read_bytes() == expect.encode("utf-8")


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "bogus_key = 1\n")
    rc = main(["eff-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_float_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "eps_m = abc\n")
    rc = main(["eff-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "not a number" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["eff-sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_preset(tmp_path, capsys):
    rc = main(["eff-sweep", "--preset", "figure9", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_kbeta_refusal(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "beta_m = 1.2\n")
    rc = main(["eff-closed-form", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "allow_kbeta_ge_1" in err
    # the config key is the one override; the command line has no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["eff-closed-form", "--config", cfg, "--allow-kbeta-ge-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = write(tmp_path / "c.cfg", "beta_m = 1.2\nallow_kbeta_ge_1 = true\n")
    assert main(["eff-closed-form", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_missing_mesh_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", f"mesh_source = {tmp_path / 'nope.off'}\n")
    rc = main(["np-spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read mesh" in capsys.readouterr().err


def test_config_comments_and_whitespace(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "# a comment line\n"
                "\n"
                "  beta_m   =  0.6   # trailing comment\n"
                "s_values = 0,0.9\n")
    rc = main(["eff-closed-form", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "eff_closed_form_summary.json").read_text())
    assert summary["k_beta"] == pytest.approx(0.6)


def test_resonances_achiral(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "beta_m = 0\nvolume_scale = 0.5\ndrude_omega_p = 1\n")
    rc = main(["resonances", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "resonances.json").read_text())
    assert report["background"]["out_of_assumption"] is False
    lead = report["modes"][0]
    assert lead["lambda_n"] == pytest.approx(1 / 6)
    assert lead["eps_star"]["re"] == pytest.approx(-2.0)
    assert lead["direct_root"]["re"] == pytest.approx(-2.0, abs=1e-9)
    assert lead["drude_omega"]["re"] == pytest.approx(0.5773502691896257, rel=1e-12)


def test_tiny_chirality_is_computed_not_refused(tmp_path, capsys):
    # k*beta = 1e-9 lies inside the k*beta < 1 assumption; the magnetic
    # denominator 1 - t cancels to rounding there, which used to make
    # resonances and dipole-field exit 3 and fail every sweep point
    probes = write(tmp_path / "probes.csv", PROBES_CSV)
    cfg = write(tmp_path / "c.cfg", "beta_m = 1e-9\nvolume_scale = 0.5\ndrude_omega_p = 1\n"
                f"eps_c_re = -3\nprobes_file = {probes}\neps_c_points = 200\n")
    for command in ("resonances", "dipole-field", "eff-sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    lead = json.loads((tmp_path / "resonances" / "resonances.json").read_text())["modes"][0]
    assert lead["direct_root"]["re"] == pytest.approx(-2.0, abs=1e-9)
    summary = json.loads((tmp_path / "eff-sweep" / "eff_sweep_summary.json").read_text())
    assert summary["points"] == 200 and summary["failed"] == 0


def test_eff_closed_form_values(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "beta_m = 0.6\ns_values = 0,0.5,0.9\n")
    rc = main(["eff-closed-form", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "eff_closed_form.csv")
    assert header == "s,re_eps_eff,im_eps_eff,re_mu_eff,im_mu_eff,re_beta_eff,im_beta_eff"
    s0_row = [float(v) for v in rows[0]]
    assert s0_row[0] == 0.0
    assert s0_row[1:] == pytest.approx([1.0, 0.0, 1.0, 0.0, 0.6, 0.0], rel=1e-12, abs=1e-15)
    summary = json.loads((tmp_path / "eff_closed_form_summary.json").read_text())
    assert summary["closed_form_vs_inversion_max_dev"] <= 1e-10
    assert 0.0 < summary["double_negative_onset_s0"] < 1.0
    assert summary["double_negative_onset_s0"] == pytest.approx(0.8001, abs=5e-3)


def test_eff_closed_form_table_matches_scalar_calls(tmp_path, capsys):
    # the table comes from one array evaluation; each row is the scalar
    # closed form at its s to roundoff
    s_values = np.sort(np.random.default_rng(3).uniform(0.0, 0.9, 200))
    s_text = ",".join(map(repr, s_values.tolist()))
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\ns_values = {s_text}\n")
    assert main(["eff-closed-form", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "eff_closed_form.csv")
    table = np.array(rows, dtype=float)
    assert np.array_equal(table[:, 0], s_values)
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    for s, *parts in table:
        eff = effective_closed_form(bg, 1 / 6, s)
        for got, want in zip(np.array(parts[::2]) + 1j * np.array(parts[1::2]),
                             (eff.eps_eff, eff.mu_eff, eff.beta_eff)):
            assert abs(got - want) <= 1e-15 * abs(want)


def test_dipole_field_matches_single_site_foldy(tmp_path, capsys):
    # one lattice site with the same scaling is the dipole model up to the
    # cube-root/cube round trip of the size parameter (~1 ulp), so the
    # CSVs agree numerically though not byte-for-byte
    probes = write(tmp_path / "probes.csv", PROBES_CSV)
    base = ("beta_m = 0.2\nvolume_scale = 0.5\nn_per_axis = 1\n"
            "eps_c_re = -3\nfar_field_factor = 2\n"
            f"probes_file = {probes}\n")
    cfg_d = write(tmp_path / "d.cfg", base)
    cfg_f = write(tmp_path / "f.cfg", base + "n_list = 1\neta = 0\ncompare = false\n")
    assert main(["dipole-field", "--config", cfg_d, "--out", str(tmp_path)]) == 0
    assert main(["foldy", "--config", cfg_f, "--out", str(tmp_path)]) == 0
    hd, rd = read_csv(tmp_path / "dipole_field.csv")
    hf, rf = read_csv(tmp_path / "foldy_field.csv")
    assert hd == hf
    assert len(rd) == len(rf) == 4
    a = np.array([[float(v) for v in row] for row in rd])
    b = np.array([[float(v) for v in row] for row in rf])
    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_foldy_compare_errors_decrease(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "beta_m = 0.4\nvolume_scale = 0.5\neps_c_re = -3\n"
                "n_list = 2,3,4\ngrid_m = 6\neta = 0.1\n")
    rc = main(["foldy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "foldy_errors.csv")
    assert header == "N,rel_l2_error,eta,eps_c_re,eps_c_im"
    errs = [float(r[1]) for r in rows]
    assert [int(r[0]) for r in rows] == [2, 3, 4]
    assert errs[0] > errs[1] > errs[2]


def test_check_assumptions_report(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2,3\neta = 1.0\n")
    rc = main(["check-assumptions", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_assumptions.json").read_text())
    assert isinstance(report["distribution"]["monotone_decreasing"], bool)
    rows = report["uniform_invertibility"]["rows"]
    assert [r["N"] for r in rows] == [2, 3]
    assert all(r["scaled_by_n6a"] > 0 for r in rows)
    assert report["uniform_invertibility"]["scaled_max_over_min"] >= 1.0


def test_check_assumptions_growth_exponent(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2,3,4\neta = 1.0\n")
    assert main(["check-assumptions", "--config", cfg, "--out", str(tmp_path)]) == 0
    inv = json.loads((tmp_path / "check_assumptions.json").read_text())["uniform_invertibility"]
    N = np.array([r["N"] for r in inv["rows"]], dtype=float)
    scaled = np.array([r["scaled_by_n6a"] for r in inv["rows"]])
    slope = np.polyfit(np.log(N), np.log(scaled), 1)[0]
    assert inv["scaled_growth_exponent"] == pytest.approx(slope, rel=1e-12)
    # the pair statistic grows about like N^3, so the scaled one like N^(3 + 6a)
    assert inv["scaled_growth_exponent"] - 6.0 * inv["dilution_exponent"] == pytest.approx(
        3.0, abs=0.5)
    # one size gives no slope
    cfg = write(tmp_path / "one.cfg", "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 3\n")
    assert main(["check-assumptions", "--config", cfg, "--out", str(tmp_path)]) == 0
    inv = json.loads((tmp_path / "check_assumptions.json").read_text())["uniform_invertibility"]
    assert inv["scaled_growth_exponent"] is None


@pytest.mark.parametrize("command", ["dipole-field", "foldy", "compare-hom",
                                     "check-assumptions"])
@pytest.mark.parametrize("count", [0, -5])
def test_probe_count_below_one_rejected(tmp_path, capsys, monkeypatch, command, count):
    # refused before any kernel work: check-assumptions used to sample one
    # site instead, and the probe ring used to come out empty
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel evaluated")

    monkeypatch.setattr("chiralmeta.foldy.green_apply", no_kernel)
    monkeypatch.setattr("chiralmeta.foldy._radial", no_kernel)
    monkeypatch.setattr("chiralmeta.foldy.green_dyadic", no_kernel)
    monkeypatch.setattr("chiralmeta.dipole.green_dyadic", no_kernel)
    cfg = write(tmp_path / "c.cfg",
                f"beta_m = 0.4\nvolume_scale = 0.5\nn_list = 3\ngrid_m = 4\n"
                f"probe_count = {count}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"probe_count must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("dense_window = 1e-4\ndense_points = 0", "dense_points must be at least 1, got 0"),
    ("dense_window = 1e-4\ndense_points = -5", "dense_points must be at least 1, got -5"),
    ("dense_window = -1e-4", "dense_window must be nonnegative, got -0.0001"),
], ids=["0", "-5", "negative-window"])
def test_dense_points_below_one_rejected(tmp_path, capsys, lines, message):
    # np.linspace refused a negative count with a traceback, and a negative
    # window ran as if no window had been given
    cfg = write(tmp_path / "c.cfg", lines + "\n")
    out = tmp_path / "out"
    assert main(["eff-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [("delta = 0", "delta must be positive"),
                                           ("delta = -0.01", "delta must be positive"),
                                           ("far_field_factor = 0", "far_field_factor must be"),
                                           ("far_field_factor = -2", "far_field_factor must be")])
def test_dipole_field_bad_particle_rejected(tmp_path, capsys, line, message):
    # ParticleInstance's refusal is a config error, not a traceback
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\n{line}\n")
    out = tmp_path / "out"
    assert main(["dipole-field", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dipole_field_probe_in_guard_radius(tmp_path, capsys):
    # a probe inside far_field_factor * delta stays a numerical failure
    probes = write(tmp_path / "p.csv", "x,y,z\n0.5,0.5,0.5\n")
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\nprobes_file = {probes}\n")
    out = tmp_path / "out"
    assert main(["dipole-field", "--config", cfg, "--out", str(out)]) == 3
    assert "far-field guard radius" in capsys.readouterr().err
    assert not out.exists()


def test_check_assumptions_negative_eta(tmp_path, capsys):
    # the regularized kernel 1/(4 pi r + eta) has a pole at r = 1/(4 pi);
    # refused with the config, no longer by the kernel after the spectrum
    cfg = write(tmp_path / "c.cfg",
                "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2,3\neta = -1\n")
    rc = main(["check-assumptions", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error: eta must be nonnegative, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "check_assumptions.json").exists()


@pytest.mark.parametrize("command", ["resonances", "eff-sweep", "dipole-field", "foldy",
                                     "compare-hom", "check-assumptions"])
def test_mode_index_out_of_range(tmp_path, capsys, command):
    # an explicit moment_scale skips the cluster lookup of moment_scale = auto,
    # so the range check must not depend on it
    cfg = write(tmp_path / "c.cfg",
                "mode_index = 5\nmoment_scale = 0.1\nvolume_scale = 0.5\n"
                "dense_window = 1e-4\nn_list = 2,3\ngrid_m = 4\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "mode_index 5 out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["foldy", "compare-hom", "check-assumptions",
                                     "eff-closed-form"])
def test_empty_n_list_rejected(tmp_path, capsys, command):
    # an empty s_values wrote an empty CSV and a deviation of 0 that checked nothing
    key = "s_values" if command == "eff-closed-form" else "n_list"
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\nvolume_scale = 0.5\n{key} =\ngrid_m = 4\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"{key} must not be empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["grid_m = 25", "eta = 0"])
def test_foldy_failed_comparison_writes_nothing(tmp_path, capsys, line):
    # the field CSV used to be written before the volume solve refused; a
    # grid_m past the per-axis bound, and an eta = 0 that the volume's self
    # cell cannot take, are now refused with the config
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2\n{line}\n")
    out = tmp_path / "out"
    assert main(["foldy", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line, message", [
    ("compare-hom", "eta = 0", "eta must be positive to solve the volume grid, got 0.0"),
    ("foldy", "eta = 0\ncompare = true", "eta must be positive to solve the volume grid, got 0.0"),
    ("compare-hom", "eta = -1", "eta must be nonnegative, got -1.0"),
    ("foldy", "eta = -1\ncompare = false", "eta must be nonnegative, got -1.0"),
    ("check-assumptions", "eta = -1", "eta must be nonnegative, got -1.0"),
])
def test_bad_eta_refused_before_the_spectrum(tmp_path, capsys, monkeypatch, command, line,
                                             message):
    # these used to exit 3 from the solves or the kernel, after the spectrum
    def decomposed(*args, **kwargs):
        raise AssertionError("spectrum computed before eta was checked")

    monkeypatch.setattr(cli, "build_spectrum", decomposed)
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\nn_list = 2\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_check_assumptions_zero_eta_accepted(tmp_path, capsys):
    # no volume grid, no self cell: the lattice sums never take a zero offset
    # (foldy with compare = false: test_dipole_field_matches_single_site_foldy)
    cfg = write(tmp_path / "c.cfg", "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2,3\neta = 0\n")
    assert main(["check-assumptions", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "check_assumptions.json").exists()


def test_singular_probe_is_numerical_failure(tmp_path, capsys):
    # a probe on a lattice point at eta = 0 hits the kernel's singular point;
    # it used to escape as an uncaught traceback (exit 1)
    probes = write(tmp_path / "p.csv", "0.25,0.25,0.25\n")
    cfg = write(tmp_path / "c.cfg", "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2\neta = 0\n"
                f"compare = false\nprobes_file = {probes}\n")
    out = tmp_path / "out"
    assert main(["foldy", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure: dyadic evaluated at its singular point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which, command, message", [
    ("config", "eff-closed-form", "cannot read config file"),
    ("probes", "dipole-field", "cannot read probes file"),
    ("mesh", "np-spectrum", "cannot read mesh"),
])
def test_undecodable_input_file_rejected(tmp_path, capsys, which, command, message):
    # a file that is not UTF-8 text used to crash with a UnicodeDecodeError
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    if which == "config":
        cfg = str(bad)
    else:
        key = "probes_file" if which == "probes" else "mesh_source"
        cfg = write(tmp_path / "c.cfg", f"{key} = {bad}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["foldy", "compare-hom", "check-assumptions"])
@pytest.mark.parametrize("value", ["0", "-2", "2,0"])
def test_n_list_below_one_rejected(tmp_path, capsys, monkeypatch, command, value):
    # a count below 1 used to fail as a numerical error, after compare-hom
    # had already solved the volume and the N = 2 lattice for "2,0"
    def solved(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    for name in ("solve_foldy", "compare_homogenization", "check_distribution",
                 "uniform_invertibility_stat"):
        monkeypatch.setattr(cli, name, solved)
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\nvolume_scale = 0.5\nn_list = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: n_list entries must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("drude_omega_p = 0", "drude_omega_p must be positive, got 0.0"),
    ("drude_omega_p = -1", "drude_omega_p must be positive, got -1.0"),
    ("drude_tau = -1", "drude_tau must be nonnegative, got -1.0"),
])
def test_resonances_bad_drude_rejected(tmp_path, capsys, line, message):
    # omega_p = 0 wrote a report of error entries; a negative value ran
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\nvolume_scale = 0.5\n{line}\n")
    out = tmp_path / "out"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_json_negative_zero_round_trips(tmp_path):
    # .17g spells -0.0 as "-0", which json reads back as the integer 0
    write_json(tmp_path / "z.json", {"x": -0.0, "z": complex(0.0, -0.0), "y": np.float64(-0.0),
                                     "w": 0.0, "v": -1.5})
    back = json.loads((tmp_path / "z.json").read_text())
    for value in (back["x"], back["z"]["im"], back["y"]):
        assert isinstance(value, float) and math.copysign(1.0, value) == -1.0
    assert back["w"] == 0 and math.copysign(1.0, back["w"]) == 1.0
    assert back["v"] == -1.5 and back["z"]["re"] == 0.0


def test_foldy_bad_eta_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "beta_m = 0.4\nvolume_scale = 0.5\nn_list = 2\neta = abc\n")
    rc = main(["foldy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config key 'eta': not a number" in capsys.readouterr().err


# the float keys each command reads; list keys get the bad value as one
# component
_MODEL_FLOATS = ("eps_m", "mu_m", "beta_m", "omega", "volume_scale", "dilution_exponent",
                 "moment_scale")
_LATTICE_FLOATS = _MODEL_FLOATS + ("eps_c_re", "eps_c_im", "direction", "amplitude", "eta")
FLOAT_KEYS = {
    "resonances": _MODEL_FLOATS + ("drude_omega_p", "drude_tau"),
    "eff-sweep": _MODEL_FLOATS + ("eps_c_min", "eps_c_max", "dense_window"),
    "eff-closed-form": ("eps_m", "mu_m", "beta_m", "omega", "lambda_n", "s_values"),
    "dipole-field": _MODEL_FLOATS + ("eps_c_re", "eps_c_im", "delta", "center",
                                     "far_field_factor", "direction", "amplitude"),
    "foldy": _LATTICE_FLOATS,
    "compare-hom": _LATTICE_FLOATS,
    "check-assumptions": _MODEL_FLOATS + ("eta",),
}
_LIST_KEYS = {"s_values", "center", "direction"}


def float_parsed(key):
    """Whether the table parses ``key`` as a float or a float list: such a
    parser refuses "nan" as not finite."""
    try:
        cli._KEYS[key][0]("nan")
    except ValueError as exc:
        return "not finite" in str(exc)
    return False


def test_float_key_table_is_complete():
    # FLOAT_KEYS, written by hand, is the table's float-parsed keys, command
    # by command
    parsed = {command: {key for key in keys if float_parsed(key)}
              for command, (keys, _) in cli._COMMANDS.items()}
    assert parsed == {command: set(FLOAT_KEYS.get(command, ())) for command in cli._COMMANDS}


@pytest.fixture()
def deadline():
    """Fail a test that runs longer than 2 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("command still running after 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in FLOAT_KEYS.items()
                                          for k in keys])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(tmp_path, capsys, deadline, command, key, bad):
    # resonances with beta_m = nan used to bisect forever, foldy with
    # eta = nan died in the LU, dipole-field wrote NaN rows
    value = f"0,{bad},1" if key in _LIST_KEYS else bad
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\nn_list = 2\ngrid_m = 4\n"
                                    f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"config key {key!r}: not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dipole-field", "foldy", "compare-hom"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_probe_rejected(tmp_path, capsys, deadline, command, bad):
    # a nan row used to exit 0 and write NaN fields
    probes = write(tmp_path / "probes.csv", PROBES_CSV.replace("0.5,3.5,0.5", f"0.5,{bad},0.5"))
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\nn_list = 2\ngrid_m = 4\n"
                                    f"probes_file = {probes}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"{probes}:3: coordinate not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [("foldy", "n_cap = 10"),
                                           ("dipole-field", "variant = resonant-mode"),
                                           ("eff-sweep", "density = 2"),
                                           ("foldy", "use_limit_tilde = true"),
                                           ("dipole-field", "probe_radius = 4")])
def test_deleted_keys_rejected(tmp_path, capsys, command, line):
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\n{line}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_spectrum_computed_once_per_process(tmp_path, capsys, decompositions):
    mesh = icosphere(2)
    off = write_off(tmp_path / "sphere.off", mesh.vertices, mesh.triangles)
    probes = write(tmp_path / "probes.csv", PROBES_CSV)
    cfg = write(tmp_path / "c.cfg",
                f"mesh_source = {off}\nmode_count = 8\nbeta_m = 0.2\nvolume_scale = 0.5\n"
                f"eps_c_re = -3\nprobes_file = {probes}\n")
    commands = ("np-spectrum", "resonances", "dipole-field")
    for command in commands:
        assert main([command, "--config", cfg, "--out", str(tmp_path / "shared" / command)]) == 0
    assert decompositions == [8]
    # each artifact is the one a process that starts from an empty memo writes
    for command in commands:
        np_spectral._MEMO.clear()
        fresh = tmp_path / "fresh" / command
        assert main([command, "--config", cfg, "--out", str(fresh)]) == 0
        shared = tmp_path / "shared" / command
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in shared.iterdir())
        for name in names:
            assert (fresh / name).read_bytes() == (shared / name).read_bytes(), name
    assert len(decompositions) == 4


def test_mesh_spectrum_memo_key(tmp_path, capsys, monkeypatch, decompositions):
    mesh = icosphere(2)
    off = tmp_path / "m.off"

    def np_spectrum(mode_count):
        cfg = write(tmp_path / "c.cfg", f"mesh_source = {off}\nmode_count = {mode_count}\n")
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        rc = main(["np-spectrum", "--config", cfg, "--out", str(out)])
        return rc, (out / "np_spectrum.json").read_bytes() if rc == 0 else None

    write_off(off, mesh.vertices, mesh.triangles)
    rc, first = np_spectrum(8)
    assert rc == 0 and decompositions == [8]
    assert np_spectrum(8) == (0, first) and decompositions == [8]
    # the same path with another mesh is another spectrum
    write_off(off, 1.5 * mesh.vertices, mesh.triangles)
    rc, scaled = np_spectrum(8)
    assert rc == 0 and scaled != first and decompositions == [8, 8]
    write_off(off, mesh.vertices, mesh.triangles)
    assert np_spectrum(8) == (0, first) and decompositions == [8, 8]
    assert np_spectrum(6)[0] == 0 and decompositions == [8, 8, 6]
    # a failed decomposition is not remembered: it fails again, and recomputes
    capsys.readouterr()
    monkeypatch.setattr(scipy.linalg, "eigh", not_positive_definite)
    assert np_spectrum(7)[0] == 3
    assert np_spectrum(7)[0] == 3
    assert decompositions == [8, 8, 6, 7, 7]
    assert "not positive definite" in capsys.readouterr().err
    # an out-of-range mode_count is refused before any decomposition
    assert np_spectrum(mesh.n_panels)[0] == 2
    assert decompositions == [8, 8, 6, 7, 7]


def not_positive_definite(*args, **kwargs):
    raise scipy.linalg.LinAlgError("the leading minor is not positive definite")


@pytest.mark.parametrize("source, count", [("analytic", 0), ("icosphere", 0), ("icosphere", -3),
                                           ("icosphere", 80), ("icosphere", 100000),
                                           ("file", 0), ("file", 80)])
def test_mode_count_out_of_range_is_config_error(tmp_path, capsys, monkeypatch, source, count):
    # used to exit 3 after assembling S and K; icosphere(1) and the file
    # mesh have 80 panels, so at most 79 modes
    def no_work(mesh):
        raise AssertionError("assembled an operator")

    for name in ("assemble_single_layer", "assemble_np"):
        monkeypatch.setattr(np_spectral, name, no_work)
    if source == "file":
        mesh = icosphere(1)
        source = write_off(tmp_path / "m.off", mesh.vertices, mesh.triangles)
    cfg = write(tmp_path / "c.cfg",
                f"mesh_source = {source}\nsubdivisions = 1\nmode_count = {count}\n")
    out = tmp_path / "out"
    rc = main(["np-spectrum", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mode_count must be at")
    assert f"got {count}" in err and not out.exists()


def test_icosphere_subdivisions_out_of_range_is_config_error(tmp_path, capsys):
    # used to leave MeshError uncaught
    cfg = write(tmp_path / "c.cfg", "mesh_source = icosphere\nsubdivisions = 9\n")
    assert main(["np-spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "subdivisions must be between 0 and 6" in capsys.readouterr().err


# a bad value for every key but mesh_source, which is read with the mesh;
# mode_index's upper bound needs the clusters, so its bad value is negative
BAD_VALUES = {
    "eps_m": "abc", "mu_m": "0", "beta_m": "1.2", "omega": "inf", "allow_kbeta_ge_1": "maybe",
    "subdivisions": "1.5", "mode_count": "0", "mode_index": "-1", "volume_scale": "-1",
    "n_per_axis": "0", "dilution_exponent": "0", "moment_scale": "-1", "drude_omega_p": "0",
    "drude_tau": "-1", "eps_c_min": "abc", "eps_c_max": "-5", "eps_c_points": "1",
    "dense_window": "-1", "dense_points": "0", "lambda_n": "0.5", "s_values": "1",
    "eps_c_re": "abc", "eps_c_im": "nan", "delta": "0", "center": "1,2", "far_field_factor": "-2",
    "direction": "0,0,0", "handedness": "up", "amplitude": "abc", "probes_file": "missing.csv",
    "probe_count": "0", "n_list": "0", "eta": "abc", "grid_m": "abc", "compare": "maybe",
}
# lattice sizes that parse but that no lattice or volume solve takes: the
# key, the config text and the refusal, which names the key or the entry
BAD_SIZES = {
    "grid_m_25": ("grid_m", "grid_m = 25", "grid_m must be in [1, 24], got 25"),
    "n_list_25": ("n_list", "n_list = 2,25", "n_list entries must be in [1, 24], got 25"),
    "n_list_undiluted": ("n_list", "volume_scale = 3\nn_list = 1,2",
                         "n_list entry 1: dilution violated"),
}


@pytest.mark.parametrize("command, key, rc", [
    (command, key, 2) for command, (keys, _) in cli._COMMANDS.items()
    for key in keys if key != "mesh_source"
] + [("eff-closed-form", "drude_tau", 0), ("eff-closed-form", "n_list", 0)] + [
    (command, case, 2) for command, (keys, _) in cli._COMMANDS.items()
    for case, (key, _, _) in BAD_SIZES.items() if key in keys
])
def test_config_refused_before_any_decomposition(tmp_path, capsys, monkeypatch, command, key, rc):
    # every key a command reads is checked before its spectrum; a key the
    # command does not read is not checked at all.  A bad n_list, drude_tau,
    # dense_points, handedness, center or volume_scale used to be refused
    # only after the mesh had been decomposed, if at all; a grid_m or n_list
    # entry past 24 per axis, or an n_list entry whose particles overfill
    # their cells, used to exit 3 after it.
    def decomposed(*args, **kwargs):
        raise AssertionError("spectrum computed before the config was checked")

    monkeypatch.setattr(cli, "build_spectrum", decomposed)
    monkeypatch.setattr(np_spectral, "mesh_spectrum", decomposed)
    if key in BAD_SIZES:
        _, line, message = BAD_SIZES[key]
    else:
        value = tmp_path / BAD_VALUES[key] if key == "probes_file" else BAD_VALUES[key]
        line, message = f"{key} = {value}", ""
    cfg = write(tmp_path / "c.cfg", f"volume_scale = 0.5\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 2:
        assert err.startswith("config error: " + message) and not out.exists()
    else:
        assert err == "" and out.exists()


@pytest.mark.parametrize("line, message", [
    ("s_values = 1", "s_values entries must be in [0, 1), got 1.0"),
    ("s_values = -0.5", "s_values entries must be in [0, 1), got -0.5"),
    ("s_values = 0,0.5,1.5", "s_values entries must be in [0, 1), got 1.5"),
    ("lambda_n = 0.5", "lambda_n must be in (-1/2, 1/2), got 0.5"),
    ("lambda_n = -0.5", "lambda_n must be in (-1/2, 1/2), got -0.5"),
    ("lambda_n = 3", "lambda_n must be in (-1/2, 1/2), got 3.0"),
])
def test_closed_form_out_of_range_rejected(tmp_path, capsys, line, message):
    # s = 1 used to exit 3 from effective_closed_form; an NP eigenvalue
    # outside (-1/2, 1/2) used to write a full table
    cfg = write(tmp_path / "c.cfg", f"beta_m = 0.4\n{line}\n")
    out = tmp_path / "out"
    assert main(["eff-closed-form", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
