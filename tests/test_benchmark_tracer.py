"""The benchmark tracer against the program it wraps.

``benchmark/tracer.py`` times the program by replacing its functions by
name, and a traced benchmark run fails when an expected span never fires.
A renamed or bypassed function would only show there, so this runs small
versions of the workloads' commands under the tracer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from _meshes import small_torus

ROOT = Path(__file__).resolve().parents[1]

# install() patches modules process-wide, so the traced commands run in
# their own interpreter
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import EXPECTED_SPANS
from tracer import Tracer
tracer = Tracer()
tracer.install()
import chiralmeta.cli
rcs = [chiralmeta.cli.main(argv) for argv in json.loads(sys.argv[2])]
# the benchmark's child writes the metrics with json.dump
print(json.dumps({"rcs": rcs, "fired": sorted(tracer.fired()),
                  "expected": {w: sorted(s) for w, s in EXPECTED_SPANS.items()},
                  "metrics": tracer.metrics()}))
"""

CONFIGS = {
    # strongly coupled: the volume sweeps stall and the LU fallback runs
    "compare-hom": "beta_m = 0.4\nvolume_scale = 3\neps_c_re = -3\neta = 0.1\n"
                   "n_list = 2,3\ngrid_m = 4\nprobe_count = 4\n",
    "foldy": "beta_m = 0.4\nvolume_scale = 0.5\neps_c_re = -3\neta = 0.1\n"
             "n_list = 2,3\ngrid_m = 4\nprobe_count = 4\n",
    "check-assumptions": "beta_m = 0.4\nvolume_scale = 0.5\neps_c_re = -3\neta = 1.0\n"
                         "n_list = 2,3\nprobe_count = 2\n",
}


def _traced(tmp_path, configs: dict) -> dict:
    """Run each command of ``configs`` under the tracer in one fresh
    interpreter; returns the script's JSON line."""
    argvs = []
    for cmd, text in configs.items():
        cfg = tmp_path / f"{cmd}.cfg"
        cfg.write_text(text, encoding="utf-8")
        argvs.append([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)])
    # no bytecode written next to the benchmark's sources
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "benchmark"),
                          json.dumps(argvs)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_fires_every_lattice_span(tmp_path):
    res = _traced(tmp_path, CONFIGS)
    assert res["rcs"] == [0, 0, 0]
    expected = set(res["expected"]["lattice_dilute"]) | set(res["expected"]["lattice_coupled"])
    assert sorted(expected - set(res["fired"])) == []


def test_tracer_fires_every_spectrum_span(tmp_path):
    # a torus with a rotation axis takes the Fourier-block eigensolve; the
    # particle workload's np_spectral spans must still fire
    mesh = small_torus()
    lines = ["OFF", f"{len(mesh.vertices)} {mesh.n_panels} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in t) for t in mesh.triangles]
    off = tmp_path / "torus.off"
    off.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res = _traced(tmp_path, {"np-spectrum": f"mesh_source = {off}\nmode_count = 8\n"})
    assert res["rcs"] == [0]
    expected = {s for s in res["expected"]["particle_sweep"] if s.startswith("np_spectral.")}
    assert len(expected) == 3
    assert sorted(expected - set(res["fired"])) == []
    assert res["metrics"]["np_spectral.spectra_computed"] == 1
    assert res["metrics"]["np_spectral.eigh_flops"] > 0


def test_tracer_reads_sweep_rows(tmp_path):
    # the tracer's sweep callback sums the rows' flags: the metrics must stay
    # JSON-serializable whatever type sweep_figure returns its rows in
    res = _traced(tmp_path, {"eff-sweep": "beta_m = 0.4\neps_c_points = 50\n"})
    assert res["rcs"] == [0]
    assert "effective.sweep_figure" in res["fired"]
    assert res["metrics"]["effective.sweep_points"] == 50


def test_tracer_counts_the_hot_leaf_calls(tmp_path):
    # install() wraps polarization.mode_params and effective.invert_effective
    # by name: a removed one would make every traced run raise there, and a
    # bypassed one would leave its counter at 0
    res = _traced(tmp_path, {"eff-sweep": "beta_m = 0\neps_c_points = 50\n"})
    assert res["rcs"] == [0]
    assert res["metrics"]["polarization.mode_params_calls"] > 0
    assert res["metrics"]["effective.invert_effective_calls"] > 0
