"""The benchmark's dense oracle against ``compare-hom`` on the LU path.

``benchmark/checks.lattice_errors`` compares every error row of a lattice
workload with ``benchmark/oracle.error_rows``, a dense solve that does not
go through ``chiralmeta.foldy``, to 1e-10.  On the strongly coupled
material the volume's fixed-point sweeps stall and the O-block LU solves
it, so this runs that comparison on small grids.
"""

import importlib
import sys
from pathlib import Path

import pytest

from chiralmeta import foldy
from chiralmeta.cli import main

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

# the lattice_coupled material with a smaller volume grid and lattices
COUPLED = {"beta_m": "0.4", "volume_scale": "3", "n_per_axis": "2", "eps_c_re": "-3",
           "eta": "0.1", "n_list": "2,3", "direction": "0.3,-0.2,0.93",
           "handedness": "right", "probe_count": "6"}


@pytest.fixture()
def oracle(monkeypatch):
    # imported read-only: no bytecode is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    monkeypatch.delitem(sys.modules, "oracle", raising=False)
    module = importlib.import_module("oracle")
    yield module
    sys.modules.pop("oracle", None)


@pytest.mark.parametrize("grid_m", [4, 5])
def test_compare_hom_lu_rows_match_dense_oracle(tmp_path, monkeypatch, oracle, grid_m):
    solved = []
    lu_solve = foldy._lu_solve_system

    def counted(blocks, b):
        solved.append(b.size)
        return lu_solve(blocks, b)

    monkeypatch.setattr(foldy, "_lu_solve_system", counted)
    cfg = {**COUPLED, "grid_m": str(grid_m)}
    path = tmp_path / "coupled.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    assert main(["compare-hom", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert 6 * grid_m ** 3 in solved
    lines = (tmp_path / "out" / "compare_hom.csv").read_text(encoding="utf-8").splitlines()
    rows = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
    expect = oracle.error_rows(cfg, foldy.probe_ring(6), [2, 3], grid_m)
    assert list(rows) == [2, 3]
    for N, err in rows.items():
        assert abs(err - expect[N]) <= 1e-10
