"""chiralmeta benchmark: three CLI workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload particle_sweep --seed 1 --seconds 40 --trace 0

Each workload run is one fresh interpreter that calls
``chiralmeta.cli.main(argv)`` for every command of the workload, fed only
with inputs generated from ``--seed`` (inputs.py).  Runs repeat while the
next one is predicted to end within ``--seconds`` (at least one runs);
every run's artifacts go through the output checks (checks.py).  The last
line of standard output is one JSON object:

* ``--trace 0``: end-to-end metrics ``setup_s`` (median import time of a
  fresh interpreter), ``wall_s`` (median first-command-start to
  last-command-end), ``peak_rss_mb`` (median peak RSS of the workload
  process) and ``ok_ratio`` (commands that exit 0 and pass their check,
  over commands attempted; ``failed_ratio`` = 1 - ``ok_ratio`` is printed
  above it).
* ``--trace 1``: runs alternate untraced and traced; the per-layer metrics
  of tracer.py plus ``cli.artifact_bytes`` and ``trace.overhead_s``
  (median traced minus median untraced ``wall_s``).

BLAS/OpenMP threads are pinned in the environment of every process the
benchmark starts.  Scratch files live under ``.bench_work/`` in the
checkout; each run's record (environment, per-run results) is kept there
as ``<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from tracer import CLI_COMMANDS, COUNTED, TIMED  # noqa: E402

# expected spans per workload: a traced run in which one never fires fails
EXPECTED_SPANS = {
    "particle_sweep": {"cli.np_spectrum", "cli.resonances", "cli.dipole_field",
                       "cli.eff_sweep", "cli.eff_closed_form", "mesh.mesh_from_file",
                       "np_spectral.assemble_single_layer", "np_spectral.assemble_np",
                       "np_spectral.spectral_decomposition", "polarization.resonant_eps",
                       "polarization.find_resonance_root", "effective.sweep_figure",
                       "dipole.scattered_field_dipole", "background.green_dyadic",
                       "background.incident_six"},
    "lattice_dilute": {"cli.check_assumptions", "cli.foldy", "foldy.check_distribution",
                       "foldy.uniform_invertibility_stat", "foldy.solve_foldy",
                       "foldy.solve_homogenized_ls", "foldy.eval_field",
                       "background.green_dyadic", "background.incident_six"},
    "lattice_coupled": {"cli.compare_hom", "foldy.solve_foldy", "foldy.solve_homogenized_ls",
                        "foldy.eval_field", "background.green_dyadic",
                        "background.incident_six"},
}
# fresh interpreters that only import, on top of one per workload run
IMPORT_SAMPLES = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# lattice error rows checked against the dense reference, and the largest
# volume grid it is built for (grid_m 10 would add ~20 s to every run)
ORACLE_N = (2, 3)
ORACLE_MAX_GRID = 8


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(2, nproc()))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    # cached bytecode, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(root),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_child(work: Path, tag: str, plan: dict, env: dict, log) -> dict | None:
    plan_path, result_path = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    try:
        subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                        str(result_path)], env=env, stdout=log, stderr=log,
                       timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    if not result_path.is_file():
        return None
    return json.loads(result_path.read_text())


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def add_references(commands) -> None:
    """Attach the dense reference rows to every lattice error check small
    enough for a dense solve."""
    import oracle

    for cmd in commands:
        spec = cmd["check"]
        if spec["kind"] == "lattice-errors" and spec["grid_m"] <= ORACLE_MAX_GRID:
            cfg = spec["cfg"]
            probes = np.loadtxt(cfg["probes_file"], delimiter=",", skiprows=1, ndmin=2)
            spec["reference"] = oracle.error_rows(cfg, probes, ORACLE_N, spec["grid_m"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chiralmeta" / "cli.py").is_file():
        print(f"benchmark: no chiralmeta sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    env = child_env(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, env)}
    base = root / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    try:
        with open(work / "program.log", "w", encoding="utf-8") as log:
            result = measure(args, work, env, log, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    (base / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


def measure(args, work: Path, env: dict, log, record: dict) -> dict | None:
    commands = WORKLOADS[args.workload](work / "inputs",
                                        np.random.default_rng(args.seed))
    # untimed: the first import in a fresh checkout also compiles bytecode
    if not (work.parents[1] / "src" / "chiralmeta" / "__pycache__").is_dir():
        run_child(work, "warmup", {"import_only": True}, env, log)
    setup = []
    for i in range(IMPORT_SAMPLES):
        res = run_child(work, f"import{i}", {"import_only": True}, env, log)
        if res is None:
            print("benchmark: import-only interpreter failed", file=sys.stderr)
            return None
        setup.append(res["setup_s"])

    add_references(commands)
    reps, failures = [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    # start another run only if it can end within --seconds (judged by the
    # previous interpreter's lifetime), so the time measured never rounds up
    last = 0.0
    while (len(reps) < 1 + args.trace
           or time.perf_counter() - start + last <= args.seconds):
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(reps) % 2 == 1
        out = work / f"run{len(reps)}"
        plan = {"trace": traced, "spans": str(work / "spans.json"),
                "commands": [c["argv"] + ["--out", str(out / f"{i:02d}")]
                             for i, c in enumerate(commands)]}
        res = run_child(work, f"run{len(reps)}", plan, env, log)
        last = time.perf_counter() - t0
        if res is None:
            print("benchmark: workload interpreter died or timed out", file=sys.stderr)
            return None
        res["traced"] = traced
        res["artifact_bytes"] = dir_bytes(out) if out.exists() else 0
        for i, (cmd, status) in enumerate(zip(commands, res["commands"])):
            attempted += 1
            reason = None
            if status["rc"] != 0:
                reason = f"exit code {status['rc']}"
            else:
                reason = check(cmd["check"], out / f"{i:02d}")
                correct = correct and reason is None
            status["failure"] = reason
            if reason is not None:
                failed += 1
                failures.append(f"run {len(reps)} command {i} {cmd['argv'][0]}: {reason}")
        setup.append(res["setup_s"])
        reps.append(res)
        if traced:
            missing = EXPECTED_SPANS[args.workload] - set(res["fired"])
            if missing:
                print(f"benchmark: expected spans never fired: {sorted(missing)}",
                      file=sys.stderr)
                return None
            shutil.copyfile(work / "spans.json", work.parent /
                            f"{args.workload}-seed{args.seed}.spans.json")
        shutil.rmtree(out, ignore_errors=True)

    record["runs"] = reps
    record["failures"] = failures
    plain = [r for r in reps if not r["traced"]]
    wall = median([r["wall_s"] for r in plain])
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} run(s), "
          f"{attempted} commands, {failed} failed")
    for line in failures:
        print(f"  failed: {line}")
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {}
        for name in per_layer_names():
            unit = per_layer_unit(name)
            if name == "cli.artifact_bytes":
                value = median([r["artifact_bytes"] for r in traced])
            elif name == "trace.overhead_s":
                value = median([r["wall_s"] for r in traced]) - wall
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]),
                            "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        print(f"  failed_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_names() -> list[str]:
    return (list(TIMED) + ["np_spectral.spectral_decomposition_s"]
            + [f"cli.{c}_s" for c in CLI_COMMANDS] + ["cli.self_s"] + list(COUNTED)
            + ["np_spectral.spectrum_reuse_ratio", "cli.artifact_bytes",
               "trace.overhead_s"])


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
