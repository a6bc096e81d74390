"""Output checks, one per planned command.

``check(spec, out_dir)`` returns None when the command's artifacts are
right and a one-line reason otherwise.  The thresholds are those of the
acceptance suite (criteria 01, 02, 06 and 08); lattice error rows are
compared with ``spec["reference"]``, the dense rows of oracle.py.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

C1 = 4.0 * math.pi / 27.0


def _csv(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) if v not in ("true", "false") else float(v == "true") for v in r]
            for r in rows[1:]]


def _cplx(v) -> complex:
    """A complex number as the CLI's JSON writer renders it."""
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


def _clusters(eigenvalues, tol=1e-3) -> list[list[int]]:
    order = sorted(range(len(eigenvalues)), key=lambda i: -eigenvalues[i])
    groups = [[order[0]]]
    for i in order[1:]:
        if abs(eigenvalues[i] - eigenvalues[groups[-1][-1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def np_spectrum(spec, out: Path) -> str | None:
    data = json.loads((out / "np_spectrum.json").read_text())
    if not data["gram_certificate"] < 1e-10:
        return f"gram certificate {data['gram_certificate']:.3e} >= 1e-10"
    lam = data["eigenvalues"]
    if not all(-0.5 < x < 0.5 for x in lam):
        return "eigenvalue outside (-1/2, 1/2)"
    if spec["mesh"] != "sphere":
        return None
    groups = _clusters(lam)
    means = [sum(lam[i] for i in g) / len(g) for g in groups]
    for n in (1, 2, 3):
        target = 1.0 / (2.0 * (2 * n + 1))
        err = min(abs(m - target) for m in means) / target
        if not err < 0.02:
            return f"no sphere cluster within 2% of 1/{2 * (2 * n + 1)} ({err:.2%})"
    lead = min(range(len(groups)), key=lambda j: abs(means[j] - 1.0 / 6.0))
    c1 = sum(re ** 2 + im ** 2 for i in groups[lead] for re, im in data["moments"][i]) / 3.0
    if not abs(c1 - C1) / C1 < 0.02:
        return f"c_1 = {c1:.6f} not within 2% of 4 pi/27"
    return None


def resonances(spec, out: Path) -> str | None:
    data = json.loads((out / "resonances.json").read_text())
    bg = data["background"]
    k2b2 = bg["omega"] ** 2 * bg["eps_m"] * bg["mu_m"] * bg["beta_m"] ** 2
    for mode in data["modes"]:
        if "error" in mode:
            return f"mode {mode['lambda_n']:.6f} unresolved: {mode['error']}"
        lam = mode["lambda_n"]
        star = -bg["eps_m"] * (0.5 + lam) / (0.5 - lam) / (1.0 - k2b2 * (0.5 - lam))
        got = _cplx(mode["eps_star"])
        if not abs(got - star) <= 1e-12 * abs(star):
            return f"eps_star {got} differs from the closed form {star}"
        if not abs(_cplx(mode["direct_root"]) - star) <= 1e-9 * abs(star):
            return f"root {mode['direct_root']} misses eps_star {star}"
    return None


def dipole_field(spec, out: Path) -> str | None:
    rows = np.array(_csv(out / "dipole_field.csv"))
    probes = np.array(_csv(Path(spec["probes"])))
    if rows.shape != (len(probes), 15):
        return f"field table shape {rows.shape}, expected ({len(probes)}, 15)"
    if not np.array_equal(rows[:, :3], probes):
        return "field table positions differ from the probes"
    if not np.all(np.isfinite(rows)):
        return "non-finite field value"
    return None


def eff_sweep(spec, out: Path) -> str | None:
    rows = np.array(_csv(out / "eff_sweep.csv"))
    summary = json.loads((out / "eff_sweep_summary.json").read_text())
    if len(rows) != summary["points"]:
        return f"{len(rows)} rows for {summary['points']} points"
    # points the sweep flags as failed (singular after one nudge) carry NaN
    if np.sum(~np.all(np.isfinite(rows), axis=1)) != summary["failed"]:
        return "non-finite rows differ from the failed-point count"
    if spec["preset"] == "figure1-right":
        mu_dev = float(np.max(np.abs(rows[:, 3] - 1.0) + np.abs(rows[:, 4])))
        if not (mu_dev < 1e-10 and summary["resonance_peak_magnitude"] > 1e2):
            return f"achiral mu deviation {mu_dev:.2e} or resonance peak not visible"
    if spec["preset"] == "figure1-left":
        if not summary["double_negative_count"] > 0:
            return "no double-negative rows"
        if not (summary["double_negative_min"] - 1e-2 <= summary["resonance_abscissa"]
                <= summary["double_negative_max"] + 1e-2):
            return "resonance abscissa not adjacent to the double-negative window"
    return None


def eff_closed_form(spec, out: Path) -> str | None:
    summary = json.loads((out / "eff_closed_form_summary.json").read_text())
    dev = summary["closed_form_vs_inversion_max_dev"]
    if not dev < 1e-10:
        return f"closed form vs inversion deviation {dev:.3e} >= 1e-10"
    if len(_csv(out / "eff_closed_form.csv")) != spec["count"]:
        return "closed-form table length differs from the s values"
    return None


def check_assumptions(spec, out: Path) -> str | None:
    report = json.loads((out / "check_assumptions.json").read_text())
    for part in ("distribution", "uniform_invertibility"):
        rows = report[part]["rows"]
        if [r["N"] for r in rows] != spec["n_list"]:
            return f"{part} rows cover N = {[r['N'] for r in rows]}"
        if not all(math.isfinite(r["statistic"]) and r["statistic"] > 0 for r in rows):
            return f"{part} statistic not finite and positive"
    return None


def lattice_errors(spec, out: Path) -> str | None:
    rows = _csv(out / spec["table"])
    if [int(r[0]) for r in rows] != spec["n_list"]:
        return f"error rows cover N = {[int(r[0]) for r in rows]}"
    ref = spec.get("reference", {})
    for r in rows:
        N, err = int(r[0]), r[1]
        # rows are already relative to the volume reference's scattered
        # field, so 1e-10 here matches the solvers' 1e-10 residual tolerance
        if N in ref and not abs(err - ref[N]) <= 1e-10:
            return f"N={N} error {err!r} differs from the dense reference {ref[N]!r}"
    if not all(math.isfinite(r[1]) for r in rows):
        return "non-finite error row"
    field = out / "foldy_field.csv"
    if field.is_file() and not np.all(np.isfinite(_csv(field))):
        return "non-finite lattice field value"
    return None


CHECKS = {
    "np-spectrum": np_spectrum,
    "resonances": resonances,
    "dipole-field": dipole_field,
    "eff-sweep": eff_sweep,
    "eff-closed-form": eff_closed_form,
    "check-assumptions": check_assumptions,
    "lattice-errors": lattice_errors,
}


def check(spec: dict, out: Path) -> str | None:
    try:
        return CHECKS[spec["kind"]](spec, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
