"""Per-layer tracing for the benchmark's traced runs.

The program has no timing hook yet, so the tracer wraps the public
functions of each chiralmeta module from outside.  ``cli`` and ``foldy``
import by name (``chiralmeta.foldy.green_dyadic``,
``chiralmeta.cli.sphere_spectrum``), so every chiralmeta namespace that
holds a wrapped function gets the wrapper.  ``scipy.linalg.eigh`` and
``scipy.linalg.lu_factor`` are looked up on the ``scipy.linalg`` module at
call time, so that one attribute is replaced.

Spans (name, start, end, parent, run id) stay in memory and are written
once the workload ends.  Hot leaf functions (``mode_params``,
``invert_effective``) are only counted.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Per-layer metrics (run.per_layer_names gives the full list and order).  A
# name ending in "_s" is a time in seconds; the rest are counts or bytes.
TIMED = {
    # metric name: span name
    "mesh.mesh_from_file_s": "mesh.mesh_from_file",
    "np_spectral.assemble_single_layer_s": "np_spectral.assemble_single_layer",
    "np_spectral.assemble_np_s": "np_spectral.assemble_np",
    "np_spectral.eigh_s": "np_spectral.eigh",
    "polarization.resonant_eps_s": "polarization.resonant_eps",
    "polarization.find_resonance_root_s": "polarization.find_resonance_root",
    "effective.sweep_figure_s": "effective.sweep_figure",
    "background.green_dyadic_s": "background.green_dyadic",
    "background.incident_six_s": "background.incident_six",
    "dipole.scattered_field_dipole_s": "dipole.scattered_field_dipole",
    "foldy.solve_foldy_s": "foldy.solve_foldy",
    "foldy.solve_homogenized_ls_s": "foldy.solve_homogenized_ls",
    "foldy.eval_field_s": "foldy.eval_field",
    "foldy.check_distribution_s": "foldy.check_distribution",
    "foldy.uniform_invertibility_stat_s": "foldy.uniform_invertibility_stat",
    "foldy.lu_factor_s": "foldy.lu_factor",
}
CLI_COMMANDS = ("np_spectrum", "resonances", "eff_sweep", "eff_closed_form",
                "dipole_field", "foldy", "compare_hom", "check_assumptions")
COUNTED = ("mesh.panels", "np_spectral.eigh_flops", "np_spectral.spectra_computed",
           "polarization.mode_params_calls", "effective.sweep_points",
           "effective.invert_effective_calls", "effective.nudged_points",
           "effective.failed_points", "background.green_dyadic_points", "dipole.probes",
           "foldy.lu_flops", "foldy.dense_bytes", "foldy.unknowns_solved",
           "foldy.volume_sweeps", "foldy.lu_fallbacks", "foldy.solve_failures")

_SWEEPS_RE = re.compile(r"in (\d+) sweeps")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(x) -> int:
    """Number of 3-vectors in an array of shape (..., 3)."""
    return int(np.prod(np.shape(x)[:-1]))


class Tracer:
    """Collects spans and counters for one workload process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._meshes: set[bytes] = set()

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out
        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @staticmethod
    def _replace(module, attr, wrapper, namespaces) -> None:
        """Put ``wrapper`` wherever ``module.attr`` is bound by name."""
        orig = getattr(module, attr)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)

    def install(self) -> None:
        import scipy.linalg

        import chiralmeta.cli as cli
        from chiralmeta import (background, dipole, effective, foldy, mesh, np_spectral,
                                polarization)

        spaces = [m for name, m in sys.modules.items()
                  if name == "chiralmeta" or name.startswith("chiralmeta.")]
        c = self.counts

        def panels(a, k, out):
            c["mesh.panels"] += out.n_panels

        def spectrum(a, k, out):
            c["np_spectral.spectra_computed"] += 1
            self._meshes.add(_arg(a, k, 2, "mesh").centroids.tobytes())

        def eigh(a, k, out):
            n = a[0].shape[0]
            # Cholesky n^3/3, reduction to standard form and back-substitution
            # ~2n^3, tridiagonal reduction plus eigenvectors ~9n^3
            c["np_spectral.eigh_flops"] += (1.0 / 3.0 + 2.0 + 9.0) * n ** 3

        def sweep(a, k, out):
            c["effective.sweep_points"] += len(out)
            c["effective.nudged_points"] += sum(r.nudged for r in out)
            c["effective.failed_points"] += sum(r.failed for r in out)

        def kernel(a, k, out):
            c["background.green_dyadic_points"] += _points(_arg(a, k, 1, "x"))

        def probes(a, k, out):
            c["dipole.probes"] += _points(_arg(a, k, 3, "x"))

        def lattice(a, k, out):
            c["foldy.unknowns_solved"] += out.solver_report["size"]

        def volume(a, k, out):
            report = out.solver_report
            c["foldy.unknowns_solved"] += report["size"]
            c["foldy.volume_sweeps"] += report.get("iterations", 0)
            c["foldy.lu_fallbacks"] += report["method"] == "lu"

        def failure(exc):
            if isinstance(exc, foldy.FoldyError):
                c["foldy.solve_failures"] += 1
                m = _SWEEPS_RE.search(str(exc))
                if m:
                    c["foldy.volume_sweeps"] += int(m.group(1))

        def lu(a, k, out):
            A = a[0]
            # complex LU: (2/3) n^3 complex multiply-adds, 8 real flops each
            c["foldy.lu_flops"] += (8.0 / 3.0) * A.shape[0] ** 3
            c["foldy.dense_bytes"] = max(c["foldy.dense_bytes"], A.nbytes)

        spans = [
            (mesh, "mesh_from_file", "mesh.mesh_from_file", panels, None),
            (np_spectral, "assemble_single_layer", "np_spectral.assemble_single_layer",
             None, None),
            (np_spectral, "assemble_np", "np_spectral.assemble_np", None, None),
            (np_spectral, "spectral_decomposition", "np_spectral.spectral_decomposition",
             spectrum, None),
            (polarization, "resonant_eps", "polarization.resonant_eps", None, None),
            (polarization, "find_resonance_root", "polarization.find_resonance_root",
             None, None),
            (effective, "sweep_figure", "effective.sweep_figure", sweep, None),
            (background, "green_dyadic", "background.green_dyadic", kernel, None),
            (background, "incident_six", "background.incident_six", None, None),
            (dipole, "scattered_field_dipole", "dipole.scattered_field_dipole", probes, None),
            (foldy, "solve_foldy", "foldy.solve_foldy", lattice, failure),
            (foldy, "solve_homogenized_ls", "foldy.solve_homogenized_ls", volume, failure),
            (foldy, "eval_foldy_field", "foldy.eval_field", None, None),
            (foldy, "eval_homogenized_field", "foldy.eval_field", None, None),
            (foldy, "check_distribution", "foldy.check_distribution", None, None),
            (foldy, "uniform_invertibility_stat", "foldy.uniform_invertibility_stat",
             None, None),
            (cli, "main", "cli.main", None, None),
        ] + [(cli, f"cmd_{cmd}", f"cli.{cmd}", None, None) for cmd in CLI_COMMANDS]
        for module, attr, name, on_result, on_error in spans:
            wrapper = self._span(name, getattr(module, attr), on_result, on_error)
            self._replace(module, attr, wrapper, spaces)
        for module, attr, name in ((polarization, "mode_params",
                                    "polarization.mode_params_calls"),
                                   (effective, "invert_effective",
                                    "effective.invert_effective_calls")):
            self._replace(module, attr, self._counter(name, getattr(module, attr)), spaces)
        for attr, name, on_result in (("eigh", "np_spectral.eigh", eigh),
                                      ("lu_factor", "foldy.lu_factor", lu)):
            setattr(scipy.linalg, attr,
                    self._span(name, getattr(scipy.linalg, attr), on_result))

    # -- results -------------------------------------------------------------

    def _self_times(self) -> list[float]:
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def metrics(self) -> dict:
        total = defaultdict(float)
        own = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self._self_times()):
            total[name] += end - start
            own[name] += self_s
        out = {m: total[span] for m, span in TIMED.items()}
        out["np_spectral.spectral_decomposition_s"] = own["np_spectral.spectral_decomposition"]
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        out["cli.self_s"] = own["cli.main"] + sum(own[f"cli.{cmd}"] for cmd in CLI_COMMANDS)
        for name in COUNTED:
            out[name] = self.counts[name]
        computed = self.counts["np_spectral.spectra_computed"]
        # distinct meshes / spectra computed; 0 when no mesh spectrum is built
        out["np_spectral.spectrum_reuse_ratio"] = (len(self._meshes) / computed
                                                   if computed else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
