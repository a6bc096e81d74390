"""Command-line interface: reproducible file-based workflows.

Every command reads a key=value config (optionally seeded by a named
preset), writes CSV/JSON artifacts with full-precision numbers, and is
deterministic given its inputs.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .background import (BackgroundError, ChiralBackground, PlaneWaveSpec,
                         circular_wave, incident_six)
from .dipole import FarFieldError, ParticleInstance, scattered_field_dipole
from .effective import (DiluteConfig, EffectiveError, effective_closed_form,
                        invert_effective, s_limit_tilde, shifted_resonances, sweep_figure,
                        sweep_summary, tilde_from_definition)
from .foldy import (_MAX_AXIS, FoldyError, check_distribution, compare_homogenization,
                    eval_foldy_field, probe_ring, solve_foldy, uniform_invertibility_stat)
from .mesh import MeshError, icosphere, mesh_from_file
from .np_spectral import NPSpectrum, SpectralError, mesh_spectrum, unit_ball_spectrum
from .polarization import (RootFindError, SingularModeError, drude_omega_for_eps,
                           find_resonance_root, resonant_eps)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, invalid parameter."""


# the two panels of figure 1 differ only in the background chirality
_FIGURE1 = {
    "omega": "1", "eps_m": "1", "mu_m": "1",
    "volume_scale": "3", "n_per_axis": "125", "dilution_exponent": "0.965",
    "moment_scale": "auto", "mesh_source": "analytic", "mode_index": "0",
    "eps_c_min": "-4", "eps_c_max": "-1", "eps_c_points": "1200",
    "dense_window": "5e-5", "dense_points": "800",
}
_PRESETS = {
    "figure1-left": {**_FIGURE1, "beta_m": "1.09", "allow_kbeta_ge_1": "true"},
    "figure1-right": {**_FIGURE1, "beta_m": "0"},
}

# the published resonance abscissa the left-panel sweep is compared against
_FIGURE1_REFERENCE_ABSCISSA = -2.94455


# ---------------------------------------------------------------------------
# config plumbing


def _read_lines(path: str, what: str) -> list[str]:
    """The lines of a UTF-8 text file; any failure is a ``ConfigError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path, "config file"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def build_config(args) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.preset is not None:
        if args.preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(_PRESETS))}")
        cfg.update(_PRESETS[args.preset])
    if args.config is not None:
        cfg.update(parse_config_file(args.config))
    return cfg


def _numbers(parse, length=None):
    """A parser of one float or int (``length`` 1) or of a comma-separated
    list of them, ``length`` long if given; a float must be finite."""
    noun = {float: "a number", int: "an integer"}[parse] + ("" if length == 1 else " list")

    def read(raw):
        tokens = [raw] if length == 1 else [t for t in raw.split(",") if t.strip()]
        try:
            values = tuple(map(parse, tokens))
        except ValueError:
            raise ValueError(f"not {noun}: {raw!r}") from None
        if parse is float and not all(map(math.isfinite, values)):
            raise ValueError(f"not finite: {raw!r}")
        if length is not None and len(values) != length:
            raise ValueError(f"expected {length} components, got {len(values)}")
        return values[0] if length == 1 else values
    return read


_FLOAT, _INT, _VEC3 = _numbers(float, 1), _numbers(int, 1), _numbers(float, 3)
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _bool(raw) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOLS[raw.lower()]


def _probes_file(path) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(_read_lines(path, "probes file"), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("x"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected x,y,z")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigError(f"{path}:{lineno}: coordinate not finite")
    if not rows:
        raise ConfigError(f"probes file {path} holds no points")
    return np.array(rows, dtype=float)


def _bound(ok, words):
    """A check that ``ok`` holds for a value or each entry of a non-empty list:
    (key, value, the keys resolved before it) -> refusal message or None."""
    def check(key, value, resolved):
        if not isinstance(value, tuple):
            return None if ok(value) else f"{key} must be {words}, got {value}"
        if not value:
            return f"{key} must not be empty"
        bad = [v for v in value if not ok(v)]
        return f"{key} entries must be {words}, got {min(bad)}" if bad else None
    return check


_AT_LEAST_1 = _bound(lambda v: v >= 1, "at least 1")
_POSITIVE = _bound(lambda v: v > 0, "positive")
_NONNEGATIVE = _bound(lambda v: v >= 0, "nonnegative")
_AXIS = _bound(lambda v: 1 <= v <= _MAX_AXIS, f"in [1, {_MAX_AXIS}]")   # cells per axis


def _lattice_sizes(key, sizes, resolved):
    """Lattice sizes per axis, each at least 1, at most ``_MAX_AXIS`` and with
    particles that fit their cells at the resolved scaling (``DiluteConfig``)."""
    refusal = _AT_LEAST_1(key, sizes, resolved) or _AXIS(key, sizes, resolved)
    for n in () if refusal else sizes:
        try:
            DiluteConfig(resolved["volume_scale"], n, resolved["dilution_exponent"], 1.0)
        except EffectiveError as exc:
            return f"{key} entry {n}: {exc}"
    return refusal


def _eta(key, eta, resolved):
    """eta, nonnegative, and positive where a volume grid is solved: in the
    commands that read ``grid_m``, unless ``compare`` is off (both resolved
    before eta).  The volume keeps its self cell, where the kernel
    1/(4 pi r + eta) needs eta > 0."""
    if eta == 0 and "grid_m" in resolved and resolved.get("compare", True):
        return f"{key} must be positive to solve the volume grid, got {eta}"
    return _NONNEGATIVE(key, eta, resolved)


# key: (parser of its config text, which refuses with a ValueError;
#       default as config text, None to leave it unset; check or None),
# grouped as the key sets below read them
_KEYS = {
    "eps_m": (_FLOAT, "1", None), "mu_m": (_FLOAT, "1", None), "beta_m": (_FLOAT, "0", None),
    "omega": (_FLOAT, "1", None), "allow_kbeta_ge_1": (_bool, "false", None),
    "mesh_source": (str, "analytic", None), "subdivisions": (_INT, "3", None),
    "mode_count": (_INT, "8", _AT_LEAST_1),
    "mode_index": (_INT, "0", _NONNEGATIVE), "volume_scale": (_FLOAT, "3", _POSITIVE),
    "n_per_axis": (_INT, "125", None), "dilution_exponent": (_FLOAT, "0.965", _POSITIVE),
    "moment_scale": (lambda raw: raw if raw == "auto" else _FLOAT(raw), "auto", None),
    "drude_omega_p": (_FLOAT, None, _POSITIVE), "drude_tau": (_FLOAT, "0", _NONNEGATIVE),
    "eps_c_min": (_FLOAT, "-4", None), "eps_c_max": (_FLOAT, "-1", None),
    "eps_c_points": (_INT, "1200", lambda key, points, resolved: None
                     if resolved["eps_c_max"] > resolved["eps_c_min"] and points >= 2
                     else "sweep grid needs eps_c_max > eps_c_min and >= 2 points"),
    "dense_window": (_FLOAT, "0", _NONNEGATIVE), "dense_points": (_INT, "800", _AT_LEAST_1),
    # the NP eigenvalues on the mean-zero subspace lie in (-1/2, 1/2)
    "lambda_n": (_FLOAT, "0.16666666666666666", _bound(lambda v: abs(v) < 0.5, "in (-1/2, 1/2)")),
    "s_values": (_numbers(float), "0,0.1,0.5,0.9,0.99", _bound(lambda s: 0 <= s < 1, "in [0, 1)")),
    "eps_c_re": (_FLOAT, "-3", None), "eps_c_im": (_FLOAT, "0", None),
    "delta": (_FLOAT, None, _POSITIVE), "center": (_VEC3, "0.5,0.5,0.5", None),
    "far_field_factor": (_FLOAT, "10", _POSITIVE),
    "direction": (_VEC3, "0,0,1", None), "handedness": (str, "left", None),
    "amplitude": (_FLOAT, "1", None),
    "probes_file": (_probes_file, None, None), "probe_count": (_INT, "16", _AT_LEAST_1),
    "n_list": (_numbers(int), None, _lattice_sizes), "eta": (_FLOAT, "0.1", _eta),
    "grid_m": (_INT, "10", _AXIS), "compare": (_bool, "true", None),
}

_BACKGROUND = ("eps_m", "mu_m", "beta_m", "omega", "allow_kbeta_ge_1")
_SPECTRUM = ("mesh_source", "subdivisions", "mode_count")
_MODEL = _BACKGROUND + _SPECTRUM + ("mode_index", "volume_scale", "n_per_axis",
                                    "dilution_exponent", "moment_scale")
_WAVE = ("direction", "handedness", "amplitude")
_PROBES = ("probes_file", "probe_count")
_LATTICE = _MODEL + ("eps_c_re", "eps_c_im") + _WAVE + _PROBES + ("n_list", "grid_m")

# the keys each command reads, in the order they are checked, and the
# defaults it sets differently from the table
_COMMANDS = {
    "np-spectrum": (_SPECTRUM, {"mesh_source": "icosphere"}),
    "resonances": (_MODEL + ("drude_omega_p", "drude_tau"), {}),
    "eff-sweep": (_MODEL + ("eps_c_min", "eps_c_max", "eps_c_points", "dense_window",
                            "dense_points"), {}),
    "eff-closed-form": (_BACKGROUND + ("lambda_n", "s_values"), {}),
    "dipole-field": (_MODEL + ("eps_c_re", "eps_c_im", "delta", "center",
                               "far_field_factor") + _WAVE + _PROBES, {}),
    # an unset eta has two defaults, set in cmd_foldy
    "foldy": (_LATTICE + ("compare", "eta"), {"n_list": "2,3,4", "eta": None}),
    "compare-hom": (_LATTICE + ("eta",), {"n_list": "2,3,4,5"}),
    "check-assumptions": (_MODEL + ("n_list", "eta", "probe_count"),
                          {"n_list": "3,4,5,6", "eta": "1.0", "probe_count": "8"}),
}

# every key any command reads; unknown keys are rejected up front
_KNOWN_KEYS = frozenset(key for keys, _ in _COMMANDS.values() for key in keys)


def resolve(command: str, cfg: Mapping[str, str]) -> Mapping:
    """Every key ``command`` reads, parsed and checked, as one read-only mapping
    (None for a key left unset); keys the command does not read go unchecked."""
    keys, defaults = _COMMANDS[command]
    resolved: dict = {}
    for key in keys:
        parse, default, check = _KEYS[key]
        raw = cfg.get(key, defaults.get(key, default))
        try:
            value = None if raw is None else parse(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if value is not None and check is not None and (refusal := check(key, value, resolved)):
            raise ConfigError(refusal)
        resolved[key] = value
    return MappingProxyType(resolved)


def build_background(cfg) -> ChiralBackground:
    try:
        return ChiralBackground(eps_m=cfg["eps_m"], mu_m=cfg["mu_m"], beta_m=cfg["beta_m"],
                                omega=cfg["omega"], allow_kbeta_ge_1=cfg["allow_kbeta_ge_1"])
    except BackgroundError as exc:
        raise ConfigError(str(exc)) from exc


def build_spectrum(cfg):
    source = cfg["mesh_source"]
    if source == "analytic":
        return unit_ball_spectrum()
    try:
        mesh = icosphere(cfg["subdivisions"]) if source == "icosphere" else mesh_from_file(source)
    except (OSError, MeshError) as exc:
        raise ConfigError(f"cannot read mesh {source!r}: {exc}") from exc
    # the mean-zero subspace has n_panels - 1 modes
    if cfg["mode_count"] > mesh.n_panels - 1:
        raise ConfigError(f"mode_count must be at most {mesh.n_panels - 1} for "
                          f"{mesh.n_panels} panels, got {cfg['mode_count']}")
    return mesh_spectrum(mesh, cfg["mode_count"])


def _dilute(cfg, moment_scale: float) -> DiluteConfig:
    try:
        return DiluteConfig(cfg["volume_scale"], cfg["n_per_axis"], cfg["dilution_exponent"],
                            moment_scale)
    except EffectiveError as exc:
        raise ConfigError(str(exc)) from exc


def load_model(cfg) -> tuple[ChiralBackground, NPSpectrum, int, DiluteConfig]:
    """Background, shape spectrum, resonant mode index and dilute lattice
    scaling: the inputs every particle and lattice command starts from.
    The scaling is checked before the spectrum is computed."""
    bg = build_background(cfg)
    auto = cfg["moment_scale"] == "auto"
    # auto is the mode's c_n, known only with the spectrum: 1 stands in
    dilute = _dilute(cfg, 1.0 if auto else cfg["moment_scale"])
    spectrum = build_spectrum(cfg)
    mode_index = cfg["mode_index"]
    clusters = spectrum.clusters()
    if not 0 <= mode_index < len(clusters):
        raise ConfigError(f"mode_index {mode_index} out of range for {len(clusters)} clusters")
    if auto:
        dilute = _dilute(cfg, clusters[mode_index].c_n)
    return bg, spectrum, mode_index, dilute


def build_incident(cfg) -> PlaneWaveSpec:
    try:
        return circular_wave(cfg["direction"], cfg["handedness"],
                             amplitude=complex(cfg["amplitude"]))
    except BackgroundError as exc:
        raise ConfigError(str(exc)) from exc


def load_probes(cfg) -> np.ndarray:
    """The probes file's points, or without one a ring of ``probe_count``."""
    probes = cfg["probes_file"]
    return probe_ring(cfg["probe_count"]) if probes is None else probes


# ---------------------------------------------------------------------------
# deterministic writers (17 significant digits, LF endings, stable order)


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


_BOOL_TEXT = {True: "true", False: "false"}


def _column_text(values) -> list[str]:
    """``fmt`` over one CSV column, its element type decided once."""
    values = np.asarray(values)
    if values.dtype == bool:
        return list(map(_BOOL_TEXT.__getitem__, values.tolist()))
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return list(map("{:.17g}".format, values.tolist()))


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if np.isnan(obj):
            return '"nan"'
        if np.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        text = fmt(float(obj))
        return "-0.0" if text == "-0" else text   # "-0" reads back as the integer 0
    if isinstance(obj, (complex, np.complexfloating)):
        return _json_render({"re": float(obj.real), "im": float(obj.imag)}, indent)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((_json_render(obj) + "\n").encode("utf-8"))


def write_csv(path: Path, header: str, columns) -> None:
    """A CSV file from its columns, each cell rendered as ``fmt`` renders it."""
    cells = zip(*map(_column_text, columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(r) for r in cells]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_field_csv(path: Path, points: np.ndarray, fields: np.ndarray) -> None:
    """Rows x, y, z, then the real and imaginary part of each of the six
    field components."""
    parts = np.stack([fields.real, fields.imag], axis=-1).reshape(len(fields), -1)
    write_csv(path, "x,y,z,re_ex,im_ex,re_ey,im_ey,re_ez,im_ez,"
                    "re_hx,im_hx,re_hy,im_hy,re_hz,im_hz", np.hstack([points, parts]).T)


def write_error_table(path: Path, n_list, errors, eta: float, eps_c: complex) -> None:
    """One lattice-versus-volume probe error row per lattice size."""
    write_csv(path, "N,rel_l2_error,eta,eps_c_re,eps_c_im", [n_list, errors] + [
        np.full(len(n_list), v) for v in (eta, eps_c.real, eps_c.imag)])


# ---------------------------------------------------------------------------
# commands


def cmd_np_spectrum(cfg, out: Path) -> int:
    spectrum = build_spectrum(cfg)
    dest = out / "np_spectrum.json"
    write_json(dest, spectrum.to_json_dict())
    clusters = spectrum.clusters()
    print(f"wrote {dest} ({len(spectrum.eigenvalues)} modes, {len(clusters)} clusters)")
    for c in clusters:
        print(f"  cluster eigenvalue {fmt(c.eigenvalue)}  size {len(c.indices)}  "
              f"c_n {fmt(c.c_n)}")
    return EXIT_OK


def cmd_resonances(cfg, out: Path) -> int:
    bg, spectrum, _, dilute = load_model(cfg)
    omega_p = cfg["drude_omega_p"]
    modes = []
    successes = 0
    for cluster in spectrum.clusters():
        lam = cluster.eigenvalue
        entry: dict = {"lambda_n": lam}
        try:
            star = resonant_eps(bg, lam)
            entry["eps_star"] = star
            root = find_resonance_root(bg, lam, bracket=(star.real - 0.4, star.real + 0.4))
            entry["direct_root"] = root
            s_eps, s_mu = shifted_resonances(bg, lam, dilute)
            entry["shifted_for_eps_eff"] = s_eps
            entry["shifted_for_mu_eff"] = s_mu
            if omega_p is not None:
                entry["drude_omega"] = drude_omega_for_eps(star, omega_p, cfg["drude_tau"])
            successes += 1
        except (SingularModeError, RootFindError, EffectiveError, ValueError) as exc:
            entry["error"] = str(exc)
        modes.append(entry)
    report = {
        "background": {"eps_m": bg.eps_m, "mu_m": bg.mu_m, "beta_m": bg.beta_m,
                       "omega": bg.omega, "k_beta": bg.k * abs(bg.beta_m),
                       "out_of_assumption": bg.out_of_assumption},
        "modes": modes,
    }
    dest = out / "resonances.json"
    write_json(dest, report)
    print(f"wrote {dest} ({successes}/{len(modes)} modes resolved)")
    return EXIT_OK if successes else EXIT_NUMERICAL


def _sweep_grid(cfg, bg, spectrum, mode_index) -> np.ndarray:
    grid = np.linspace(cfg["eps_c_min"], cfg["eps_c_max"], cfg["eps_c_points"])
    window = cfg["dense_window"]
    if window > 0.0:
        lam = spectrum.clusters()[mode_index].eigenvalue
        star = resonant_eps(bg, lam).real
        dense = np.linspace(star - window, star + window, cfg["dense_points"])
        grid = np.unique(np.concatenate([grid, dense]))
    return grid


def cmd_eff_sweep(cfg, out: Path, preset: str | None) -> int:
    bg, spectrum, mode_index, dilute = load_model(cfg)
    grid = _sweep_grid(cfg, bg, spectrum, mode_index)
    sweep = sweep_figure(bg, dilute, spectrum, grid, mode_index=mode_index)
    dest_csv = out / "eff_sweep.csv"
    write_csv(dest_csv,
              "eps_c,re_eps_eff,im_eps_eff,re_mu_eff,im_mu_eff,"
              "double_negative,out_of_assumption",
              [sweep.eps_c.real, sweep.eps_eff.real, sweep.eps_eff.imag, sweep.mu_eff.real,
               sweep.mu_eff.imag, sweep.double_negative,
               np.full(len(sweep), sweep.out_of_assumption)])
    reference = _FIGURE1_REFERENCE_ABSCISSA if preset == "figure1-left" else None
    summary = sweep_summary(sweep, reference_abscissa=reference)
    dest_json = out / "eff_sweep_summary.json"
    write_json(dest_json, summary)
    print(f"wrote {dest_csv} ({len(sweep)} points) and {dest_json}")
    if "resonance_abscissa" in summary:
        print(f"  resonance abscissa {fmt(summary['resonance_abscissa'])}")
    if reference is not None:
        print(f"  deviation from {fmt(reference)}: {fmt(summary['abscissa_deviation'])}")
    if summary["double_negative_count"]:
        print(f"  double-negative rows: {summary['double_negative_count']} in "
              f"[{fmt(summary['double_negative_min'])}, {fmt(summary['double_negative_max'])}]")
    return EXIT_OK


def cmd_eff_closed_form(cfg, out: Path) -> int:
    bg = build_background(cfg)
    lam = cfg["lambda_n"]
    s_values = np.array(cfg["s_values"])
    eff = effective_closed_form(bg, lam, s_values)
    via = invert_effective(s_limit_tilde(bg, lam, s_values), bg)
    params = np.array([eff.eps_eff, eff.mu_eff, eff.beta_eff])
    worst = float(np.max(np.abs(params - [via.eps_eff, via.mu_eff, via.beta_eff])))
    dest = out / "eff_closed_form.csv"
    write_csv(dest, "s,re_eps_eff,im_eps_eff,re_mu_eff,im_mu_eff,re_beta_eff,im_beta_eff",
              [s_values] + [part for p in params for part in (p.real, p.imag)])
    # double-negative onset scan along s
    s_grid = np.linspace(1e-6, 0.999, 2000)
    eff = effective_closed_form(bg, lam, s_grid)
    neg = (eff.eps_eff.real < 0) & (eff.mu_eff.real < 0)
    # the double-negative tail starts after the last point outside it
    outside = np.flatnonzero(~neg)
    start = outside[-1] + 1 if outside.size else 0
    s0 = float(s_grid[start]) if start < len(s_grid) else None
    summary = {
        "lambda_n": lam,
        "k_beta": bg.k * abs(bg.beta_m),
        "closed_form_vs_inversion_max_dev": worst,
        "double_negative_onset_s0": s0,
        "double_negative_to": 0.999 if s0 is not None else None,
    }
    write_json(out / "eff_closed_form_summary.json", summary)
    print(f"wrote {dest}; closed-form vs inversion max deviation {fmt(worst)}")
    if s0 is not None:
        print(f"  double-negative for s in ({fmt(s0)}, 0.999)")
    return EXIT_OK


def cmd_dipole_field(cfg, out: Path) -> int:
    wave = build_incident(cfg)
    bg, spectrum, mode_index, dilute = load_model(cfg)
    particle = ParticleInstance(
        center=cfg["center"], delta=dilute.delta if cfg["delta"] is None else cfg["delta"],
        eps_c=complex(cfg["eps_c_re"], cfg["eps_c_im"]), spectrum=spectrum,
        cluster_index=mode_index, far_field_factor=cfg["far_field_factor"])
    probes = load_probes(cfg)
    inc_center = incident_six(bg, wave, particle.center)
    scattered = scattered_field_dipole(bg, particle, inc_center, probes)
    total = incident_six(bg, wave, probes) + scattered
    dest = out / "dipole_field.csv"
    write_field_csv(dest, probes, total)
    print(f"wrote {dest} ({probes.shape[0]} probes)")
    return EXIT_OK


def cmd_foldy(cfg, out: Path) -> int:
    wave = build_incident(cfg)
    bg, spectrum, mode_index, dilute = load_model(cfg)
    eps_c = complex(cfg["eps_c_re"], cfg["eps_c_im"])
    probes = load_probes(cfg)
    eta = cfg["eta"]  # unset: a tenth of the spacing for the field lattice, 0.1 to compare

    # probe CSV for the largest lattice, its particles sized for that lattice
    n_big = max(cfg["n_list"])
    big = dataclasses.replace(dilute, n_per_axis=n_big)
    tilde = tilde_from_definition(bg, eps_c, big, spectrum, mode_index=mode_index)
    state = solve_foldy(bg, tilde, n_big, 0.1 / n_big if eta is None else eta, wave)
    fields = eval_foldy_field(bg, state, probes)
    # both results before either file, so a failed comparison writes nothing
    if cfg["compare"]:
        eta = 0.1 if eta is None else eta
        errors = compare_homogenization(
            bg, tilde_from_definition(bg, eps_c, dilute, spectrum, mode_index=mode_index),
            cfg["n_list"], eta, probes, cfg["grid_m"], wave)
    dest_csv = out / "foldy_field.csv"
    write_field_csv(dest_csv, probes, fields)
    print(f"wrote {dest_csv} (N={n_big}, residual {fmt(state.solver_report['residual'])})")

    if cfg["compare"]:
        dest_tab = out / "foldy_errors.csv"
        write_error_table(dest_tab, cfg["n_list"], errors, eta, eps_c)
        print(f"wrote {dest_tab}")
    return EXIT_OK


def cmd_compare_hom(cfg, out: Path) -> int:
    wave = build_incident(cfg)
    bg, spectrum, mode_index, dilute = load_model(cfg)
    eps_c = complex(cfg["eps_c_re"], cfg["eps_c_im"])
    tilde = tilde_from_definition(bg, eps_c, dilute, spectrum, mode_index=mode_index)
    errs = compare_homogenization(bg, tilde, cfg["n_list"], cfg["eta"], load_probes(cfg),
                                  cfg["grid_m"], wave)
    dest = out / "compare_hom.csv"
    write_error_table(dest, cfg["n_list"], errs, cfg["eta"], eps_c)
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    write_json(out / "compare_hom_summary.json", {
        "n_list": list(cfg["n_list"]), "errors": errs, "monotone_decreasing": monotone,
    })
    print(f"wrote {dest}; monotone decreasing: {str(monotone).lower()}")
    return EXIT_OK


def cmd_check_assumptions(cfg, out: Path) -> int:
    bg, _, _, dilute = load_model(cfg)
    a = dilute.dilution_exponent

    dist_rows, inv_rows = [], []
    for N in cfg["n_list"]:
        dist_rows.append({"N": N, "eta": cfg["eta"], "statistic": check_distribution(
            bg, N, cfg["eta"], cfg["probe_count"])})
        if N >= 2:
            stat = uniform_invertibility_stat(bg, N)
            inv_rows.append({"N": N, "statistic": stat,
                             "scaled_by_n6a": stat * N ** (6.0 * a)})
    stats = [r["statistic"] for r in dist_rows]
    scaled = [r["scaled_by_n6a"] for r in inv_rows]
    # least-squares slope of log(scaled) against log N: how fast the scaled
    # statistic still grows, which is what keeps the max/min ratio unbounded
    ns = [r["N"] for r in inv_rows]
    growth = (float(np.polyfit(np.log(ns), np.log(scaled), 1)[0])
              if len(set(ns)) >= 2 else None)
    report = {
        "k_beta": bg.k * abs(bg.beta_m),
        "out_of_assumption": bg.out_of_assumption,
        "distribution": {
            "rows": dist_rows,
            "monotone_decreasing": all(x > y for x, y in zip(stats, stats[1:])),
        },
        "uniform_invertibility": {
            "dilution_exponent": a,
            "rows": inv_rows,
            "scaled_max_over_min": (max(scaled) / min(scaled)) if scaled else None,
            "scaled_growth_exponent": growth,
        },
    }
    dest = out / "check_assumptions.json"
    write_json(dest, report)
    print(f"wrote {dest}")
    print(f"  distribution statistic monotone decreasing: "
          f"{str(report['distribution']['monotone_decreasing']).lower()}")
    if scaled:
        print(f"  invertibility statistic * N^(6a) max/min ratio: "
              f"{fmt(report['uniform_invertibility']['scaled_max_over_min'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--preset", help="named parameter preset")
    sub.add_argument("--out", default=".", help="output directory")


def main(argv=None) -> int:
    # built per call, so that wrappers put on this module's cmd_* names
    # (a tracer, a test double) are the ones dispatched to
    commands = {
        "np-spectrum": cmd_np_spectrum,
        "resonances": cmd_resonances,
        "eff-sweep": lambda cfg, out: cmd_eff_sweep(cfg, out, args.preset),
        "eff-closed-form": cmd_eff_closed_form,
        "dipole-field": cmd_dipole_field,
        "foldy": cmd_foldy,
        "compare-hom": cmd_compare_hom,
        "check-assumptions": cmd_check_assumptions,
    }
    parser = argparse.ArgumentParser(
        prog="chiralmeta",
        description="Resonant-composite workflows: surface spectra, resonances, "
                    "effective parameters, lattice simulations.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)

    try:
        return commands[args.command](resolve(args.command, build_config(args)), Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectralError, SingularModeError, RootFindError, EffectiveError,
            FoldyError, FarFieldError, BackgroundError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
