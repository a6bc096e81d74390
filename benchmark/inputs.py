"""Seeded inputs for the benchmark workloads.

Everything a workload hands the program is written here from one seed:
OFF meshes, key=value configs and probe files.  Sizes are fixed per
workload so that every seed costs the same; the seed only moves values
(orientation, radii, materials, incident wave, probe positions).

icosphere(4) (5,120 panels) is deliberately not used: one spectrum of it
takes ~46 s on a 2-core machine, longer than a whole run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def icosphere_mesh(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere triangulation by recursive icosahedron subdivision,
    20 * 4**subdivisions panels, counter-clockwise seen from outside."""
    p = (1.0 + 5.0 ** 0.5) / 2.0
    verts = [np.array(v, dtype=float) for v in (
        (-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0), (0, -1, p), (0, 1, p),
        (0, -1, -p), (0, 1, -p), (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1))]
    verts = [v / np.linalg.norm(v) for v in verts]
    tris = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9),
            (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2),
            (3, 2, 6), (3, 6, 8), (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10),
            (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        mids: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in mids:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                mids[key] = len(verts) - 1
            return mids[key]

        nxt = []
        for i, j, k in tris:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            nxt += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        tris = nxt
    return np.array(verts), np.array(tris, dtype=int)


def torus_mesh(major: float, minor: float, n_around: int,
               n_tube: int) -> tuple[np.ndarray, np.ndarray]:
    """Torus about the z axis, 2 * n_around * n_tube panels, outward."""
    u = 2.0 * np.pi * np.arange(n_around) / n_around
    v = 2.0 * np.pi * np.arange(n_tube) / n_tube
    U, V = np.meshgrid(u, v, indexing="ij")
    ring = major + minor * np.cos(V)
    verts = np.stack([ring * np.cos(U), ring * np.sin(U), minor * np.sin(V)],
                     axis=-1).reshape(-1, 3)
    tris = []
    for i in range(n_around):
        for j in range(n_tube):
            a = i * n_tube + j
            b = ((i + 1) % n_around) * n_tube + j
            c = ((i + 1) % n_around) * n_tube + (j + 1) % n_tube
            d = i * n_tube + (j + 1) % n_tube
            tris += [(a, b, c), (a, c, d)]
    return verts, np.array(tris, dtype=int)


def write_off(path: Path, verts: np.ndarray, tris: np.ndarray) -> None:
    lines = ["OFF", f"{len(verts)} {len(tris)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [f"3 {i} {j} {k}" for i, j, k in tris]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_cfg(path: Path, cfg: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")


def write_probes(path: Path, pts: np.ndarray) -> None:
    rows = ["x,y,z"] + [f"{x:.17g},{y:.17g},{z:.17g}" for x, y, z in pts]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def shell_probes(rng: np.random.Generator, count: int, r_lo: float, r_hi: float,
                 center=(0.5, 0.5, 0.5)) -> np.ndarray:
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.asarray(center) + rng.uniform(r_lo, r_hi, size=(count, 1)) * dirs


def _vec(v: np.ndarray) -> str:
    return ",".join(f"{x:.17g}" for x in v)


def _wave(rng: np.random.Generator) -> dict:
    return {"direction": _vec(_unit(rng)),
            "handedness": "left" if rng.random() < 0.5 else "right"}


def _num(x: float) -> str:
    return f"{x:.17g}"


# --- workloads ------------------------------------------------------------
# Each workload function writes its inputs into ``d`` and returns the commands as
# {"argv": CLI arguments without --out, "check": spec for checks.check}.


def particle(d: Path, rng: np.random.Generator) -> list[dict]:
    """Shape spectra: np_spectral (S/K assembly plus the dense eigh) does
    most of the work; foldy does none.  Every command rebuilds
    its spectrum, so two meshes cost six spectra.  The sphere (1,280
    panels) has the analytic reference; the torus (1,600 panels) is
    non-spherical with split clusters."""
    verts, tris = icosphere_mesh(3)
    write_off(d / "sphere.off", verts @ _rotation(rng).T, tris)
    verts, tris = torus_mesh(rng.uniform(1.0, 1.3), rng.uniform(0.35, 0.5), 40, 20)
    write_off(d / "torus.off", verts @ _rotation(rng).T, tris)
    write_probes(d / "probes.csv", shell_probes(rng, 64, 2.0, 4.0))
    cmds = []
    for name in ("sphere", "torus"):
        cfg = {"mesh_source": str(d / f"{name}.off"), "mode_count": 15,
               "beta_m": _num(rng.uniform(0.2, 0.5)), "volume_scale": 0.5,
               "eps_c_re": _num(rng.uniform(-3.5, -2.5)),
               "eps_c_im": _num(rng.uniform(0.05, 0.2)),
               "drude_omega_p": _num(rng.uniform(2.0, 4.0)),
               "drude_tau": _num(rng.uniform(0.0, 0.1)),
               "probes_file": str(d / "probes.csv"), **_wave(rng)}
        write_cfg(d / f"{name}.cfg", cfg)
        for command in ("np-spectrum", "resonances", "dipole-field"):
            check = {"kind": command, "mesh": name}
            if command == "dipole-field":
                check["probes"] = str(d / "probes.csv")
            cmds.append({"argv": [command, "--config", str(d / f"{name}.cfg")],
                         "check": check})
    return cmds


def sweep(d: Path, rng: np.random.Generator) -> list[dict]:
    """Sweeps: the per-point 2x2 algebra in effective/polarization and the
    ~47k-row CSV write in cli dominate; no dense kernel runs."""
    cmds = []
    for preset in ("figure1-left", "figure1-right"):
        cfg = {"eps_c_min": _num(rng.uniform(-4.05, -3.95)),
               "eps_c_max": _num(rng.uniform(-1.05, -0.95)),
               "eps_c_points": 15000, "dense_points": 6000}
        write_cfg(d / f"{preset}.cfg", cfg)
        cmds.append({"argv": ["eff-sweep", "--preset", preset,
                              "--config", str(d / f"{preset}.cfg")],
                     "check": {"kind": "eff-sweep", "preset": preset}})
    for i in range(2):
        cfg = {"beta_m": _num(rng.uniform(0.2, 0.8)),
               "volume_scale": _num(rng.uniform(1.0, 3.0)),
               "eps_c_min": "-4", "eps_c_max": "-1", "eps_c_points": 2000,
               "dense_window": "1e-4", "dense_points": 500}
        write_cfg(d / f"chiral{i}.cfg", cfg)
        cmds.append({"argv": ["eff-sweep", "--config", str(d / f"chiral{i}.cfg")],
                     "check": {"kind": "eff-sweep", "preset": None}})
    # beta 0.4 as in acceptance 06.  The s values stay below s ~ 0.922, where
    # mu_eff crosses zero and beta_eff has a pole: there the absolute
    # closed-form-vs-inversion deviation the command reports grows like
    # |beta_eff|^2 * 1e-16 (4.7e-8 at beta_eff ~ 1.5e4) although the two
    # forms still agree to ~1e-12 relative.
    s = np.sort(rng.uniform(0.0, 0.9, 200))
    write_cfg(d / "closed.cfg", {"beta_m": "0.4", "s_values": ",".join(_num(x) for x in s)})
    cmds.append({"argv": ["eff-closed-form", "--config", str(d / "closed.cfg")],
                 "check": {"kind": "eff-closed-form", "count": len(s)}})
    return cmds


def _lattice_cfg(d: Path, rng: np.random.Generator, name: str, base: dict,
                 probes: int) -> dict:
    write_probes(d / f"{name}-probes.csv", shell_probes(rng, probes, 2.5, 3.5))
    cfg = {**base, "probes_file": str(d / f"{name}-probes.csv"), **_wave(rng)}
    write_cfg(d / f"{name}.cfg", cfg)
    return cfg


def lattice_dilute(d: Path, rng: np.random.Generator) -> list[dict]:
    """The README's lattice.cfg regime (beta 0.4, volume_scale 0.5,
    n_per_axis 125): lattice condition estimates ~1 and the volume Picard
    sweep converges in 2-3 sweeps, so green_dyadic evaluation, dense
    assembly and the lattice LU set the cost.  check-assumptions runs the
    same kernel with no solve at all."""
    base = {"beta_m": "0.4", "volume_scale": "0.5",
            "eps_c_re": _num(rng.uniform(-3.3, -2.7)),
            "eps_c_im": _num(rng.uniform(0.0, 0.1)), "eta": "0.1"}
    _lattice_cfg(d, rng, "assumptions", {**base, "n_list": "3,4,5,6,7", "eta": "1.0"}, 8)
    cfg = _lattice_cfg(d, rng, "foldy", {**base, "n_list": "2,3,4,5,6,7", "grid_m": 8}, 16)
    return [
        {"argv": ["check-assumptions", "--config", str(d / "assumptions.cfg")],
         "check": {"kind": "check-assumptions", "n_list": [3, 4, 5, 6, 7]}},
        {"argv": ["foldy", "--config", str(d / "foldy.cfg")],
         "check": {"kind": "lattice-errors", "table": "foldy_errors.csv",
                   "cfg": cfg, "n_list": [2, 3, 4, 5, 6, 7], "grid_m": 8}},
    ]


def lattice_coupled(d: Path, rng: np.random.Generator) -> list[dict]:
    """A valid strongly coupled lattice (n_per_axis 2, volume_scale 3,
    eps_c -3): lattice condition estimates 1e2..2e4 and a volume Picard
    sweep that does not converge.  grid_m 8 takes the Picard-then-LU
    fallback; the default grid_m 10 exceeds the dense fallback cap and
    exits 3 at this commit.  That known failure is kept on purpose: a
    solver that fixes it shows here, and an iterative solver's cost
    follows conditioning, so it can win on lattice_dilute and lose here."""
    base = {"beta_m": "0.4", "volume_scale": "3", "n_per_axis": "2",
            "eps_c_re": _num(rng.uniform(-3.02, -2.98)), "eta": "0.1",
            "n_list": "2,3,4,5"}
    cfg8 = _lattice_cfg(d, rng, "coupled8", {**base, "grid_m": 8}, 16)
    cfg10 = _lattice_cfg(d, rng, "coupled10", base, 16)
    return [
        {"argv": ["compare-hom", "--config", str(d / "coupled8.cfg")],
         "check": {"kind": "lattice-errors", "table": "compare_hom.csv",
                   "cfg": cfg8, "n_list": [2, 3, 4, 5], "grid_m": 8}},
        {"argv": ["compare-hom", "--config", str(d / "coupled10.cfg")],
         "check": {"kind": "lattice-errors", "table": "compare_hom.csv",
                   "cfg": cfg10, "n_list": [2, 3, 4, 5], "grid_m": 10}},
    ]


def particle_sweep(d: Path, rng: np.random.Generator) -> list[dict]:
    """The single-particle pipeline in one workload: shape spectra, resonances
    and dipole fields (particle), then effective-parameter sweeps (sweep).
    The sweeps' pure-Python per-point algebra is the part of the benchmark
    most exposed to host speed drift; run on their own they spread past
    the wall_s bound between runs, so they share a workload, and its longer
    runs, with the BLAS-bound spectra.  The lattice workloads are the
    control that must not move for changes to np_spectral or effective."""
    return particle(d, rng) + sweep(d, rng)


WORKLOADS = {
    "particle_sweep": particle_sweep,
    "lattice_dilute": lattice_dilute,
    "lattice_coupled": lattice_coupled,
}
