"""End-to-end checks, one per release criterion.

Each test records a PASS/FAIL line (printed in the terminal summary)
before asserting, so a red run still reports every criterion.
"""

import json
import time

import numpy as np
import pytest
from conftest import record_acceptance

from chiralmeta.background import (ChiralBackground, circular_wave, green_dyadic,
                                   incident_six, maxwell_dyadic)
from chiralmeta.cli import main
from chiralmeta.dipole import ParticleInstance, scattered_field_dipole
from chiralmeta.effective import (DiluteConfig, compatibility_residual, effective_closed_form,
                                  invert_effective, roundtrip_residual, s_limit_tilde,
                                  tilde_from_definition)
from chiralmeta.foldy import (cell_centers, check_distribution, compare_homogenization,
                              eval_foldy_field, probe_ring, solve_foldy,
                              uniform_invertibility_stat)
from chiralmeta.np_spectral import assemble_single_layer
from chiralmeta.polarization import find_resonance_root, resonant_eps
from _fd import dbf_residual, loglog_slope

C1 = 4.0 * np.pi / 27.0


def test_01_sphere_spectrum_clusters(sphere_spec3_timed):
    spec, secs = sphere_spec3_timed
    clusters = spec.clusters()
    errs = []
    for n, cluster in zip((1, 2, 3), clusters):
        target = 1.0 / (2.0 * (2 * n + 1))
        errs.append(abs(cluster.eigenvalue - target) / target)
    ok = all(e < 0.02 for e in errs) and secs < 60.0
    record_acceptance("01", ok,
                      "cluster errors " + "/".join(f"{e:.2%}" for e in errs)
                      + f", build {secs:.1f} s")
    assert all(e < 0.02 for e in errs)
    assert secs < 60.0


def test_02_sphere_moment_tensor(sphere_spec3):
    clusters = sphere_spec3.clusters()
    lead = clusters[0].moment_tensor
    ref = np.linalg.norm(C1 * np.eye(3))
    dev = np.linalg.norm(lead - C1 * np.eye(3)) / ref
    higher = max(np.linalg.norm(c.moment_tensor) for c in clusters[1:3]) / ref
    ok = dev < 0.02 and higher < 0.02
    record_acceptance("02", ok, f"leading dev {dev:.2%}, higher-cluster norms {higher:.2%}")
    assert dev < 0.02
    assert higher < 0.02


def test_03_single_layer_oracle(ico3):
    S = assemble_single_layer(ico3)
    unit = ico3.centroids / np.linalg.norm(ico3.centroids, axis=1)[:, None]
    w = ico3.areas
    cases = [
        (np.ones(ico3.n_panels), -1.0),
        (unit[:, 2], -1.0 / 3.0),
        (1.5 * unit[:, 2] ** 2 - 0.5, -1.0 / 5.0),
        (unit[:, 0] * unit[:, 1], -1.0 / 5.0),
    ]
    errs = []
    for f, target in cases:
        ratio = np.sum(w * f * (S @ f)) / np.sum(w * f * f)
        errs.append(abs(ratio - target) / abs(target))
    ok = all(e < 0.02 for e in errs)
    record_acceptance("03", ok, "ratio errors " + "/".join(f"{e:.2%}" for e in errs))
    assert all(e < 0.02 for e in errs)


def test_04_resonance_limit():
    errs = []
    for beta in (1e-1, 1e-2, 1e-3):
        bg = ChiralBackground(1.0, 1.0, beta, 1.0)
        root = find_resonance_root(bg, 1.0 / 6.0, bracket=(-2.4, -1.6))
        errs.append(abs(root - (-2.0)))
    q1, q2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 50.0 < q1 < 200.0 and 50.0 < q2 < 200.0 and errs[2] < 1e-4
    record_acceptance("04", ok,
                      f"error quotients {q1:.1f}, {q2:.1f}; err(1e-3) {errs[2]:.2e}")
    assert 50.0 < q1 < 200.0
    assert 50.0 < q2 < 200.0
    assert errs[2] < 1e-4


def test_05_compatibility_and_roundtrip(ball_spectrum, rng):
    worst_c = worst_r = 0.0
    for _ in range(100):
        em = rng.uniform(0.5, 2.0)
        mm = rng.uniform(0.5, 2.0)
        om = rng.uniform(0.5, 2.0)
        k = om * np.sqrt(em * mm)
        bg = ChiralBackground(em, mm, rng.uniform(0.0, 0.9) / k, om)
        ec = complex(rng.uniform(-6.0, -0.5), rng.uniform(0.05, 1.0))
        cfg = DiluteConfig(rng.uniform(0.1, 5.0), int(rng.integers(2, 200)),
                           rng.uniform(0.5, 1.5), ball_spectrum.clusters()[0].c_n)
        tl = tilde_from_definition(bg, ec, cfg, ball_spectrum,
                                   mode_index=int(rng.integers(0, 2)))
        eff = invert_effective(tl, bg)
        worst_c = max(worst_c, compatibility_residual(tl, bg))
        worst_r = max(worst_r, roundtrip_residual(tl, eff, bg))
    ok = worst_c < 1e-8 and worst_r < 1e-8
    record_acceptance("05", ok,
                      f"100 draws, worst compat {worst_c:.1e}, roundtrip {worst_r:.1e}")
    assert worst_c < 1e-8
    assert worst_r < 1e-8


def test_06_closed_form_identities():
    lam = 1.0 / 6.0
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    dev0 = abs(effective_closed_form(bg, lam, 0.0).mu_eff - bg.mu_m) / abs(bg.mu_m)
    bg0 = ChiralBackground(1.3, 0.7, 0.0, 1.0)
    dev_ach = 0.0
    for s in np.linspace(0.0, 0.95, 20):
        eff = effective_closed_form(bg0, lam, float(s))
        dev_ach = max(dev_ach,
                      abs(eff.mu_eff - bg0.mu_m) / abs(bg0.mu_m),
                      abs(eff.eps_eff - bg0.eps_m * (1.0 - s)) / abs(bg0.eps_m))
    dev_inv = 0.0
    for s in (0.1, 0.5, 0.9, 0.99):
        a = effective_closed_form(bg, lam, s)
        b = invert_effective(s_limit_tilde(bg, lam, s), bg)
        dev_inv = max(dev_inv, abs(a.eps_eff - b.eps_eff), abs(a.mu_eff - b.mu_eff),
                      abs(a.beta_eff - b.beta_eff))
    ok = dev0 < 1e-13 and dev_ach < 1e-13 and dev_inv < 1e-10
    record_acceptance("06", ok,
                      f"s=0 dev {dev0:.1e}, achiral dev {dev_ach:.1e}, "
                      f"inversion dev {dev_inv:.1e}")
    assert dev0 < 1e-13
    assert dev_ach < 1e-13
    assert dev_inv < 1e-10


def test_07_double_negative_window():
    s_grid = np.linspace(1e-6, 0.999, 2000)
    onsets = []
    ok = True
    for kb in (0.3, 0.6, 0.9):
        bg = ChiralBackground(1.0, 1.0, kb, 1.0)
        for lam in (-0.3, 0.0, 1.0 / 6.0, 0.3):
            neg = np.empty(len(s_grid), dtype=bool)
            for i, s in enumerate(s_grid):
                eff = effective_closed_form(bg, lam, float(s))
                neg[i] = eff.eps_eff.real < 0 and eff.mu_eff.real < 0
            idx = np.nonzero(neg)[0]
            combo_ok = len(idx) > 0 and bool(np.all(neg[idx[0]:]))
            ok = ok and combo_ok
            if len(idx):
                onsets.append(float(s_grid[idx[0]]))
    record_acceptance("07", ok,
                      f"12/12 combos double negative on (s0, 0.999), "
                      f"s0 in [{min(onsets):.3f}, {max(onsets):.3f}]")
    assert ok
    assert len(onsets) == 12


def test_08_figure_presets(tmp_path, capsys):
    t0 = time.perf_counter()
    rc_r = main(["eff-sweep", "--preset", "figure1-right", "--out", str(tmp_path / "r")])
    t_right = time.perf_counter() - t0
    t0 = time.perf_counter()
    rc_l = main(["eff-sweep", "--preset", "figure1-left", "--out", str(tmp_path / "l")])
    t_left = time.perf_counter() - t0

    lines = (tmp_path / "r" / "eff_sweep.csv").read_text().splitlines()[1:]
    mu_dev = max(abs(float(r.split(",")[3]) - 1.0) + abs(float(r.split(",")[4]))
                 for r in lines)
    right = json.loads((tmp_path / "r" / "eff_sweep_summary.json").read_text())
    left = json.loads((tmp_path / "l" / "eff_sweep_summary.json").read_text())
    visible = right["resonance_peak_magnitude"] > 1e2
    dn = left["double_negative_count"] > 0
    adjacent = dn and (left["double_negative_min"] - 1e-2 <= left["resonance_abscissa"]
                       <= left["double_negative_max"] + 1e-2)
    ok = (rc_r == 0 and rc_l == 0 and t_right < 10.0 and t_left < 10.0
          and mu_dev < 1e-10 and visible and adjacent)
    record_acceptance(
        "08", ok,
        f"right: mu dev {mu_dev:.1e}, peak {right['resonance_peak_magnitude']:.0f}; "
        f"left: {left['double_negative_count']} double-negative rows, abscissa "
        f"{left['resonance_abscissa']:.6f} (deviation {left['abscissa_deviation']:+.2e} "
        f"from -2.94455, diagnostic only); {t_right:.1f}+{t_left:.1f} s")
    assert rc_r == 0 and rc_l == 0
    assert mu_dev < 1e-10
    assert visible
    assert adjacent
    assert t_right < 10.0 and t_left < 10.0


def test_09_dipole_scaling_laws(ball_spectrum):
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    lam = ball_spectrum.clusters()[0].eigenvalue
    star = resonant_eps(bg, lam).real
    wave = circular_wave([0.0, 0.0, 1.0], "right")
    center = np.array([0.2, -0.1, 0.3])
    inc = incident_six(bg, wave, center)
    x = center + np.array([1.0, 0.0, 0.0])

    deltas = np.array([1e-2, 1e-3, 1e-4])
    mags = [np.linalg.norm(scattered_field_dipole(
        bg, ParticleInstance(center=center, delta=d, eps_c=star + 1e-3,
                             spectrum=ball_spectrum), inc, x)) for d in deltas]
    slope_d = loglog_slope(deltas, mags)

    offs = np.array([1e-2, 1e-3, 1e-4])
    mags = [np.linalg.norm(scattered_field_dipole(
        bg, ParticleInstance(center=center, delta=0.05, eps_c=star + o,
                             spectrum=ball_spectrum), inc, x)) for o in offs]
    slope_r = loglog_slope(offs, mags)

    ok = abs(slope_d - 3.0) < 1e-6 and abs(slope_r + 1.0) < 0.05
    record_acceptance("09", ok, f"size slope {slope_d:.8f}, resonance slope {slope_r:.4f}")
    assert slope_d == pytest.approx(3.0, abs=1e-6)
    assert slope_r == pytest.approx(-1.0, abs=0.05)


def test_10_green_function_residual():
    bg = ChiralBackground(1.2, 0.8, 0.3, 1.1)
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [-0.48, 0.6, -0.64]])
    worst = 0.0
    for x0 in pts:
        for j in range(6):
            e_f = lambda x: green_dyadic(bg, x)[:3, j]
            h_f = lambda x: green_dyadic(bg, x)[3:, j]
            worst = max(worst, dbf_residual(bg, e_f, h_f, x0, h=1e-4))
    bg0 = ChiralBackground(1.2, 0.8, 0.0, 1.1)
    classical = 0.0
    for x0 in pts:
        G = green_dyadic(bg0, x0)
        ref = bg0.omega * bg0.eps_m * bg0.mu_m * maxwell_dyadic(bg0.k, x0)
        classical = max(classical, float(np.abs(G[:3, :3] - ref).max() / np.abs(ref).max()))
    ok = worst < 1e-3 and classical < 1e-10
    record_acceptance("10", ok,
                      f"chiral-system residual {worst:.1e}, classical match {classical:.1e}")
    assert worst < 1e-3
    assert classical < 1e-10


def test_11_foldy_convergence(ball_spectrum, ball_cn):
    t0 = time.perf_counter()
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    wave = circular_wave([0.0, 0.0, 1.0], "left")
    probes = probe_ring(8)

    single_cfg = DiluteConfig(0.5, 1, 0.965, ball_cn)
    st = solve_foldy(bg, tilde_from_definition(bg, -3.0, single_cfg, ball_spectrum), 1, 0.0,
                     wave)
    total = eval_foldy_field(bg, st, probes)
    center = cell_centers(1)[0]
    part = ParticleInstance(center=center, delta=single_cfg.delta, eps_c=-3.0,
                            spectrum=ball_spectrum, far_field_factor=2.0)
    expect = (incident_six(bg, wave, probes)
              + scattered_field_dipole(bg, part, incident_six(bg, wave, center), probes))
    single_dev = float(np.abs(total - expect).max() / np.abs(expect).max())

    cfg = DiluteConfig(3.0, 125, 0.965, ball_cn)
    errs = compare_homogenization(bg, tilde_from_definition(bg, -3.0, cfg, ball_spectrum),
                                  [2, 3, 4, 5], 0.1, probes, 10, wave)
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    secs = time.perf_counter() - t0
    ok = single_dev < 1e-10 and monotone and secs < 600.0
    record_acceptance("11", ok,
                      f"single-site dev {single_dev:.1e}; probe errors "
                      + " > ".join(f"{e:.4f}" for e in errs) + f"; {secs:.0f} s")
    assert single_dev < 1e-10
    assert monotone
    assert secs < 600.0


def test_12a_distribution_statistic():
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    vals = [check_distribution(bg, N, 1.0) for N in (3, 4, 5, 6)]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    record_acceptance("12a", monotone,
                      "statistic " + " > ".join(f"{v:.4f}" for v in vals))
    assert monotone


def test_12b_uniform_invertibility_bounded():
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    a = 0.965
    scaled = []
    for N in (2, 3, 4, 5, 6):
        stat = uniform_invertibility_stat(bg, N)
        scaled.append(stat * N ** (6.0 * a))
    ratio = max(scaled) / min(scaled)
    record_acceptance("12b", ratio < 10.0,
                      f"scaled statistic max/min {ratio:.1f} (bound 10)")
    # the pair statistic grows ~N^3 (near-neighbor kernel norms dominate),
    # so the N^(6a) scaling cannot keep the ratio bounded
    assert ratio < 10.0
