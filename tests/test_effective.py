import ast
import cmath
import dataclasses
import inspect
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralmeta import cli, effective
from chiralmeta.background import ChiralBackground
from chiralmeta.effective import (DiluteConfig, EffectiveError, Sweep, SweepRow,
                                  _sweep_pass, compatibility_residual,
                                  coupling_from_tilde, coupling_matrix, effective_closed_form,
                                  epsc_from_s, invert_effective, roundtrip_residual,
                                  s_limit_tilde, shifted_resonances, sweep_figure,
                                  sweep_summary, tilde_from_coupling, tilde_from_definition,
                                  tilde_leading_order)
from chiralmeta.np_spectral import NPSpectrum
from chiralmeta.polarization import SingularModeError, resonant_eps
from _fd import loglog_slope

LAM = 1 / 6


@pytest.fixture(scope="module")
def cfg(ball_cn):
    return DiluteConfig(3.0, 125, 0.965, ball_cn)


@pytest.fixture(scope="module")
def bg():
    return ChiralBackground(1.0, 1.0, 0.4, 1.0)


def test_config_delta_value(cfg):
    assert cfg.delta == pytest.approx(1.09298006955e-4, rel=1e-10)
    assert cfg.dilution_factor == pytest.approx(cfg.delta ** 3 * cfg.n_per_axis ** 3, rel=1e-12)


def test_config_validation(ball_cn):
    with pytest.raises(EffectiveError, match="volume_scale"):
        DiluteConfig(-1.0, 8, 1.0, ball_cn)
    with pytest.raises(EffectiveError, match="n_per_axis"):
        DiluteConfig(1.0, 0, 1.0, ball_cn)
    with pytest.raises(EffectiveError, match="dilution_exponent"):
        DiluteConfig(1.0, 8, 0.0, ball_cn)
    with pytest.raises(EffectiveError, match="dilution violated"):
        DiluteConfig(2.0, 1, 0.5, ball_cn)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0), st.integers(2, 400), st.floats(0.3, 2.0))
def test_config_particles_fit_cells(vs, n, a):
    try:
        c = DiluteConfig(vs, n, a, 0.465)
    except EffectiveError:
        assert vs ** (1 / 3) * n ** (-a) >= 1.0
        return
    assert c.delta < 1.0 / n


def test_tilde_vanishes_with_contrast(cfg, ball_spectrum):
    # exactly-zero contrast is excluded (the mode parameter itself is
    # singular there), so check the linear vanishing limit instead
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    for off in (1e-4, 1e-6, 1e-8):
        tl = tilde_from_definition(bg0, 1.0 + off, cfg, ball_spectrum)
        mx = max(abs(tl.eps_t), abs(tl.mu_t), abs(tl.eps_tt), abs(tl.mu_tt))
        assert mx < 2e-10 * off


def test_tilde_compatibility(bg, cfg, ball_spectrum):
    tl = tilde_from_definition(bg, -3.0, cfg, ball_spectrum)
    assert compatibility_residual(tl, bg) < 1e-8


def test_tilde_coupling_roundtrip(bg, cfg, ball_spectrum):
    T2 = coupling_matrix(bg, -3.0, cfg, LAM)
    tl = tilde_from_coupling(T2, bg.omega)
    assert np.allclose(coupling_from_tilde(tl, bg.omega), T2, rtol=0, atol=0)


def test_tilde_blowup_slope(bg, cfg, ball_spectrum):
    star = resonant_eps(bg, LAM)
    offs = np.array([1e-2, 1e-3, 1e-4])
    norms = [max(abs(t.eps_t), abs(t.mu_t), abs(t.eps_tt), abs(t.mu_tt))
             for t in (tilde_from_definition(bg, star + o, cfg, ball_spectrum) for o in offs)]
    assert loglog_slope(offs, norms) == pytest.approx(-1.0, abs=0.05)


def test_tilde_leading_order_agreement(bg, cfg, ball_spectrum):
    star = resonant_eps(bg, LAM)
    devs = []
    for off in (1e-2 * abs(star), 1e-3 * abs(star)):
        full = tilde_from_definition(bg, star + off, cfg, ball_spectrum)
        lead = tilde_leading_order(bg, star + off, cfg, LAM)
        devs.append(max(abs(getattr(full, f) - getattr(lead, f)) / abs(getattr(lead, f))
                        for f in ("eps_t", "mu_t", "eps_tt", "mu_tt")))
    assert devs[0] < 0.05
    assert devs[1] < 0.005  # truncation error shrinks linearly with the offset


def test_tilde_leading_order_ratios(bg, cfg):
    star = resonant_eps(bg, LAM)
    lead = tilde_leading_order(bg, star + 0.05, cfg, LAM)
    u = 0.5 - LAM
    assert lead.mu_tt / lead.eps_tt == pytest.approx(bg.mu_m / bg.eps_m, rel=1e-14)
    assert lead.mu_t / lead.eps_t == pytest.approx((bg.k * bg.beta_m) ** 2 * u * u, rel=1e-14)


def test_tilde_leading_order_at_resonance_raises(bg, cfg):
    with pytest.raises(EffectiveError, match="resonant"):
        tilde_leading_order(bg, resonant_eps(bg, LAM), cfg, LAM)


def test_invert_zero_tilde_gives_background(bg):
    eff = invert_effective(s_limit_tilde(bg, LAM, 0.0), bg)
    assert eff.eps_eff == bg.eps_m
    assert eff.mu_eff == bg.mu_m
    assert eff.beta_eff == bg.beta_m


def test_invert_roundtrip(bg, cfg, ball_spectrum):
    tl = tilde_from_definition(bg, -3.0, cfg, ball_spectrum)
    eff = invert_effective(tl, bg)
    assert roundtrip_residual(tl, eff, bg) < 1e-8


def test_invert_array_refusal_names_worst_point(bg):
    # s ~ 0.922 is where mu_eff crosses zero and the round trip loses digits;
    # an array holding it used to end in a TypeError, not in this refusal
    with pytest.raises(EffectiveError) as scalar:
        invert_effective(s_limit_tilde(bg, LAM, 0.921942), bg)
    with pytest.raises(EffectiveError) as array:
        invert_effective(s_limit_tilde(bg, LAM, np.array([0.1, 0.921942, 0.5])), bg)
    assert str(array.value) == str(scalar.value)
    assert str(scalar.value).startswith("inversion round-trip residual 1.0")


def test_corrected_coefficients_symmetric_by_construction():
    # C + T2 is symmetric in the frame diag(1, i sqrt(mu_m/eps_m)) for every
    # background, so the compatibility relation holds without a per-point check
    rng = np.random.default_rng(29)
    kbetas = np.concatenate([np.zeros(10), 10.0 ** rng.uniform(-12.0, -6.0, 10),
                             rng.uniform(0.0, 1.0, 10), rng.uniform(1.0, 3.0, 10)])
    checked = 0
    for kb in kbetas:
        em, mm, om = rng.uniform(0.5, 2.0, 3)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "k\\*beta_m", UserWarning)
            bg = ChiralBackground(em, mm, kb / (om * np.sqrt(em * mm)), om,
                                  allow_kbeta_ge_1=kb >= 1.0)
        # one mode with a unit moment at an eigenvalue in (-1/2, 1/2)
        spectrum = NPSpectrum(eigenvalues=rng.uniform(-0.5, 0.5, 1),
                              moments=np.array([[1.0, 0.0, 0.0]]), residuals=np.zeros(1),
                              gram_certificate=0.0, dropped_eigenvalue=0.5)
        cfg = DiluteConfig(rng.uniform(0.1, 5.0), int(rng.integers(2, 200)),
                           rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.0))
        eps_c = rng.uniform(-6.0, 1.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
        failed = np.zeros(eps_c.shape, dtype=bool)
        with np.errstate(all="ignore"):
            tilde = tilde_from_definition(bg, eps_c, cfg, spectrum, failed=failed)
        ok = ~failed
        assert np.all(compatibility_residual(tilde, bg)[ok] <= 1e-11)
        t, w, b = bg.dbf_factor, bg.omega, bg.beta_m
        C = np.array([[t, 1j * w * bg.mu_m * b * t], [-1j * w * bg.eps_m * b * t, t]])
        X = C[..., None] + coupling_from_tilde(tilde, w)[..., ok]
        g = 1j * np.sqrt(bg.mu_m / bg.eps_m)
        # off-diagonal entries of Lambda X Lambda^-1
        upper, lower = X[0, 1] / g, X[1, 0] * g
        scale = np.max(np.abs([X[0, 0], upper, lower, X[1, 1]]), axis=0)
        assert np.all(np.abs(upper - lower) <= 1e-13 * scale)
        checked += np.count_nonzero(ok)
    assert checked > 0.99 * len(kbetas) * 200


def test_invert_matches_closed_form(bg):
    for s in (0.1, 0.5, 0.9, 0.99):
        a = invert_effective(s_limit_tilde(bg, LAM, s), bg)
        b = effective_closed_form(bg, LAM, s)
        assert abs(a.eps_eff - b.eps_eff) < 1e-10
        assert abs(a.mu_eff - b.mu_eff) < 1e-10
        assert abs(a.beta_eff - b.beta_eff) < 1e-10


def test_closed_form_domain(bg):
    with pytest.raises(EffectiveError, match="s must lie"):
        effective_closed_form(bg, LAM, 1.0)
    with pytest.raises(EffectiveError, match="s must lie"):
        effective_closed_form(bg, LAM, -0.1)


def test_closed_form_array_matches_scalar(bg):
    s = np.linspace(1e-6, 0.999, 101)
    arr = effective_closed_form(bg, LAM, s)
    for name in ("eps_eff", "mu_eff", "beta_eff"):
        scalar = [getattr(effective_closed_form(bg, LAM, float(v)), name) for v in s]
        assert getattr(arr, name) == pytest.approx(np.array(scalar), rel=1e-15, abs=0.0)


def test_closed_form_array_raises_on_vanishing_denominator():
    # k beta = 2 and u = 1: the denominator 1 - s (k beta)^2 u^2 is exactly 0 at s = 1/4
    with pytest.warns(UserWarning, match="outside the assumption"):
        bg2 = ChiralBackground(1.0, 1.0, 2.0, 1.0, allow_kbeta_ge_1=True)
    with pytest.raises(EffectiveError, match="denominator vanished"):
        effective_closed_form(bg2, -0.5, 0.25)
    with pytest.raises(EffectiveError, match="denominator vanished"):
        effective_closed_form(bg2, -0.5, np.array([0.1, 0.25, 0.5]))


def test_closed_form_s_zero_is_background(bg):
    eff = effective_closed_form(bg, LAM, 0.0)
    assert eff.eps_eff == bg.eps_m * bg.dbf_factor * (1.0 - bg.k ** 2 * bg.beta_m ** 2)
    assert eff.eps_eff == pytest.approx(bg.eps_m, rel=1e-14)
    assert eff.mu_eff == pytest.approx(bg.mu_m, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.99))
def test_closed_form_achiral(s):
    bg0 = ChiralBackground(1.5, 0.8, 0.0, 1.0)
    eff = effective_closed_form(bg0, LAM, s)
    assert eff.mu_eff == bg0.mu_m
    assert eff.eps_eff == pytest.approx(bg0.eps_m * (1.0 - s), rel=1e-14, abs=1e-14)
    assert eff.beta_eff == pytest.approx(0.0, abs=1e-16)


def test_closed_form_double_negative_window():
    bg6 = ChiralBackground(1.0, 1.0, 0.6, 1.0)
    eff = effective_closed_form(bg6, LAM, 0.9)
    assert eff.eps_eff.real < 0 and eff.mu_eff.real < 0


def test_shifted_resonances_ordering_and_size(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bgf = ChiralBackground(1.0, 1.0, 1.09, 1.0, allow_kbeta_ge_1=True)
    star = resonant_eps(bgf, LAM)
    assert star == pytest.approx(-3.3114410287543468, rel=1e-13)
    s_eps, s_mu = shifted_resonances(bgf, LAM, cfg)
    assert abs(s_eps - star) < 1e-4
    assert abs(s_mu - star) < 1e-4
    assert abs(s_mu - star) > abs(s_eps - star)


def test_shifted_resonances_linear_in_dilution(bg, cfg, ball_cn):
    star = resonant_eps(bg, LAM)
    cfg2 = DiluteConfig(cfg.volume_scale, 2 * cfg.n_per_axis, cfg.dilution_exponent, ball_cn)
    a_eps, a_mu = shifted_resonances(bg, LAM, cfg)
    b_eps, b_mu = shifted_resonances(bg, LAM, cfg2)
    ratio = cfg2.dilution_factor / cfg.dilution_factor
    # recovering a ~1e-7 shift from star + shift loses ~9 digits to
    # cancellation, hence the loose relative tolerance
    assert (b_eps - star) / (a_eps - star) == pytest.approx(ratio, rel=1e-6)
    assert (b_mu - star) / (a_mu - star) == pytest.approx(ratio, rel=1e-6)


@pytest.mark.parametrize("beta_m, lam", [(0.4, 0.5), (2.0, 0.25)])
def test_shifted_resonances_refused_as_resonant_eps_refuses(cfg, beta_m, lam):
    # lambda_n = 1/2, and k beta = 2 at lambda_n = 1/4, where the chirality
    # factor 1 - (k beta)^2 (1/2 - lambda_n) is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bgs = ChiralBackground(1.0, 1.0, beta_m, 1.0, allow_kbeta_ge_1=True)
    with pytest.raises(SingularModeError) as star:
        resonant_eps(bgs, lam)
    with pytest.raises(SingularModeError) as shifted:
        shifted_resonances(bgs, lam, cfg)
    assert str(shifted.value) == str(star.value)


def test_epsc_from_s_limits(bg, cfg):
    star = resonant_eps(bg, LAM)
    _, s_mu = shifted_resonances(bg, LAM, cfg)
    assert epsc_from_s(bg, LAM, 1.0, cfg) == s_mu
    # smaller s places the permittivity farther from the resonance
    d1 = abs(epsc_from_s(bg, LAM, 0.5, cfg) - star)
    d2 = abs(epsc_from_s(bg, LAM, 0.1, cfg) - star)
    assert d2 > d1 > abs(s_mu - star)
    with pytest.raises(EffectiveError, match="infinity"):
        epsc_from_s(bg, LAM, 0.0, cfg)


def test_sweep_achiral_permeability_inert(cfg, ball_spectrum):
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    rows = sweep_figure(bg0, cfg, ball_spectrum, [-2.2, -2.1, -2.0, -1.9, -1.8])
    for r in rows:
        assert not r.failed
        assert abs(r.mu_eff - bg0.mu_m) < 1e-12
        assert r.double_negative == (r.eps_eff.real < 0 and r.mu_eff.real < 0)
    # the grid point at the bare resonance gets nudged, not dropped
    hit = rows[2]
    assert hit.nudged and not hit.failed
    assert abs(hit.eps_eff) > 1e6


def test_sweep_summary_keys(cfg, ball_spectrum):
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    rows = sweep_figure(bg0, cfg, ball_spectrum, [-2.2, -2.1, -2.0, -1.9, -1.8])
    out = sweep_summary(rows, reference_abscissa=-2.0)
    assert out["points"] == 5 and out["failed"] == 0
    assert out["resonance_abscissa"] == pytest.approx(-2.0, abs=1e-9)
    assert out["resonance_peak_magnitude"] > 1e6
    assert out["double_negative_count"] == 0
    assert abs(out["abscissa_deviation"]) < 1e-9
    assert out["nudged_points"] == [rows[2].eps_c.real] and out["failed_points"] == []


def _pointwise_sweep(bg, cfg, spectrum, eps_c):
    """Reference: the scalar chain at one grid point, nudged once on
    failure.  Returns (eps_c used, EffectiveParams or None, nudged)."""
    for nudged in (False, True):
        try:
            tilde = tilde_from_definition(bg, eps_c, cfg, spectrum)
            return eps_c, invert_effective(tilde, bg), nudged
        except (SingularModeError, EffectiveError):
            if nudged:
                return eps_c, None, True
            eps_c = eps_c + 1e-12


@pytest.mark.parametrize("beta_m", [1.09, 0.0, 0.4])   # figure1-left, -right, chiral
def test_sweep_matches_pointwise_chain(cfg, ball_spectrum, beta_m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bgp = ChiralBackground(1.0, 1.0, beta_m, 1.0, allow_kbeta_ge_1=True)
    star = resonant_eps(bgp, LAM)
    grid = np.concatenate([np.linspace(-4.0, -1.0, 601),
                           np.linspace(star.real - 5e-5, star.real + 5e-5, 101)])
    rows = sweep_figure(bgp, cfg, ball_spectrum, grid)
    ref = [_pointwise_sweep(bgp, cfg, ball_spectrum, complex(e)) for e in grid]
    # poles: the bare and both shifted resonances, and every sign change of mu_eff
    poles = [star.real] + [z.real for z in shifted_resonances(bgp, LAM, cfg)]
    order = np.argsort(grid)
    mu = np.array([np.nan if r[1] is None else r[1].mu_eff.real for r in ref])[order]
    flips = np.nonzero(np.sign(mu[1:]) != np.sign(mu[:-1]))[0]
    poles += list(0.5 * (grid[order][flips] + grid[order][flips + 1]))
    compared = 0
    for e, row, (eps_ref, eff, nudged) in zip(grid, rows, ref):
        if min(abs(e - p) for p in poles) < 1e-3:
            continue
        compared += 1
        assert row.eps_c == eps_ref
        assert (row.nudged, row.failed) == (nudged, eff is None)
        assert row.out_of_assumption == bgp.out_of_assumption
        assert row.double_negative == (eff.eps_eff.real < 0 and eff.mu_eff.real < 0)
        for got, want in ((row.eps_eff, eff.eps_eff), (row.mu_eff, eff.mu_eff),
                          (row.beta_eff, eff.beta_eff)):
            assert abs(got - want) <= 1e-12 * abs(want)
    assert compared > 500


def test_sweep_chiral_resonance_point_nudged(ball_cn, ball_spectrum):
    # weak chirality and a dilute lattice keep the round trip 1e-12 off
    # the pole far inside its 1e-8 tolerance
    bgw = ChiralBackground(1.0, 1.0, 0.2, 1.0)
    cfgw = DiluteConfig(0.05, 125, 0.965, ball_cn)
    star = resonant_eps(bgw, LAM).real
    with pytest.raises(SingularModeError):
        tilde_from_definition(bgw, star, cfgw, ball_spectrum)
    rows = sweep_figure(bgw, cfgw, ball_spectrum, [star - 0.1, star, star + 0.1])
    hit = rows[1]
    assert hit.nudged and not hit.failed
    assert hit.eps_c == star + 1e-12
    assert all(np.isfinite(v) for v in (hit.eps_eff, hit.mu_eff, hit.beta_eff))
    # the scalar chain accepts the nudged point too (values 1e-12 off the
    # pole are conditioning-limited, so they are not compared here)
    invert_effective(tilde_from_definition(bgw, star + 1e-12, cfgw, ball_spectrum), bgw)
    assert not any(r.nudged or r.failed for r in (rows[0], rows[2]))


def test_sweep_persistent_failure_is_nan_row(bg, cfg, ball_spectrum):
    # at beta 0.4 the round trip 1e-12 off the pole misses its tolerance,
    # so the nudged point fails again
    star = resonant_eps(bg, LAM).real
    with pytest.raises(EffectiveError, match="round-trip"):
        invert_effective(tilde_from_definition(bg, star + 1e-12, cfg, ball_spectrum), bg)
    rows = sweep_figure(bg, cfg, ball_spectrum, [star - 0.1, star, star + 0.1])
    hit = rows[1]
    assert hit.nudged and hit.failed and not hit.double_negative
    assert hit.eps_c == star + 1e-12
    assert all(np.isnan(v.real) and np.isnan(v.imag)
               for v in (hit.eps_eff, hit.mu_eff, hit.beta_eff))
    assert not any(r.nudged or r.failed for r in (rows[0], rows[2]))
    # a failure shared by every point fails every row the same way
    grid = [-3.0, -2.5]
    for r, e in zip(sweep_figure(bg, cfg, ball_spectrum, grid, mode_index=7), grid):
        assert r.nudged and r.failed and r.eps_c == e + 1e-12 and np.isnan(r.eps_eff)


# --- the sweep as columns ---------------------------------------------------


def _reference_rows(bg, cfg, spectrum, grid, mode_index=0):
    """Reference: a list with one SweepRow built per point from the same
    elementwise pass and nudge, the rows the sweep's row view must give."""
    eps_c = np.array([complex(e) for e in grid], dtype=complex)
    values, failed = _sweep_pass(bg, cfg, spectrum, mode_index, eps_c)
    nudged = failed.copy()
    if nudged.any():
        eps_c[nudged] += 1e-12
        values[:, nudged], failed[nudged] = _sweep_pass(bg, cfg, spectrum, mode_index,
                                                        eps_c[nudged])
    values[:, failed] = complex(np.nan, np.nan)
    eps_eff, mu_eff, beta_eff = values
    double_negative = (eps_eff.real < 0) & (mu_eff.real < 0)
    return [SweepRow(eps_c=e, eps_eff=a, mu_eff=m, beta_eff=b, double_negative=dn,
                     out_of_assumption=bg.out_of_assumption, nudged=nu, failed=f)
            for e, a, m, b, dn, nu, f in zip(
                eps_c.tolist(), eps_eff.tolist(), mu_eff.tolist(), beta_eff.tolist(),
                double_negative.tolist(), nudged.tolist(), failed.tolist())]


def _summary_reference(rows, reference_abscissa=None):
    """Reference: sweep_summary as one pass over the rows."""
    failed, nudged, dn = [], [], []
    peak, peak_mag = None, -1.0
    for r in rows:
        if r.nudged:
            nudged.append(r.eps_c.real)
        if r.failed:
            failed.append(r.eps_c.real)
        elif cmath.isfinite(r.eps_eff) and abs(r.eps_eff) > peak_mag:
            peak, peak_mag = r, abs(r.eps_eff)
        if r.double_negative:
            dn.append(r.eps_c.real)
    out = {"points": len(rows), "failed": len(failed)}
    if peak is not None:
        out["resonance_abscissa"] = peak.eps_c.real
        out["resonance_peak_magnitude"] = peak_mag
    out["double_negative_count"] = len(dn)
    if dn:
        out["double_negative_min"] = min(dn)
        out["double_negative_max"] = max(dn)
    if reference_abscissa is not None and "resonance_abscissa" in out:
        out["reference_abscissa"] = reference_abscissa
        out["abscissa_deviation"] = out["resonance_abscissa"] - reference_abscissa
    out["nudged_points"] = nudged
    out["failed_points"] = failed
    return out


def _row_key(row):
    """A row's fields as repr text: NaN equals NaN, floats compare bit for
    bit, and a numpy scalar reads differently from a Python one."""
    return tuple(repr(v) for v in dataclasses.astuple(row))


def _preset_sweep(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # figure1-left lies outside the assumption
        cfg = cli.resolve("eff-sweep", cli._PRESETS[name])
        bg, spectrum, mode_index, dilute = cli.load_model(cfg)
    grid = cli._sweep_grid(cfg, bg, spectrum, mode_index)
    return bg, dilute, spectrum, grid, mode_index


@pytest.fixture(scope="module")
def chiral_flagged_grid(bg, cfg):
    # the bare resonance fails again after its nudge; the point at the
    # permeability-branch shifted resonance is double-negative
    star = resonant_eps(bg, LAM).real
    s_eps, s_mu = (z.real for z in shifted_resonances(bg, LAM, cfg))
    return [-3.0, star, s_eps, s_mu, star + 0.1, -1.5]


@pytest.mark.parametrize("case", ["figure1-left", "chiral"])
def test_sweep_row_view_matches_rows(case, bg, cfg, ball_spectrum, chiral_flagged_grid):
    if case == "chiral":
        args = (bg, cfg, ball_spectrum, chiral_flagged_grid, 0)
    else:
        args = _preset_sweep(case)
    sweep = sweep_figure(*args[:4], mode_index=args[4])
    ref = _reference_rows(*args)
    assert any(r.nudged for r in ref) and any(r.double_negative for r in ref)
    if case == "chiral":
        assert any(r.failed for r in ref)
    else:
        assert all(r.out_of_assumption for r in ref)
    n = len(ref)
    assert len(sweep) == n
    # the row view differs from the reference rows only in the type of
    # out_of_assumption, which the background computes as a numpy bool
    want = [_row_key(dataclasses.replace(r, out_of_assumption=bool(r.out_of_assumption)))
            for r in ref]
    assert [_row_key(r) for r in sweep] == want
    assert [_row_key(sweep[i]) for i in range(-n, n)] == want + want
    with pytest.raises(IndexError):
        sweep[n]
    for r in (sweep[0], sweep[-1], *list(sweep)[:50]):
        assert all(type(getattr(r, name)) is complex
                   for name in ("eps_c", "eps_eff", "mu_eff", "beta_eff"))
        assert all(type(getattr(r, name)) is bool
                   for name in ("double_negative", "out_of_assumption", "nudged", "failed"))
    # the benchmark tracer sums the flags over the rows into its JSON metrics
    assert json.loads(json.dumps(sum(r.nudged for r in sweep))) == sum(r.nudged for r in ref)
    assert json.dumps(sum(r.failed for r in sweep)) == str(sum(r.failed for r in ref))


def test_sweep_columns_are_read_only(bg, cfg, ball_spectrum, chiral_flagged_grid):
    sweep = sweep_figure(bg, cfg, ball_spectrum, chiral_flagged_grid)
    with pytest.raises(ValueError):
        sweep.eps_eff[0] = 0.0
    with pytest.raises(AttributeError):
        sweep.failed = np.zeros(len(sweep), dtype=bool)
    # one column entry per grid point: a scalar or a 2-D grid is refused
    for grid in (-3.0, [[-3.0, -2.0]]):
        with pytest.raises(EffectiveError, match="one-dimensional"):
            sweep_figure(bg, cfg, ball_spectrum, grid)


@pytest.mark.parametrize("weak", [False, True], ids=["failed", "nudged"])
def test_sweep_blocks_match_one_pass(monkeypatch, bg, cfg, ball_cn, ball_spectrum, weak):
    # in blocks of two points the flagged resonance points sit on both sides
    # of the first block boundary; the columns, masks included, are those
    # of one unblocked _sweep_pass and its nudge.  At beta 0.4 the nudged
    # points fail again; in the weak background they recover
    if weak:
        bg, cfg = ChiralBackground(1.0, 1.0, 0.2, 1.0), DiluteConfig(0.05, 125, 0.965, ball_cn)
    star = resonant_eps(bg, LAM).real
    grid = [star - 0.1, star, star, star + 0.1, -1.5]
    monkeypatch.setattr(effective, "_SWEEP_BLOCK", 2)
    sweep = sweep_figure(bg, cfg, ball_spectrum, grid)
    ref = _reference_rows(bg, cfg, ball_spectrum, grid)
    assert [r.nudged for r in ref] == [False, True, True, False, False]
    assert [r.failed for r in ref] == [False, not weak, not weak, False, False]
    want = [_row_key(dataclasses.replace(r, out_of_assumption=bool(r.out_of_assumption)))
            for r in ref]
    assert [_row_key(r) for r in sweep] == want


def test_eff_sweep_peak_memory(tmp_path, capsys):
    # sweep_figure runs the chain over blocks of grid points and write_csv
    # renders blocks of rows, so the benchmark's 21,000-point figure1 sweep
    # holds its columns and one block's temporaries: 3.5 MB measured for
    # the command, where one pass over every point and one rendering of
    # every row took 11.3 MB; the bound is 1.25 times the measured peak
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # figure1-left lies outside the assumption
        cfg = cli.resolve("eff-sweep", {**cli._PRESETS["figure1-left"],
                                        "eps_c_points": "15000", "dense_points": "6000"})
        tracemalloc.start()
        try:
            assert cli.cmd_eff_sweep(cfg, tmp_path, "figure1-left") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert "(21000 points)" in capsys.readouterr().out
    assert peak < 4.4e6, peak


def _tie_sweep():
    """Hand-made columns: three exactly equal |eps_eff| peaks (|3+4i| = 5),
    then a pair whose magnitudes np.abs rounds equal and Python's abs does
    not (|0.1+0.1i| is one ulp below 0.14142135623730953)."""
    eps_eff = np.array([1.0, 3 + 4j, -5.0, 5j, 2.0], dtype=complex)
    tiny = np.array([0.1 + 0.1j, 0.14142135623730953], dtype=complex)
    sweeps = []
    for values in (eps_eff, tiny):
        n = len(values)
        sweeps.append(Sweep(eps_c=np.linspace(-3.0, -2.0, n) + 0j, eps_eff=values,
                            mu_eff=np.full(n, -1.0 + 0j), beta_eff=np.zeros(n, dtype=complex),
                            double_negative=values.real < 0, nudged=np.zeros(n, dtype=bool),
                            failed=np.zeros(n, dtype=bool), out_of_assumption=False))
    return sweeps


@pytest.mark.parametrize("case", ["figure1-left", "figure1-right", "all-failed", "ties"])
def test_sweep_summary_matches_row_loop(case, bg, cfg, ball_spectrum):
    reference = None
    if case == "all-failed":
        # mode_index past the clusters fails every point
        sweeps = [sweep_figure(bg, cfg, ball_spectrum, [-3.0, -2.5, -2.0], mode_index=7)]
    elif case == "ties":
        sweeps = _tie_sweep()
    else:
        bgp, dilute, spectrum, grid, mode_index = _preset_sweep(case)
        sweeps = [sweep_figure(bgp, dilute, spectrum, grid, mode_index=mode_index)]
        reference = cli._FIGURE1_REFERENCE_ABSCISSA
    for sweep in sweeps:
        got = sweep_summary(sweep, reference_abscissa=reference)
        want = _summary_reference(list(sweep), reference_abscissa=reference)
        # repr tells -0.0 from 0.0, every float bit and numpy from Python scalars
        assert got == want and repr(got) == repr(want)
    if case == "all-failed":
        assert got["failed"] == 3 and "resonance_abscissa" not in got
    elif case == "ties":
        # the first of the equal peaks; the second of the pair, as abs ranks it
        assert [sweep_summary(s)["resonance_abscissa"] for s in sweeps] == \
            [s.eps_c[1].real for s in sweeps]
    elif case == "figure1-right":
        assert got["double_negative_count"] == 0 and "double_negative_min" not in got
    else:
        assert got["nudged_points"] and got["double_negative_count"] > 0


def test_eff_sweep_builds_no_rows(tmp_path, monkeypatch, capsys, bg, cfg, ball_spectrum):
    # the command writes and summarizes the columns; a row is built only
    # when a caller indexes or iterates the sweep
    built = []

    class CountedRow(SweepRow):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(effective, "SweepRow", CountedRow)
    assert cli.main(["eff-sweep", "--preset", "figure1-left", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "eff_sweep.csv").is_file()
    assert built == []
    # the patch reaches the row view
    assert len(list(sweep_figure(bg, cfg, ball_spectrum, [-3.0, -2.5]))) == len(built) == 2


def test_sweep_reductions_loop_over_no_points():
    # sweep_figure and sweep_summary stay whole-column numpy: no Python
    # loop or comprehension over grid points
    tree = ast.parse(inspect.getsource(effective))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in ("sweep_figure", "sweep_summary"):
        found = [type(node).__name__ for node in ast.walk(funcs[name])
                 if isinstance(node, loops)]
        assert not found, (name, found)
