import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralmeta import polarization
from chiralmeta.background import ChiralBackground, k0_matrix, mat2x2
from chiralmeta.np_spectral import mesh_spectrum
from chiralmeta.polarization import (RootFindError, SingularModeError, drude_eps,
                                     drude_omega_for_eps, find_resonance_root, mode_params,
                                     mode_response, polarization_tensor, resonant_eps)
from _fd import loglog_slope
from _meshes import small_torus


def test_mode_params_achiral():
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    p = mode_params(bg, -2.0)
    assert p.lambda_eps == pytest.approx(1 / 6)
    assert p.d_eps == 0 and p.c == 0 and p.c_d_mu == 0


def test_mode_params_worked_example():
    bg = ChiralBackground(1.0, 1.0, 0.5, 1.0)
    p = mode_params(bg, -3.0)
    assert p.lambda_eps == pytest.approx(5 / 26, rel=1e-14)
    assert p.c == pytest.approx(1 - 4 / 3, rel=1e-15)   # t = 1/(1 - 1/4)


def test_mode_params_singular_denominator():
    bg = ChiralBackground(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(SingularModeError, match="eps"):
        mode_params(bg, bg.eps_m * bg.dbf_factor)


@pytest.mark.parametrize("kbeta", [1e-12, 1e-9, 1e-6])
def test_tiny_chirality_is_computed_not_refused(kbeta):
    # k*beta well inside the assumption: the magnetic row's 1 - t, which
    # cancels to rounding below k*beta ~ 1e-7, must not make the response
    # refused; it departs from the achiral response linearly in k*beta
    ec, lam = np.array([-3.0, -2.5 + 0.3j]), 0.2
    failed = np.zeros(2, dtype=bool)
    M = mode_response(ChiralBackground(1.0, 1.0, kbeta, 1.0), ec, lam, failed=failed)
    assert not failed.any()
    M0 = mode_response(ChiralBackground(1.0, 1.0, 0.0, 1.0), ec, lam)
    gap = np.abs(M - M0).max(axis=(0, 1)) / np.abs(M0).max(axis=(0, 1))
    assert np.all((0.1 * kbeta < gap) & (gap < kbeta))


def assembled_det(bg, eps_c, lam):
    """The determinant of the response matrix as mode_response assembles it:
    from the complex entries of A."""
    A = mat2x2(*polarization._response_entries(mode_params(bg, eps_c), lam, bg.omega))
    return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]


def test_assemble_diagonal_det():
    # at beta = 0 the scaled magnetic row is [0, 1], so det A = A_00
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    p = mode_params(bg, -3.0)
    assert assembled_det(bg, -3.0, 0.2) == p.lambda_eps - 0.2
    # achiral limit: the mu branch decouples and contributes nothing
    M = mode_response(bg, -3.0, 0.2)
    assert np.allclose(M, [[-1.0 / (p.lambda_eps - 0.2), 0.0], [0.0, 0.0]], rtol=1e-15, atol=0)


def unscaled_params(eps_m, mu_m, beta, omega, eps_c):
    """The paper's (lambda_eps, lambda_mu, d_eps, d_mu), written out from
    the background's parameters (the magnetic row unscaled)."""
    t = 1.0 / (1.0 - (omega * math.sqrt(eps_m * mu_m) * beta) ** 2)
    return ((eps_c + eps_m * t) / (2.0 * (eps_c - eps_m * t)),
            (mu_m + mu_m * t) / (2.0 * (mu_m - mu_m * t)),
            eps_m * mu_m * beta * t / (eps_c - eps_m * t),
            eps_m * mu_m * beta * t / (mu_m - mu_m * t))


def test_assemble_blocks_definition(rng):
    # the blocks must reproduce -A^{-1} [[1, -iw d_eps], [iw d_mu, 1]]
    bg = ChiralBackground(1.1, 0.9, 0.4, 1.3)
    ec, lam, w = -2.5 + 0.3j, 1 / 6, bg.omega
    le, lm, de, dm = unscaled_params(1.1, 0.9, 0.4, 1.3, ec)
    A = np.array([[le - lam, 1j * w * de * (0.5 + lam)],
                  [-1j * w * dm * (0.5 + lam), lm - lam]])
    B = np.array([[1.0, -1j * w * de], [1j * w * dm, 1.0]])
    recon = -np.linalg.inv(A) @ B
    assert np.abs(mode_response(bg, ec, lam) - recon).max() < 1e-12 * np.abs(recon).max()


def test_det_matches_independent_expansion(rng):
    # the assembled determinant is the paper's times the magnetic row
    # scale 1 - t
    bg = ChiralBackground(1.2, 0.7, 0.35, 0.9)
    one_minus_t = 1.0 - 1.0 / (1.0 - (0.9 * math.sqrt(1.2 * 0.7) * 0.35) ** 2)
    for _ in range(20):
        ec = complex(rng.uniform(-5, -1), rng.uniform(0, 0.5))
        lam = rng.uniform(-0.4, 0.4)
        le, lm, de, dm = unscaled_params(1.2, 0.7, 0.35, 0.9, ec)
        v = 0.5 + lam
        expand = (le - lam) * (lm - lam) - 0.9 ** 2 * de * dm * v * v
        assert assembled_det(bg, ec, lam) == pytest.approx(one_minus_t * expand, rel=1e-13)


def test_mode_objective_is_det_direct_bit_for_bit(rng):
    # the bisection's determinant-only objective reads the same value as
    # mode_response's refusal, so the direct resonance roots do not move;
    # the achiral and nearly achiral backgrounds take the same expression
    for bg in (ChiralBackground(1.2, 0.7, 0.35, 0.9), ChiralBackground(1.0, 1.0, 0.4, 1.0),
               ChiralBackground(1.0, 1.0, 0.0, 1.0), ChiralBackground(1.2, 0.7, 1e-9, 0.9)):
        for _ in range(200):
            ec = float(rng.uniform(-6.0, -0.5))
            lam = float(rng.uniform(-0.45, 0.45))
            assert polarization._mode_objective(bg, lam)(ec) == assembled_det(bg, ec, lam)


def test_mode_matrix_worked_example():
    # omega = eps_m = mu_m = 1, beta = 0.5, eps_c = -3, lambda = 1/6:
    # exact rational arithmetic gives the matrices below
    bg = ChiralBackground(1.0, 1.0, 0.5, 1.0)
    M = mode_response(bg, -3.0, 1 / 6)
    assert np.allclose(M, [[-15.0, -2.0j], [-6.0j, 1.0]], rtol=1e-12)
    prod = k0_matrix(bg, -3.0) @ M
    assert np.allclose(prod, [[61.0, 8.0j], [-8.0j, 1.0]], rtol=1e-12)


def test_resonant_eps_values():
    assert resonant_eps(ChiralBackground(1.0, 1.0, 0.0, 1.0), 1 / 6) == pytest.approx(-2.0)
    got = resonant_eps(ChiralBackground(1.0, 1.0, 0.5, 1.0), 1 / 6)
    assert got == pytest.approx(-24 / 11, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(-0.45, 0.45))
def test_resonant_eps_real_negative(beta, lam):
    bg = ChiralBackground(1.0, 1.0, beta, 1.0)  # k = 1, so k*beta < 1
    star = resonant_eps(bg, lam)
    assert star.imag == 0
    assert star.real < 0


def test_det_vanishes_at_resonant_eps():
    # the closed-form resonant permittivity is a zero of the assembled
    # determinant over a representative set of eigenvalues
    bg = ChiralBackground(1.0, 1.0, 0.5, 1.0)
    for lam in (0.1, 1 / 6, 0.3):
        assert abs(assembled_det(bg, resonant_eps(bg, lam), lam)) < 1e-10


def test_polarization_classical_sphere(sphere_spec3, ico3):
    # achiral positive-contrast sphere: only the electric dipole block
    # survives and matches the quasi-static sphere response
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    for ec in (3.0, 5.0):
        pt = polarization_tensor(sphere_spec3, bg, ec, ico3)
        assert np.abs(pt.M[:3, 3:]).max() == 0
        assert np.abs(pt.M[3:, :3]).max() == 0
        assert np.abs(pt.M[3:, 3:]).max() == 0
        pred = -(4 * np.pi / 9) * (ec - 1) / (ec + 2)
        diag = np.diag(pt.M[:3, :3])
        assert np.allclose(diag, pred, rtol=0.05)
        off = pt.M[:3, :3] - np.diag(diag)
        assert np.abs(off).max() < 0.02 * np.abs(diag).max()


def test_polarization_blocks_isotropic(sphere_spec3, ico3):
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    pt = polarization_tensor(sphere_spec3, bg, -3.0, ico3)
    for bi in (0, 3):
        for bj in (0, 3):
            blk = pt.M[bi:bi + 3, bj:bj + 3]
            diag = np.diag(blk)
            assert np.ptp(np.abs(diag)) <= 0.02 * np.abs(diag).max()
            off = blk - np.diag(diag)
            assert np.abs(off).max() <= 0.02 * np.abs(diag).max()


def test_polarization_blowup_slope(ball_spectrum, ico3):
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    star = resonant_eps(bg, 1 / 6).real
    offsets = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    norms = [np.linalg.norm(polarization_tensor(ball_spectrum, bg, star + o, ico3).M)
             for o in offsets]
    assert loglog_slope(offsets, norms) == pytest.approx(-1.0, abs=0.05)


def test_polarization_singular_mode_error(ball_spectrum, ico3):
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(SingularModeError, match="lambda"):
        polarization_tensor(ball_spectrum, bg, -2.0, ico3)


def test_polarization_mesh_refinement_stable(sphere_spec3, ico3, sphere_spec4):
    # blocks depend on the mesh only through spectrum and volume
    spec4, mesh4 = sphere_spec4
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    a = polarization_tensor(sphere_spec3, bg, -3.0, ico3).M
    b = polarization_tensor(spec4, bg, -3.0, mesh4).M
    # the leading eigenvalue moves ~0.07% with refinement; the 1/(lambda_eps -
    # lambda_n) factor amplifies that to ~2% at this contrast
    assert np.abs(a - b).max() / np.abs(b).max() < 0.03


def test_m_tilde_offset(ball_spectrum, ico3):
    bg = ChiralBackground(1.0, 1.0, 0.3, 1.0)
    pt = polarization_tensor(ball_spectrum, bg, -3.0, ico3)
    assert np.allclose(pt.M_tilde, pt.volume * np.eye(6) + pt.M)


def test_drude_values():
    assert drude_eps(1.0, 1.0, 0.0) == 0
    assert drude_eps(1e4, 1.0, 0.0) == pytest.approx(1.0, abs=1e-7)
    assert drude_eps(0.5, 1.0, 0.0) == pytest.approx(-3.0)


def test_drude_inversion():
    w = drude_omega_for_eps(-2.0, 1.0)
    assert w == pytest.approx(1 / np.sqrt(3), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(-8.0, 0.9), st.floats(0.5, 2.0), st.floats(0.0, 0.2))
def test_drude_roundtrip(target, omega_p, tau):
    w = drude_omega_for_eps(complex(target), omega_p, tau)
    back = drude_eps(w.real, omega_p, tau) if tau == 0 else 1.0 - omega_p ** 2 / (w ** 2 + 1j * tau * w)
    assert back == pytest.approx(complex(target), abs=1e-9)


def test_find_root_achiral():
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    root = find_resonance_root(bg, 1 / 6, bracket=(-3.0, -1.0))
    assert root == pytest.approx(-2.0, abs=1e-10)


def test_find_root_small_beta_perturbation():
    bg = ChiralBackground(1.0, 1.0, 1e-2, 1.0)
    root = find_resonance_root(bg, 1 / 6, bracket=(-3.0, -1.0))
    assert abs(root - (-2.0)) < 1e-3
    assert abs(root - (-2.0)) > 1e-6  # the shift is real, O(beta^2)


def test_find_root_no_sign_change():
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(RootFindError, match="sign change"):
        find_resonance_root(bg, 1 / 6, bracket=(-1.5, -1.0))


@pytest.mark.parametrize("bracket", [(math.nan, -1.0), (-3.0, math.inf), (-math.inf, -1.0)])
def test_find_root_refuses_non_finite_bracket(bracket):
    # a NaN end is never halved away: the bisection used to run forever
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    with pytest.raises(RootFindError, match="is not finite"):
        find_resonance_root(bg, 1 / 6, bracket=bracket)


def test_find_root_refuses_non_finite_objective(monkeypatch):
    # NaN fails every sign test, and "|objective| > 1e-10" too, so a NaN
    # inside the bracket used to steer the bisection blind and pass
    def holed(bg, lambda_n):
        return lambda x: complex(math.nan) if -2.1 < x.real < -1.9 else complex(x + 2.7)

    monkeypatch.setattr(polarization, "_mode_objective", holed)
    with pytest.raises(RootFindError, match=r"objective not finite at eps_c = -2\.0"):
        find_resonance_root(ChiralBackground(1.0, 1.0, 0.4, 1.0), 1 / 6, bracket=(-3.0, -1.0))


def test_mode_response_refuses_resonance():
    # at beta = 0 the bound 1e-14 |c| is 0 and only the exact zero of
    # det A = A_00 (at eps_c = -2) is refused; the message gives the |det|
    # and the bound it was tested against
    chiral = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    for bg, star in ((chiral, resonant_eps(chiral, 1 / 6)),
                     (ChiralBackground(1.0, 1.0, 0.0, 1.0), -2.0)):
        with pytest.raises(SingularModeError,
                           match=r"^mode response nearly singular .* <= \d\.\d{3}e[+-]\d+\)$"):
            mode_response(bg, star, 1 / 6)
        failed = np.zeros(2, dtype=bool)
        M = mode_response(bg, np.array([star, -3.0]), 1 / 6, failed=failed)
        assert failed.tolist() == [True, False]
        # the array path gives the scalar path's blocks at the point it keeps
        assert np.allclose(M[..., 1], mode_response(bg, -3.0, 1 / 6), rtol=1e-15, atol=0)


def test_mode_response_array_refusal_names_worst_point():
    # without failed= an array is refused as a scalar call at its most
    # singular point is, with that point's |det|; formatting the |det| of
    # the whole array used to end in a TypeError
    bg = ChiralBackground(1.0, 1.0, 0.4, 1.0)
    star = resonant_eps(bg, 1 / 6).real
    with pytest.raises(SingularModeError) as scalar:
        mode_response(bg, star, 1 / 6)
    with pytest.raises(SingularModeError) as array:
        mode_response(bg, np.array([-3.0, star, -2.0]), 1 / 6)
    det = str(scalar.value).split(", lambda_n = ")[1]
    assert det.startswith("0.16666666666666666 (|det| = ")
    assert str(array.value).endswith(det)


def resonance_cases(sphere_spec3):
    """(background, lambda_n) pairs: 1/6 on an achiral and a chiral
    background, then every cluster of the subdivision-3 sphere and of a
    1,600-panel torus the size of the benchmark's."""
    cases = [(ChiralBackground(1.0, 1.0, beta, 1.0), 1 / 6) for beta in (0.0, 0.4)]
    bg = ChiralBackground(1.0, 1.0, 0.35, 1.0)
    for spectrum in (sphere_spec3, mesh_spectrum(small_torus(40, 20, 1.15, 0.425), 15)):
        cases += [(bg, cluster.eigenvalue) for cluster in spectrum.clusters()]
    return cases


def sign_change_near(g, x, a, b):
    """The float t nearest ``x`` at which g changes sign on its way from a to
    b: g(t) has the sign of g(a) and g(nextafter(t, b)) has not, or g(t) is
    zero.  brentq stops within xtol + rtol |x| of the root, up to 8 ulps at
    |x| >= 8, so its answer is walked to the sign change ulp by ulp."""
    left = g(a) < 0
    for _ in range(64):
        if g(x) == 0.0:
            return x
        if (g(x) < 0) != left:
            x = np.nextafter(x, a)
        elif (g(np.nextafter(x, b)) < 0) == left:
            x = np.nextafter(x, b)
        else:
            return x
    raise AssertionError(f"no sign change within 64 ulps of {x!r}")


def test_find_root_matches_brentq_and_brackets_sign_change(sphere_spec3):
    from scipy.optimize import brentq   # reference only; the package does not import it
    for bg, lam in resonance_cases(sphere_spec3):
        star = resonant_eps(bg, lam).real
        a, b = star - 0.4, star + 0.4   # the bracket of the resonances command
        f = polarization._mode_objective(bg, lam)
        root = find_resonance_root(bg, lam, bracket=(a, b))
        ref = sign_change_near(lambda x: f(x).real,
                               brentq(lambda x: f(x).real, a, b, xtol=1e-15, rtol=8.9e-16,
                                      maxiter=200), a, b)
        assert root.imag == 0.0
        r = root.real
        assert abs(r - ref) <= 4 * np.spacing(abs(ref)), (lam, r, ref)
        fr, fnext = f(r).real, f(np.nextafter(r, b)).real
        assert fr == 0.0 or (fr < 0) != (fnext < 0), (lam, r)


def test_find_root_failure_messages(monkeypatch):
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(RootFindError, match=r"^no sign change on bracket \[-1\.5, -1\.0\]: "
                                            r"f\(a\) = -6\.667e-02, f\(b\) = -1\.667e-01$"):
        find_resonance_root(bg, 1 / 6, bracket=(-1.5, -1.0))
    # a sign change without a zero: the bisection ends at the jump, where
    # the residual check refuses the candidate after one evaluation there
    calls = []

    def step(bg, lambda_n):
        def f(x):
            calls.append(x)
            return complex(math.copysign(1.0, (x + 1.7).real))
        return f

    monkeypatch.setattr(polarization, "_mode_objective", step)
    with pytest.raises(RootFindError, match=r"^root candidate \(-1\.7000000000000002\+0j\) "
                                            r"has \|objective\| = 1\.000e\+00 > 1e-10$"):
        find_resonance_root(bg, 1 / 6, bracket=(-3.0, -1.0))
    assert calls[-1] == -1.7000000000000002
    assert calls.count(calls[-1]) == 2   # once as a bisection point, once for the check
