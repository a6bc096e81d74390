import numpy as np
import pytest

from chiralmeta.background import (ChiralBackground, circular_wave, green_dyadic,
                                   incident_six, k0_matrix)
from chiralmeta.dipole import (FarFieldError, ParticleInstance, dipole_response_tensor,
                               scattered_field_dipole)
from chiralmeta.np_spectral import mesh_spectrum
from chiralmeta.polarization import (SingularModeError, mode_response, polarization_tensor,
                                     resonant_eps)
from _fd import dbf_residual, loglog_slope
from _meshes import small_torus

WAVE = circular_wave([0.0, 0.0, 1.0], "right")


@pytest.fixture(scope="module")
def bg():
    return ChiralBackground(1.0, 1.0, 0.4, 1.0)


@pytest.fixture(scope="module")
def particle(bg, ball_spectrum):
    lam = ball_spectrum.clusters()[0].eigenvalue
    star = resonant_eps(bg, lam).real
    return ParticleInstance(center=[0.2, -0.1, 0.3], delta=0.05,
                            eps_c=star + 1e-3, spectrum=ball_spectrum)


def test_particle_validation(ball_spectrum):
    with pytest.raises(ValueError, match="delta"):
        ParticleInstance(center=[0, 0, 0], delta=0.0, eps_c=-2.0, spectrum=ball_spectrum)
    with pytest.raises(ValueError, match="far_field_factor"):
        ParticleInstance(center=[0, 0, 0], delta=0.1, eps_c=-2.0, spectrum=ball_spectrum,
                         far_field_factor=-1.0)
    p = ParticleInstance(center=[[1.0], [2.0], [3.0]], delta=0.1, eps_c=-2.0,
                         spectrum=ball_spectrum)
    assert p.center.shape == (3,)


def test_cluster_index_in_range(ball_spectrum):
    # -1 used to pick the last cluster silently
    count = len(ball_spectrum.clusters())
    for index in (-1, count):
        with pytest.raises(ValueError, match=f"cluster_index {index} out of range"):
            ParticleInstance(center=[0, 0, 0], delta=0.1, eps_c=-2.0, spectrum=ball_spectrum,
                             cluster_index=index)


def test_scattered_vanishes_with_contrast(particle, ball_spectrum):
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    inc = incident_six(bg0, WAVE, particle.center)
    x = particle.center + np.array([1.0, 0.0, 0.0])
    for off in (1e-4, 1e-6):
        p = ParticleInstance(center=particle.center, delta=0.05, eps_c=1.0 + off,
                             spectrum=ball_spectrum)
        assert np.linalg.norm(scattered_field_dipole(bg0, p, inc, x)) < 1e-8 * off


def test_scattered_linear_in_incident(bg, particle):
    inc = incident_six(bg, WAVE, particle.center)
    x = particle.center + np.array([1.0, 0.0, 0.0])
    a = 0.7 - 1.3j
    f1 = scattered_field_dipole(bg, particle, a * inc, x)
    f2 = a * scattered_field_dipole(bg, particle, inc, x)
    assert np.abs(f1 - f2).max() <= 1e-13 * np.abs(f2).max()


def test_scattered_volume_scaling(bg, particle, ball_spectrum):
    inc = incident_six(bg, WAVE, particle.center)
    x = particle.center + np.array([1.0, 0.0, 0.0])
    deltas = np.array([1e-2, 1e-3, 1e-4])
    mags = []
    for d in deltas:
        p = ParticleInstance(center=particle.center, delta=d, eps_c=particle.eps_c,
                             spectrum=ball_spectrum)
        mags.append(np.linalg.norm(scattered_field_dipole(bg, p, inc, x)))
    assert loglog_slope(deltas, mags) == pytest.approx(3.0, abs=1e-6)


def test_scattered_resonance_blowup(bg, particle, ball_spectrum):
    lam = ball_spectrum.clusters()[0].eigenvalue
    star = resonant_eps(bg, lam).real
    inc = incident_six(bg, WAVE, particle.center)
    x = particle.center + np.array([1.0, 0.0, 0.0])
    offs = np.array([1e-2, 1e-3, 1e-4])
    mags = []
    for o in offs:
        p = ParticleInstance(center=particle.center, delta=0.05, eps_c=star + o,
                             spectrum=ball_spectrum)
        mags.append(np.linalg.norm(scattered_field_dipole(bg, p, inc, x)))
    assert loglog_slope(offs, mags) == pytest.approx(-1.0, abs=0.05)


def test_scattered_solves_chiral_system(bg, particle):
    # the scattered pair satisfies the first-order chiral curl equations
    # away from the particle (finite differences, independent stencil)
    inc = incident_six(bg, WAVE, particle.center)
    x = particle.center + np.array([0.48, -0.6, 0.64])

    def e_f(p):
        return scattered_field_dipole(bg, particle, inc, p)[:3]

    def h_f(p):
        return scattered_field_dipole(bg, particle, inc, p)[3:]

    assert dbf_residual(bg, e_f, h_f, x, h=1e-4) < 1e-6


def test_far_field_guard(bg, particle, ball_spectrum):
    inc = incident_six(bg, WAVE, particle.center)
    near = particle.center + np.array([0.3, 0.0, 0.0])
    with pytest.raises(FarFieldError, match="guard"):
        scattered_field_dipole(bg, particle, inc, near)
    relaxed = ParticleInstance(center=particle.center, delta=particle.delta,
                               eps_c=particle.eps_c, spectrum=ball_spectrum,
                               far_field_factor=2.0)
    out = scattered_field_dipole(bg, relaxed, inc, near)
    assert np.all(np.isfinite(out))


def test_achiral_response_is_electric_only(ball_spectrum):
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    p = ParticleInstance(center=[0, 0, 0], delta=0.05, eps_c=-2.5, spectrum=ball_spectrum)
    T = dipole_response_tensor(bg0, p)
    assert np.abs(T[:3, 3:]).max() == 0
    assert np.abs(T[3:, :]).max() == 0
    assert np.abs(T[:3, :3]).max() > 0


def test_response_tensor_variants_agree_near_resonance(bg, sphere_spec3, ico3):
    # near resonance the driving cluster dominates the volume-shifted full
    # polarization tensor; the gap closes linearly with the offset
    lam = sphere_spec3.clusters()[0].eigenvalue
    star = resonant_eps(bg, lam).real
    for off, tol in ((1e-6, 1e-5), (1e-4, 1e-3)):
        p = ParticleInstance(center=[0, 0, 0], delta=0.05, eps_c=star + off,
                             spectrum=sphere_spec3)
        a = dipole_response_tensor(bg, p)
        b = (np.kron(k0_matrix(bg, p.eps_c), np.eye(3))
             @ polarization_tensor(sphere_spec3, bg, p.eps_c, ico3).M_tilde)
        assert np.abs(a - b).max() / np.abs(b).max() < tol


@pytest.mark.parametrize("shape", ["sphere", "torus"])
def test_response_tensor_is_one_coupling_product(bg, sphere_spec3, shape):
    # the 2x2 contrast-times-response product, then the moment tensor: the
    # 6x6 product of two Kronecker products it replaces, written out
    spectrum = sphere_spec3 if shape == "sphere" else mesh_spectrum(small_torus(), 15)
    for index, cluster in enumerate(spectrum.clusters()):
        p = ParticleInstance(center=[0, 0, 0], delta=0.05, eps_c=-2.7 + 0.1j,
                             spectrum=spectrum, cluster_index=index)
        ref = (np.kron(k0_matrix(bg, p.eps_c), np.eye(3))
               @ np.kron(mode_response(bg, p.eps_c, cluster.eigenvalue), cluster.moment_tensor))
        got = dipole_response_tensor(bg, p)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_exact_resonance_raises(bg, ball_spectrum):
    lam = ball_spectrum.clusters()[0].eigenvalue
    p = ParticleInstance(center=[0, 0, 0], delta=0.05, eps_c=resonant_eps(bg, lam),
                         spectrum=ball_spectrum)
    inc = incident_six(bg, WAVE, p.center)
    with pytest.raises(SingularModeError, match="singular"):
        scattered_field_dipole(bg, p, inc, [1.0, 0.0, 0.0])


def transpose_deviations(bg, x, eta=0.0):
    """Largest entry of each block of G(-x) minus its reciprocity partner
    in G(x) (EE, HH transposed; EH, HE transposed with a sign swap),
    relative to the largest entry of G(x)."""
    x = np.asarray(x, dtype=float)
    Gp = green_dyadic(bg, x, eta=eta)
    Gm = green_dyadic(bg, -x, eta=eta)
    scale = np.abs(Gp).max()
    assert scale > 0
    return {"ee": np.abs(Gm[:3, :3] - Gp[:3, :3].T).max() / scale,
            "hh": np.abs(Gm[3:, 3:] - Gp[3:, 3:].T).max() / scale,
            "eh": np.abs(Gm[:3, 3:] + Gp[3:, :3].T).max() / scale,
            "he": np.abs(Gm[3:, :3] + Gp[:3, 3:].T).max() / scale}


def test_reciprocity_report(bg):
    for dev in transpose_deviations(bg, [0.3, -0.7, 0.9]).values():
        assert dev < 1e-14


def test_reciprocity_exact_in_diagonal_blocks():
    # x^x^T is symmetric and [x^]x antisymmetric, so the EE and HH blocks
    # of G(-x) are the transposes of those of G(x) to the last bit
    bg = ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=0.4, omega=1.1)
    for x in ([0.3, -0.7, 0.9], [1.5, 0.2, -0.4], [0.0, 0.0, 0.25]):
        for eta in (0.0, 0.1):
            dev = transpose_deviations(bg, x, eta=eta)
            assert dev["ee"] == 0.0
            assert dev["hh"] == 0.0
