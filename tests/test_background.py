import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralmeta.background import (BackgroundError, ChiralBackground, PlaneWaveSpec,
                                   SingularPointError, _scalar_kernel, circular_wave, green_apply,
                                   green_dyadic, incident_field, incident_six, k0_matrix,
                                   make_circular_basis, maxwell_dyadic)
from _fd import dbf_residual, fd_curl
from _waves import linear_wave

E3 = np.array([0.0, 0.0, 1.0])


def bg_chiral():
    return ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=0.3, omega=1.1)


def test_derived_constants_identities():
    bg = bg_chiral()
    assert bg.k == pytest.approx(bg.omega * np.sqrt(bg.eps_m * bg.mu_m), rel=1e-15)
    gamma_sq = bg.k ** 2 / (1 - (bg.k * bg.beta_m) ** 2)
    assert bg.gamma1 * bg.gamma2 == pytest.approx(gamma_sq, rel=1e-14)
    assert 0.5 * (1 / bg.gamma1 + 1 / bg.gamma2) == pytest.approx(1 / bg.k, rel=1e-14)
    assert bg.gamma1 > bg.gamma2 > 0


def test_zero_chirality_constants():
    bg = ChiralBackground(1.0, 1.0, 0.0, 2.0)
    assert bg.gamma1 == bg.gamma2 == bg.k == 2.0
    assert bg.dbf_factor == 1.0
    assert not bg.out_of_assumption


def test_kbeta_guard():
    with pytest.raises(BackgroundError):
        ChiralBackground(1.0, 1.0, 1.09, 1.0)
    with pytest.warns(UserWarning):
        bg = ChiralBackground(1.0, 1.0, 1.09, 1.0, allow_kbeta_ge_1=True)
    assert bg.out_of_assumption


def test_parameter_validation():
    for bad in (dict(eps_m=-1.0), dict(mu_m=0.0), dict(omega=0.0), dict(beta_m=-0.1)):
        kw = dict(eps_m=1.0, mu_m=1.0, beta_m=0.1, omega=1.0)
        kw.update(bad)
        with pytest.raises(BackgroundError):
            ChiralBackground(**kw)


def test_nan_beta_refused():
    # NaN passes "beta_m < 0" and "k * beta_m >= 1" alike
    with pytest.raises(BackgroundError, match="beta_m must be nonnegative, got nan"):
        ChiralBackground(1.0, 1.0, float("nan"), 1.0)


def test_circular_basis_right():
    p, q = make_circular_basis(E3, "right")
    assert np.allclose(q, np.array([1.0, -1.0j, 0.0]) / np.sqrt(2))
    assert np.allclose(np.cross(p, q), 1j * q)


def test_circular_basis_left():
    p, q = make_circular_basis(E3, "left")
    assert np.allclose(q, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2))
    assert np.allclose(np.cross(p, q), -1j * q)


def test_circular_basis_orthogonal():
    for hand in ("left", "right"):
        p, q = make_circular_basis(E3, hand)
        assert np.dot(p, q) == 0  # exact for an axis-aligned frame
        p, q = make_circular_basis(np.array([0.6, 0.0, 0.8]), hand)
        assert abs(np.dot(p, q)) < 1e-15


def test_circular_basis_zero_direction():
    with pytest.raises(BackgroundError):
        make_circular_basis(np.zeros(3), "left")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3),
       st.sampled_from(["left", "right"]))
def test_circular_basis_invariants(direction, hand):
    d = np.asarray(direction)
    nrm = np.linalg.norm(d)
    if nrm < 1e-3:
        return
    d = d / nrm
    sign = -1.0 if hand == "left" else 1.0
    p, q = make_circular_basis(d, hand)
    assert abs(np.dot(p, q)) < 1e-12
    assert np.linalg.norm(np.cross(p, q) - sign * 1j * q) < 1e-12


def test_plane_wave_spec_holds_one_direction():
    # both branches travel along the one stored unit vector p
    assert [f for f in PlaneWaveSpec.__dataclass_fields__] == ["p", "q1", "q2"]
    d = np.array([0.6, 0.0, 0.8])
    for wave in (circular_wave(d, "left"), circular_wave(d, "right"), linear_wave(d, [1, 0, 0])):
        assert wave.p.dtype == float
        assert np.array_equal(wave.p, make_circular_basis(d, "left")[0])
    p, q = make_circular_basis(E3, "left")
    for bad in (1.5 * p, p + 1e-3j * np.array([1.0, 0.0, 0.0])):
        with pytest.raises(BackgroundError, match="p must be a real unit vector"):
            PlaneWaveSpec(p=bad, q1=q, q2=np.zeros(3))


def test_incident_at_origin():
    bg = bg_chiral()
    wave = circular_wave(E3, "left")
    e, h = incident_field(bg, wave, np.zeros(3))
    assert np.allclose(e, wave.q1 + wave.q2)
    # H carries the impedance factor with opposite signs per handedness
    imp = np.sqrt(bg.eps_m / bg.mu_m)
    assert np.allclose(h, -1j * imp * wave.q1 + 1j * imp * wave.q2)


def test_incident_q1_term_is_beltrami():
    bg = bg_chiral()
    p, q = make_circular_basis(E3, "left")

    def term(x):
        return q * np.exp(1j * bg.gamma1 * np.dot(p.real, x))

    x = np.array([0.3, -0.2, 0.5])
    curl = fd_curl(term, x)
    assert np.linalg.norm(curl - bg.gamma1 * term(x)) / np.linalg.norm(term(x)) < 1e-4


@pytest.mark.parametrize("hand", ["left", "right"])
def test_incident_satisfies_chiral_system(hand):
    bg = bg_chiral()
    wave = circular_wave(np.array([0.6, 0.0, 0.8]), hand)
    x = np.array([0.2, 0.4, -0.3])
    res = dbf_residual(bg, lambda y: incident_field(bg, wave, y)[0],
                       lambda y: incident_field(bg, wave, y)[1], x)
    assert res < 1e-4


def test_incident_random_samples(rng):
    bg = ChiralBackground(1.0, 1.3, 0.25, 0.9)
    for _ in range(20):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        hand = "left" if rng.random() < 0.5 else "right"
        wave = circular_wave(d, hand)
        x = rng.uniform(-1, 1, size=3)
        res = dbf_residual(bg, lambda y: incident_field(bg, wave, y)[0],
                           lambda y: incident_field(bg, wave, y)[1], x)
        assert res < 1e-4


def test_incident_six_stacks_pair():
    bg = bg_chiral()
    wave = linear_wave(E3, np.array([0.0, 1.0, 0.0]))
    x = np.array([0.1, 0.2, 0.3])
    e, h = incident_field(bg, wave, x)
    assert np.allclose(incident_six(bg, wave, x), np.concatenate([e, h]))


def _green_dyadic_reference(bg, x, eta):
    """The dyadic as a per-branch product of full 6x6 blocks: the block
    matrix [[D, (i s/gamma) C], [(-i/(s gamma)) C, D]] of one branch times
    kron(pol, I3), with D = g I + hess/gamma^2 and C = [g' x^]x."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(np.linalg.norm(x, axis=-1))
    at_origin = r < 1e-12
    r = np.where(at_origin, 1.0, r)
    xh = x / r[..., None]
    s = bg.impedance_ratio
    I3 = np.eye(3)
    G = np.zeros(x.shape[:-1] + (6, 6), dtype=complex)
    for gamma, om, sign in ((bg.gamma1, bg.omega1, +1.0), (bg.gamma2, bg.omega2, -1.0)):
        g, g1, g2 = _scalar_kernel(r, gamma, eta)
        g = np.where(at_origin, 1.0 / eta if eta > 0 else np.nan, g)
        g1 = np.where(at_origin, 0.0, g1)
        g2 = np.where(at_origin, 0.0, g2)
        xx = xh[..., :, None] * xh[..., None, :]
        hess = (g2 - g1 / r)[..., None, None] * xx + (g1 / r)[..., None, None] * I3
        hess = np.where(at_origin[..., None, None], 0.0, hess)
        D = g[..., None, None] * I3 + hess / gamma ** 2
        v = g1[..., None] * xh
        C = np.zeros(v.shape[:-1] + (3, 3), dtype=complex)
        C[..., 0, 1], C[..., 0, 2] = -v[..., 2], v[..., 1]
        C[..., 1, 0], C[..., 1, 2] = v[..., 2], -v[..., 0]
        C[..., 2, 0], C[..., 2, 1] = -v[..., 1], v[..., 0]
        blk = np.empty_like(G)
        blk[..., :3, :3] = D
        blk[..., :3, 3:] = (1j * s / gamma) * C
        blk[..., 3:, :3] = (-1j / (s * gamma)) * C
        blk[..., 3:, 3:] = D
        pol = np.array([[1.0, sign * 1j * s], [-sign * 1j / s, 1.0]])
        G += 0.5 * gamma ** 2 / om * np.einsum("...ij,jk->...ik", blk, np.kron(pol, I3))
    return G


def _assert_matches_reference(bg, x, eta):
    G = green_dyadic(bg, x, eta=eta)
    ref = _green_dyadic_reference(bg, x, eta)
    assert G.shape == ref.shape == np.shape(x)[:-1] + (6, 6)
    if G.size:
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [0.4, 0.0])
@pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("shape", [(3,), (0, 3), (7, 3), (4, 5, 3)])
def test_green_matches_block_product_reference(beta, eta, shape):
    bg = ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=beta, omega=1.1)
    x = np.random.default_rng(3).normal(size=shape)
    _assert_matches_reference(bg, x, eta)


@pytest.mark.parametrize("eta", [0.1, 1.0])
def test_green_matches_reference_at_origin(eta):
    bg = ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=0.4, omega=1.1)
    x = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0]])
    _assert_matches_reference(bg, x, eta)
    _assert_matches_reference(bg, np.zeros(3), eta)


def test_green_classical_reduction():
    bg = ChiralBackground(1.3, 0.7, 0.0, 1.2)
    for x in (np.array([1.0, 0.0, 0.0]), np.array([0.4, -0.8, 0.3])):
        G = green_dyadic(bg, x)
        # EE block carries the omega eps_m mu_m prefactor of the chiral
        # convention relative to the bare (I + grad grad / k^2) g kernel
        ref_ee = bg.omega * bg.eps_m * bg.mu_m * maxwell_dyadic(bg.k, x)
        assert np.abs(G[:3, :3] - ref_ee).max() / np.abs(ref_ee).max() < 1e-10


def test_green_offdiagonal_blocks_beta0():
    # at beta=0 the two circular branches coincide, so the EH and HE
    # blocks are the same curl dyadic up to the medium impedance factors
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    x = np.array([0.5, 0.3, -0.7])
    G = green_dyadic(bg, x)
    assert np.abs(G[:3, 3:] + G[3:, :3]).max() < 1e-12 * np.abs(G).max()


def test_green_columns_satisfy_chiral_system():
    bg = bg_chiral()
    for d in (np.array([1.0, 0.0, 0.0]), np.array([0.5, -0.5, np.sqrt(0.5)])):
        for col in range(6):
            res = dbf_residual(bg, lambda y, c=col: green_dyadic(bg, y)[:3, c],
                               lambda y, c=col: green_dyadic(bg, y)[3:, c], d, h=1e-4)
            assert res < 1e-3


def test_green_outgoing_decay():
    bg = bg_chiral()
    d = np.array([0.8, 0.6, 0.0])
    vals = [r * np.linalg.norm(green_dyadic(bg, r * d), ord=2) for r in (1, 3, 10, 30, 100)]
    assert max(vals) < 10 * vals[-1]  # r * ||G|| stays bounded along the ray


def test_green_singularity_guard():
    with pytest.raises(SingularPointError):
        green_dyadic(bg_chiral(), np.array([0.0, 0.0, 1e-13]))


def test_regularized_finite_at_origin():
    bg = bg_chiral()
    G = green_dyadic(bg, np.zeros(3), eta=1e-2)
    assert np.all(np.isfinite(G))
    # the scalar kernel value at the origin is 1/eta, so halving eta
    # doubles the matrix magnitude exactly
    G2 = green_dyadic(bg, np.zeros(3), eta=2e-2)
    assert np.abs(G).max() == pytest.approx(2.0 * np.abs(G2).max(), rel=1e-12)


def test_regularized_eta0_origin_error():
    with pytest.raises(SingularPointError):
        green_dyadic(bg_chiral(), np.zeros(3), eta=0.0)


def test_regularized_eta_continuity():
    bg = bg_chiral()
    x = np.array([0.4, 0.1, -0.2])
    G0 = green_dyadic(bg, x)
    devs = [np.abs(green_dyadic(bg, x, eta=eta) - G0).max()
            for eta in (0.1, 0.05, 0.025, 0.0125)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.01 * np.abs(G0).max()


def test_negative_eta_refused():
    # 1/(4 pi r + eta) has a pole at r = -eta/(4 pi) when eta < 0
    with pytest.raises(BackgroundError, match="eta must be nonnegative"):
        green_dyadic(bg_chiral(), np.array([0.3, 0.4, 0.5]), eta=-0.1)


# ---------------------------------------------------------------------------
# green_apply: the dyadic applied through its two circular channels


def _assert_apply_matches_blocks(bg, x, f, eta):
    got = green_apply(bg, x, f, eta=eta)
    ref = np.einsum("...cij,...cj->...i", green_dyadic(bg, x, eta=eta), f)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [0.4, 0.0])
@pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("x_shape, f_shape", [((9, 3), (9, 6)), ((4, 9, 3), (9, 6))])
def test_green_apply_matches_block_product(beta, eta, x_shape, f_shape):
    bg = ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=beta, omega=1.1)
    rng = np.random.default_rng(5)
    x = rng.normal(size=x_shape)
    f = rng.normal(size=f_shape) + 1j * rng.normal(size=f_shape)
    _assert_apply_matches_blocks(bg, x, f, eta)


@pytest.mark.parametrize("eta", [0.1, 1.0])
def test_green_apply_matches_block_product_at_origin(eta):
    bg = ChiralBackground(eps_m=1.2, mu_m=0.8, beta_m=0.4, omega=1.1)
    x = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0]])
    f = np.random.default_rng(6).normal(size=(3, 6)) * (1.0 - 0.5j)
    _assert_apply_matches_blocks(bg, x, f, eta)
    # the origin alone: only the g = 1/eta term of each branch is left
    _assert_apply_matches_blocks(bg, x[:1], f[:1], eta)


def test_green_apply_empty_source_axis():
    bg = bg_chiral()
    assert np.array_equal(green_apply(bg, np.zeros((0, 3)), np.zeros((0, 6))), np.zeros(6))
    assert np.array_equal(green_apply(bg, np.zeros((4, 0, 3)), np.zeros((0, 6))),
                          np.zeros((4, 6)))


def test_green_apply_errors_match_dyadic():
    bg = bg_chiral()
    f = np.ones((2, 6))
    with pytest.raises(BackgroundError, match="eta must be nonnegative"):
        green_apply(bg, np.array([[0.3, 0.4, 0.5], [0.1, 0.0, 0.0]]), f, eta=-0.1)
    with pytest.raises(SingularPointError):
        green_apply(bg, np.array([[0.3, 0.4, 0.5], [0.0, 0.0, 0.0]]), f, eta=0.0)
    with pytest.raises(BackgroundError, match="sources"):
        green_apply(bg, np.ones((2, 3)), np.ones((2, 3)))
    # the source axis must match; only the leading axes broadcast
    with pytest.raises(BackgroundError, match="sources"):
        green_apply(bg, np.ones((1, 3)), np.ones((2, 6)))


def test_k0_zero_contrast():
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    assert np.allclose(k0_matrix(bg, 1.0), np.zeros((2, 2)))


def test_k0_beta0_diagonal():
    bg = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    assert np.allclose(k0_matrix(bg, -2.5), np.diag([-3.5, 0.0]))


def test_k0_worked_example():
    bg = ChiralBackground(1.0, 1.0, 0.5, 1.0)
    ec = -3.0
    expected = np.array([[ec - 4.0 / 3.0, -2.0j / 3.0],
                         [2.0j / 3.0, -1.0 / 3.0]])
    assert np.allclose(k0_matrix(bg, ec), expected, rtol=1e-14)
