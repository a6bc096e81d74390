import dataclasses

import numpy as np
import pytest

from chiralmeta import foldy
from chiralmeta.background import (BackgroundError, ChiralBackground, _radial, circular_wave,
                                   green_apply, green_dyadic, incident_six)
from chiralmeta.dipole import ParticleInstance, scattered_field_dipole
from chiralmeta.effective import (DiluteConfig, coupling_from_tilde, coupling_matrix,
                                  s_limit_tilde, tilde_from_definition)
from chiralmeta.foldy import (FoldyError, GridState, _cube_group, _cube_orbits,
                              _fft_apply, _grid_index, _group_sums,
                              _irrep_blocks,
                              _lu_solve_system, _offset_blocks, _solve_grid, cell_centers,
                              check_distribution, compare_homogenization, eval_foldy_field,
                              eval_homogenized_field, probe_ring, solve_foldy,
                              solve_homogenized_ls, uniform_invertibility_stat)
from _waves import linear_wave

WAVE = circular_wave([0.0, 0.0, 1.0], "left")


@pytest.fixture(scope="module")
def bg():
    return ChiralBackground(1.0, 1.0, 0.4, 1.0)


@pytest.fixture(scope="module")
def cfg(ball_cn):
    # volume_scale < 1 so even a single-cell lattice satisfies dilution;
    # sized for the N = 2 lattice
    return DiluteConfig(0.5, 2, 0.965, ball_cn)


def _solve(bg, cfg, N, spectrum, incident, eta):
    """The lattice solve of ``foldy``: eps_c -3, the coupling of the config
    rescaled to the N^3 lattice."""
    tilde = tilde_from_definition(bg, -3.0, dataclasses.replace(cfg, n_per_axis=N), spectrum)
    return solve_foldy(bg, tilde, N, eta, incident)


@pytest.fixture(scope="module")
def state2(bg, cfg, ball_spectrum):
    return _solve(bg, cfg, 2, ball_spectrum, WAVE, 0.1)


def test_cell_centers_layout():
    c = cell_centers(2)
    assert c.shape == (8, 3)
    assert np.allclose(c[0], [0.25, 0.25, 0.25])
    assert np.allclose(c[1], [0.25, 0.25, 0.75])  # last axis fastest
    assert np.allclose(c.mean(axis=0), [0.5, 0.5, 0.5])
    c = cell_centers(3)
    d = np.linalg.norm(c[:, None] - c[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(1 / 3, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lattice_centers_are_cell_centers(bg, cfg, ball_spectrum, N):
    st = _solve(bg, cfg, N, ball_spectrum, WAVE, 0.1)
    assert st.n == N
    assert np.array_equal(st.centers, cell_centers(N))


def test_single_particle_state_is_incident(bg, cfg, ball_spectrum):
    st = _solve(bg, cfg, 1, ball_spectrum, WAVE, 0.1)
    # the masked self block leaves K = 0: one sweep returns b
    assert st.solver_report["method"] == "iteration"
    assert st.solver_report["iterations"] == 1
    assert np.array_equal(st.values, incident_six(bg, WAVE, cell_centers(1)))


def test_zero_incident_gives_zero_state(bg, cfg, ball_spectrum):
    dark = circular_wave([0.0, 0.0, 1.0], "left", amplitude=0.0)
    st = _solve(bg, cfg, 2, ball_spectrum, dark, 0.1)
    assert np.all(st.values == 0)


def test_single_particle_field_matches_dipole(bg, cfg, ball_spectrum):
    # one lattice site with eta = 0 is exactly the point-dipole model
    st = _solve(bg, cfg, 1, ball_spectrum, WAVE, 0.0)
    probes = probe_ring(8)
    total = eval_foldy_field(bg, st, probes)
    center = cell_centers(1)[0]
    part = ParticleInstance(center=center, delta=dataclasses.replace(cfg, n_per_axis=1).delta,
                            eps_c=-3.0, spectrum=ball_spectrum, far_field_factor=2.0)
    inc_c = incident_six(bg, WAVE, center)
    expect = incident_six(bg, WAVE, probes) + scattered_field_dipole(bg, part, inc_c, probes)
    assert np.abs(total - expect).max() < 1e-10 * np.abs(expect).max()


def test_mirror_symmetry(cfg, ball_spectrum):
    # achiral background, y-polarized wave along z: mirroring x across the
    # cube midplane flips (E_x, H_y, H_z) and permutes the centers
    bg0 = ChiralBackground(1.0, 1.0, 0.0, 1.0)
    wave = linear_wave([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    st = _solve(bg0, cfg, 2, ball_spectrum, wave, 0.1)
    mirrored = st.centers.copy()
    mirrored[:, 0] = 1.0 - mirrored[:, 0]
    sgn = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    for i, mc in enumerate(mirrored):
        j = int(np.argmin(np.linalg.norm(st.centers - mc, axis=1)))
        assert np.abs(st.values[j] - sgn * st.values[i]).max() < 1e-8


def test_solver_report(state2):
    rep = state2.solver_report
    assert rep["method"] == "iteration"
    assert rep["size"] == 48
    assert rep["residual"] < 1e-10
    assert rep["iterations"] >= 1


def test_both_solves_return_grid_state(bg, state2):
    hom = solve_homogenized_ls(bg, s_limit_tilde(bg, 1 / 6, 0.3), 3, 0.5, WAVE)
    for st, n in ((state2, 2), (hom, 3)):
        assert type(st) is GridState
        assert st.n == n
        assert np.array_equal(st.centers, cell_centers(n))
        assert st.values.shape == (n ** 3, 6)


@pytest.mark.parametrize("eta", [-0.1, float("nan")])
def test_lattice_eta_guard(bg, cfg, ball_spectrum, eta):
    # NaN fails every comparison, so the check is "not eta >= 0"
    tilde = tilde_from_definition(bg, -3.0, cfg, ball_spectrum)
    with pytest.raises(FoldyError, match="eta must be nonnegative"):
        solve_foldy(bg, tilde, 2, eta, WAVE)


def _no_kernel_work(monkeypatch):
    """Make every kernel or incident-field evaluation in ``foldy`` fail."""
    def no_kernel_work(*args, **kwargs):
        raise AssertionError("kernel work before the size check")

    for name in ("green_dyadic", "_radial", "incident_six"):
        monkeypatch.setattr(foldy, name, no_kernel_work)


def test_lattice_axis_bound(bg, cfg, ball_spectrum, monkeypatch):
    # refused before any kernel or incident-field evaluation
    tilde = tilde_from_definition(bg, -3.0, cfg, ball_spectrum)
    _no_kernel_work(monkeypatch)
    for N in (0, 25):
        with pytest.raises(FoldyError, match=rf"n_per_axis must lie in \[1, 24\], got {N}"):
            solve_foldy(bg, tilde, N, 0.1, WAVE)


@pytest.mark.parametrize("check", [lambda bg, N: check_distribution(bg, N, 1.0),
                                   uniform_invertibility_stat],
                         ids=["check_distribution", "uniform_invertibility_stat"])
def test_assumption_checks_axis_bound(bg, monkeypatch, check):
    # both checks grow about as N^3 in time and memory (203 MB at N = 16):
    # the lattice bound of solve_foldy holds for them too, before any table
    _no_kernel_work(monkeypatch)
    for N in (0, 25):
        with pytest.raises(FoldyError, match=rf"n_per_axis must lie in \[1, 24\], got {N}"):
            check(bg, N)


@pytest.mark.parametrize("n_list, grid_m, name", [([2, 0], 6, "n_per_axis"),
                                                  ([2, 25], 6, "n_per_axis"),
                                                  ([2], 0, "grid_m"), ([2], 25, "grid_m")])
def test_compare_homogenization_axis_bound(bg, cfg, ball_spectrum, monkeypatch,
                                           n_list, grid_m, name):
    # every size is refused before the volume solve, and so before any kernel
    # evaluation
    tilde = tilde_from_definition(bg, -3.0, cfg, ball_spectrum)
    _no_kernel_work(monkeypatch)
    bad = grid_m if name == "grid_m" else n_list[-1]
    with pytest.raises(FoldyError, match=rf"{name} must lie in \[1, 24\], got {bad}"):
        compare_homogenization(bg, tilde, n_list, 0.1, probe_ring(8), grid_m, WAVE)


def test_lattice_coupling_is_coupling_matrix(bg, cfg, state2, ball_spectrum):
    # the coupling goes T2 -> tilde -> T2; at omega = 1 the round trip is
    # exact, elsewhere it rounds: 1.9e-17 of the largest entry measured at
    # omega 1.3, eps_c -2.5+0.3i
    lam = ball_spectrum.clusters()[0].eigenvalue
    expect = np.kron(coupling_matrix(bg, -3.0, cfg, lam), np.eye(3))
    assert np.array_equal(state2.coupling, expect)
    bg13 = ChiralBackground(1.0, 1.0, 0.4, 1.3)
    eps_c = -2.5 + 0.3j
    st = solve_foldy(bg13, tilde_from_definition(bg13, eps_c, cfg, ball_spectrum), 2, 0.1,
                     WAVE)
    expect = np.kron(coupling_matrix(bg13, eps_c, cfg, lam), np.eye(3))
    assert np.abs(st.coupling - expect).max() <= 2.2e-16 * np.abs(expect).max()


def test_solve_linear_in_amplitude(bg, cfg, state2, ball_spectrum):
    a = 2.0 - 0.5j
    st = _solve(bg, cfg, 2, ball_spectrum,
                circular_wave([0.0, 0.0, 1.0], "left", amplitude=a), 0.1)
    assert np.abs(st.values - a * state2.values).max() < 1e-12 * np.abs(st.values).max()


def test_far_field_decay(bg, state2):
    center = np.array([0.5, 0.5, 0.5])
    rs = np.array([10.0, 30.0, 100.0])
    for d in ([0.3, -0.5, 0.8], [1.0, 0.2, 0.1]):
        d = np.asarray(d) / np.linalg.norm(d)
        mags = []
        for r in rs:
            x = center + r * d
            scat = eval_foldy_field(bg, state2, x) - incident_six(bg, WAVE, x)
            mags.append(np.linalg.norm(scat))
        slope = np.polyfit(np.log(rs), np.log(mags), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


def test_eta_consistency(bg, cfg, ball_spectrum):
    # halving the regularization scale changes the probe fields less and
    # less: the eta-dependence is a vanishing perturbation
    probes = probe_ring(8)
    outs = {}
    for eta in (0.2, 0.1, 0.05):
        st = _solve(bg, cfg, 2, ball_spectrum, WAVE, eta)
        outs[eta] = eval_foldy_field(bg, st, probes)
    scale = np.linalg.norm(outs[0.05])
    d1 = np.linalg.norm(outs[0.2] - outs[0.1]) / scale
    d2 = np.linalg.norm(outs[0.1] - outs[0.05]) / scale
    assert d2 < d1 < 5e-3


def test_homogenized_zero_coupling_is_incident(bg):
    from chiralmeta.effective import TildeParams

    hom = solve_homogenized_ls(bg, TildeParams(0j, 0j, 0j, 0j), 4, 0.5, WAVE)
    assert np.array_equal(hom.values, incident_six(bg, WAVE, hom.centers))


def test_homogenized_fixed_point_identity(bg):
    # re-evaluating the solved field at the quadrature nodes reproduces
    # the solution table: same kernel, same weights
    tl = s_limit_tilde(bg, 1 / 6, 0.3)
    hom = solve_homogenized_ls(bg, tl, 6, 0.5, WAVE)
    dev = np.abs(eval_homogenized_field(bg, hom, hom.centers) - hom.values).max()
    assert dev < 1e-8


def test_homogenized_grid_refinement(bg):
    tl = s_limit_tilde(bg, 1 / 6, 0.3)
    probes = probe_ring(8)
    fields = {}
    for m in (4, 6, 8):
        hom = solve_homogenized_ls(bg, tl, m, 0.5, WAVE)
        fields[m] = eval_homogenized_field(bg, hom, probes)
    scale = np.linalg.norm(fields[8])
    d1 = np.linalg.norm(fields[4] - fields[6]) / scale
    d2 = np.linalg.norm(fields[6] - fields[8]) / scale
    assert d2 < d1 < 5e-4


def test_homogenized_guards(bg):
    tl = s_limit_tilde(bg, 1 / 6, 0.3)
    with pytest.raises(FoldyError, match="grid_m"):
        solve_homogenized_ls(bg, tl, 25, 0.5, WAVE)
    with pytest.raises(FoldyError, match="eta"):
        solve_homogenized_ls(bg, tl, 4, 0.0, WAVE)


def test_distribution_refines(bg):
    vals = [check_distribution(bg, N, 1.0) for N in (3, 4, 5, 6)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_distribution_needs_a_probe(bg):
    for count in (0, -5):
        with pytest.raises(FoldyError, match="probe_count must be at least 1"):
            check_distribution(bg, 3, 1.0, probe_count=count)


# ---------------------------------------------------------------------------
# lattice sums against full 6x6 blocks contracted by einsum


def _distribution_reference(bg, N, eta, probe_count=8):
    """check_distribution with every kernel point expanded to a 6x6 block."""
    centers = cell_centers(N)
    n = centers.shape[0]
    fine = cell_centers(4 * N)
    F_lat = foldy._smooth_test_pair(centers)
    F_fine = foldy._smooth_test_pair(fine)
    js = np.unique(np.linspace(0, n - 1, min(probe_count, n)).round().astype(int))
    worst = 0.0
    for j in js:
        rel = centers - centers[j]
        keep = np.linalg.norm(rel, axis=-1) > 1e-14
        lat_sum = np.einsum("cij,cj->i", green_dyadic(bg, rel[keep], eta=eta),
                            F_lat[keep]) / n
        ref = np.einsum("cij,cj->i", green_dyadic(bg, fine - centers[j], eta=eta),
                        F_fine) / fine.shape[0]
        worst = max(worst, float(np.linalg.norm(lat_sum - ref)))
    return worst


def _field_reference(bg, src, eta, T6, values, incident, x):
    """Incident plus (omega/n) sum_c G_eta(x - src_c) T6 u_c, by 6x6 blocks."""
    G = green_dyadic(bg, x[:, None, :] - src[None, :, :], eta=eta)
    return (incident_six(bg, incident, x)
            + bg.omega / src.shape[0] * np.einsum("pcij,cj->pi", G, values @ T6.T))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [0.1, 1.0])
def test_distribution_matches_block_reference(bg, N, eta):
    got = check_distribution(bg, N, eta)
    assert got == pytest.approx(_distribution_reference(bg, N, eta), rel=1e-13)


def test_distribution_single_site_has_no_neighbours(bg):
    # one center: the lattice average is empty, so the statistic is the
    # norm of the fine-grid integral alone
    fine = cell_centers(4)
    ref = np.einsum("cij,cj->i", green_dyadic(bg, fine - cell_centers(1)[0], eta=1.0),
                    foldy._smooth_test_pair(fine)) / fine.shape[0]
    assert check_distribution(bg, 1, 1.0) == pytest.approx(float(np.linalg.norm(ref)),
                                                           rel=1e-13)


def _distribution_offsets(N, j):
    """Integer offsets, in units of 1/(8N), of check_distribution's two sums
    for lattice site j: to the other lattice centers and to the fine nodes."""
    lat = 8 * _grid_index(N) + 4
    rel = lat - lat[j]
    return rel[rel.any(axis=-1)], 2 * _grid_index(4 * N) + 1 - lat[j]


@pytest.mark.parametrize("N", [5, 7])
@pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
def test_radial_table_matches_green_apply(bg, N, eta):
    # one probe's sums through the per-radius table against green_apply on
    # the same offsets as float points
    table = _radial(bg, np.sqrt(np.arange(1, 3 * (8 * N) ** 2 + 1)) / (8 * N), eta)
    for j in (0, N ** 3 // 2 + N // 3, N ** 3 - 1):
        for D in _distribution_offsets(N, j):
            F = foldy._smooth_test_pair(D / (8.0 * N) + 0.5)
            got = foldy._table_apply(bg, table, D, F)
            ref = green_apply(bg, D / (8.0 * N), F, eta=eta)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_distribution_negative_eta_rejected(bg):
    with pytest.raises(BackgroundError, match="eta must be nonnegative"):
        check_distribution(bg, 3, -1.0)


def test_distribution_one_radial_evaluation_per_radius(bg, monkeypatch):
    # the dyadic's radial scalars are evaluated once per squared integer
    # radius k = 1 ... 3(8N)^2, not once per (probe, point) pair
    radii = []

    def counted(bg, r, eta):
        radii.append(np.size(r))
        return _radial(bg, r, eta)

    def per_point(*args, **kwargs):
        raise AssertionError("kernel evaluated per point")

    monkeypatch.setattr(foldy, "_radial", counted)
    monkeypatch.setattr(foldy, "green_apply", per_point)
    monkeypatch.setattr(foldy, "green_dyadic", per_point)
    for N in (1, 3, 6):
        radii.clear()
        check_distribution(bg, N, 1.0)
        assert 0 < sum(radii) <= 3 * (8 * N) ** 2 + 1


def test_field_at_one_point_is_row_zero(bg, state2):
    x = np.array([0.3, 2.9, -1.1])
    one = eval_foldy_field(bg, state2, x)
    assert one.shape == (6,)
    assert np.array_equal(one, eval_foldy_field(bg, state2, x[None, :])[0])


def test_lattice_and_volume_fields_match_block_reference(bg, state2):
    pts = np.vstack([probe_ring(8), [[0.5, 0.5, 0.5], [0.1, 0.9, 0.4]]])
    got = eval_foldy_field(bg, state2, pts)
    ref = _field_reference(bg, cell_centers(2), state2.eta, state2.coupling, state2.values,
                           WAVE, pts)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    hom = solve_homogenized_ls(bg, s_limit_tilde(bg, 1 / 6, 0.3), 4, 0.5, WAVE)
    got = eval_homogenized_field(bg, hom, pts)
    ref = _field_reference(bg, hom.centers, hom.eta, hom.coupling, hom.values, WAVE, pts)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_invertibility_stat_bruteforce(bg):
    got = uniform_invertibility_stat(bg, 2)
    centers = cell_centers(2)
    total = 0.0
    for i, zi in enumerate(centers):
        for j, zj in enumerate(centers):
            if i == j:
                continue
            total += float(np.sum(np.abs(green_dyadic(bg, zi - zj)) ** 2))
    expect = total / centers.shape[0] ** 2
    assert got == pytest.approx(expect, rel=1e-13)


def test_invertibility_stat_needs_pairs(bg):
    with pytest.raises(FoldyError, match="pair"):
        uniform_invertibility_stat(bg, 1)


def test_probe_ring_geometry():
    a = probe_ring(16)
    b = probe_ring(16)
    assert np.array_equal(a, b)
    assert a.shape == (16, 3)
    r = np.linalg.norm(a - np.array([0.5, 0.5, 0.5]), axis=1)
    assert np.allclose(r, 3.0)


@pytest.fixture(scope="module")
def cfg_tilde(bg, cfg, ball_spectrum):
    # the coupling compare-hom derives from the reference config
    return tilde_from_definition(bg, -3.0, cfg, ball_spectrum)


def test_compare_homogenization_small(bg, cfg_tilde):
    errs = compare_homogenization(bg, cfg_tilde, [3, 2], 0.1, probe_ring(8), 6, WAVE)
    # in n_list order
    assert len(errs) == 2
    assert errs[0] < errs[1]


def test_compare_homogenization_probe_independent(bg, cfg_tilde):
    a, = compare_homogenization(bg, cfg_tilde, [2], 0.1, probe_ring(8), 6, WAVE)
    b, = compare_homogenization(bg, cfg_tilde, [2], 0.1, probe_ring(16), 6, WAVE)
    assert abs(a - b) < 0.2 * max(a, b)


def test_compare_homogenization_single_site_baseline(bg, cfg_tilde):
    err, = compare_homogenization(bg, cfg_tilde, [1], 0.1, probe_ring(8), 6, WAVE)
    assert 0.0 < err < 1.0


# ---------------------------------------------------------------------------
# block-Toeplitz grid operator against pairwise assembly straight from the kernel


def _pairwise_interaction(bg, pts, eta, T6, zero_self):
    """Dense K = omega/n * G_eta(x_i - x_j) @ T6 assembled pair by pair."""
    n = pts.shape[0]
    rel = pts[:, None, :] - pts[None, :, :]
    if zero_self:
        rel[np.arange(n), np.arange(n)] = 1.0
    G = green_dyadic(bg, rel, eta=eta)
    if zero_self:
        G[np.arange(n), np.arange(n)] = 0.0
    blocks = bg.omega / n * (G @ T6)
    return blocks.transpose(0, 2, 1, 3).reshape(6 * n, 6 * n)


@pytest.fixture(scope="module")
def T6_dilute(bg):
    return np.kron(coupling_from_tilde(s_limit_tilde(bg, 1 / 6, 0.3), bg.omega), np.eye(3))


@pytest.fixture(scope="module")
def coupled_tilde(bg, ball_spectrum, ball_cn):
    # volume_scale 3 on a 2^3 lattice: Picard diverges on the volume grid
    return tilde_from_definition(bg, -3.0, DiluteConfig(3.0, 2, 0.965, ball_cn),
                                 ball_spectrum)


# the cube's three 180-degree rotations: the cell axes each one reverses, and
# the signs S_g it puts on the components of E and of H
D2_FLIPS = [(), (1, 2), (0, 2), (0, 1)]


def _d2_signs(flipped):
    s = np.ones(3)
    s[list(flipped)] = -1.0
    return np.tile(s, 2)


def _product_table(rot):
    """gh[g, h]: the index of R_g R_h among the 24 rotations."""
    prod = np.einsum("gij,hjk->ghik", rot, rot)
    match = np.all(prod[:, :, None] == rot[None, None], axis=(-2, -1))
    assert np.all(match.sum(axis=-1) == 1)
    return match.argmax(axis=-1)


def test_cube_rotations_form_a_group():
    rot = _cube_group().rot
    assert rot.shape == (24, 3, 3)
    assert np.array_equal(rot[0], np.eye(3))
    # signed permutation matrices of determinant 1, all distinct
    assert np.all(np.sum(rot != 0, axis=1) == 1)
    assert np.all(np.isin(rot, (-1.0, 0.0, 1.0)))
    assert np.allclose(np.linalg.det(rot), 1.0)
    assert len(np.unique(rot.reshape(24, 9), axis=0)) == 24
    _product_table(rot)   # closed under products


def test_cube_irreps_are_orthogonal_homomorphisms():
    grp = _cube_group()
    gh = _product_table(grp.rot)
    assert [D.shape[1] for D in grp.irreps] == [1, 1, 2, 3, 3]
    for D in grp.irreps:
        assert D.dtype == float
        d = D.shape[1]
        assert np.abs(D @ D.transpose(0, 2, 1) - np.eye(d)).max() <= 1e-15
        prod = np.einsum("gij,hjk->ghik", D, D)
        assert np.abs(prod - D[gh]).max() <= 1e-15


def test_cube_irrep_characters_orthogonal():
    chars = np.array([np.trace(D, axis1=1, axis2=2) for D in _cube_group().irreps])
    assert np.abs(chars @ chars.T - 24 * np.eye(5)).max() <= 1e-13


def test_group_sums_match_definition(rng):
    # the coset-wise sums equal sum_g D(g)_jl Y[g] term by term
    Y = rng.standard_normal((24, 2, 3)) + 1j * rng.standard_normal((24, 2, 3))
    got = list(_group_sums(Y))
    assert len(got) == 5
    for D, S in zip(_cube_group().irreps, got):
        assert np.abs(S - np.einsum("gjl,gxy->jlxy", D, Y)).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta, eta, zero_self", [(0.4, 0.0, True), (0.4, 0.3, False),
                                                  (0.0, 0.3, False)])
def test_offset_blocks_cube_invariant(rng, n, beta, eta, zero_self):
    # B(R_g d) = Q_g B(d) Q_g^T for all 24 rotations; a quarter-turn reorders
    # the sum inside |d|, so this holds to roundoff, not bit for bit
    grp = _cube_group()
    bgb = ChiralBackground(1.0, 1.0, beta, 1.0)
    T2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = _offset_blocks(bgb, n, eta, np.kron(T2, np.eye(3)), 1.0 / n ** 3, zero_self)
    span = 2 * n - 1
    d = _grid_index(span) - (n - 1)
    flat = B.reshape(-1, 6, 6)
    for R, Q in zip(grp.rot, grp.Q):
        Rd = d @ R.T.astype(int) + (n - 1)
        turned = flat[(Rd[:, 0] * span + Rd[:, 1]) * span + Rd[:, 2]]
        assert np.abs(turned - Q @ flat @ Q.T).max() <= 1e-15 * np.abs(B).max()


def _rotation_operators(n):
    """Dense T_g with (T_g u)[g.r] = Q_g u[r] over the n^3 grid cells, per
    rotation."""
    grp = _cube_group()
    cells = _grid_index(n)
    where = {tuple(c): p for p, c in enumerate(cells)}
    T = np.zeros((24, 6 * len(cells), 6 * len(cells)))
    for g, (R, Q) in enumerate(zip(grp.rot, grp.Q)):
        for p, c in enumerate(cells):
            q = where[tuple(np.rint(R @ (c - (n - 1) / 2) + (n - 1) / 2).astype(int))]
            T[g, 6 * q:6 * q + 6, 6 * p:6 * p + 6] = Q
    return T


def _symmetry_maps(n, orbits):
    """Dense E_(rho, i) per irrep rho and partner i, from the projection
    definition P_ij = (d/24) sum_g D(g)_ij T_g: the raw coordinate (j, r, a)
    maps to sqrt(24/d) w_r P_ij e_(r, a), with e_(r, a) the unit vector of
    component a on representative cell r."""
    grp = _cube_group()
    at, _, w = orbits
    T = _rotation_operators(n)
    rows = (6 * at[0][:, None] + np.arange(6)).reshape(-1)
    Es = []
    for D in grp.irreps:
        d = D.shape[1]
        K = 6 * d * len(w)
        e = np.zeros((d, 6 * n ** 3, K))
        for j in range(d):
            cols = slice(j * K // d, (j + 1) * K // d)
            e[j, rows, cols] = np.diag(np.repeat(w, 6))
        P = (d / 24) * np.einsum("gij,gxy->ijxy", D, T)
        Es.append([np.sqrt(24 / d) * np.einsum("jxy,jyk->xk", P[i], e) for i in range(d)])
    return Es


@pytest.mark.parametrize("n, eta, zero_self", [(1, 0.3, False), (2, 0.0, True),
                                               (3, 0.1, True), (3, 0.5, False),
                                               (4, 0.0, True), (4, 0.5, False)])
def test_gathered_matrix_matches_pairwise(bg, T6_dilute, n, eta, zero_self):
    # each gathered irrep block is E^T (I - K) E + I - E^T E for every
    # partner's E, with E and I - K formed densely: E^T E is the orthogonal
    # projector onto the stabilizer ranges, so the block is the orthonormal
    # symmetry-adapted block plus the identity on their complement; the
    # ranges of all irreps and partners together span the grid
    blocks = _offset_blocks(bg, n, eta, T6_dilute, 1.0 / n ** 3, zero_self)
    orbits = _cube_orbits(n)
    A = np.eye(6 * n ** 3) - _pairwise_interaction(bg, cell_centers(n), eta,
                                                   T6_dilute, zero_self)
    Es = _symmetry_maps(n, orbits)
    assert np.linalg.matrix_rank(np.hstack([Ei for partners in Es for Ei in partners])) \
        == A.shape[0]
    got = list(_irrep_blocks(blocks, orbits))
    assert len(got) == 5
    for block, partners in zip(got, Es):
        for Ei in partners:
            EtE = Ei.T @ Ei
            assert np.abs(EtE @ EtE - EtE).max() <= 1e-14
            expect = Ei.T @ A @ Ei + np.eye(EtE.shape[0]) - EtE
            assert block.shape == expect.shape
            assert np.abs(block - expect).max() <= 1e-14 * np.abs(A).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_orbit_weights_count_the_stabilizers(n):
    # w_r = 1/sqrt|H_r|, with |H_r| counted from the rotations that fix the
    # representative's centred position; the orbits cover the grid once
    grp = _cube_group()
    at, images, w = _cube_orbits(n)
    centred = 2 * images[0] - (n - 1)
    fixed = [sum(np.array_equal(R.astype(int) @ c, c) for R in grp.rot) for c in centred]
    assert np.array_equal(w, 1.0 / np.sqrt(fixed))
    assert np.array_equal(np.unique(at), np.arange(n ** 3))
    assert sum(24 // h for h in fixed) == n ** 3


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fft_apply_matches_gathered_matvec(bg, T6_dilute, rng, m):
    blocks = _offset_blocks(bg, m, 0.5, T6_dilute, 1.0 / m ** 3, zero_self=False)
    u = rng.standard_normal(6 * m ** 3) + 1j * rng.standard_normal(6 * m ** 3)
    expect = u - _pairwise_interaction(bg, cell_centers(m), 0.5, T6_dilute, False) @ u
    got = u - _fft_apply(blocks)(u)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("N", [3, 4])
def test_invertibility_stat_pairwise(bg, N):
    centers = cell_centers(N)
    rel = centers[:, None, :] - centers[None, :, :]
    diag = np.arange(N ** 3)
    rel[diag, diag] = 1.0
    G = green_dyadic(bg, rel)
    G[diag, diag] = 0.0
    expect = float(np.sum(np.abs(G) ** 2)) / N ** 6
    assert uniform_invertibility_stat(bg, N) == pytest.approx(expect, rel=1e-13)


def test_volume_picard_matches_dense_solve(bg, T6_dilute):
    # the volume system of solve_homogenized_ls, swept to a 1e-12 residual
    pts = cell_centers(6)
    b = incident_six(bg, WAVE, pts).reshape(-1)
    blocks = _offset_blocks(bg, 6, 0.1, T6_dilute, 1.0 / 216, zero_self=False)
    u, rep = _solve_grid(blocks, b, 1e-12)
    assert rep["method"] == "iteration"
    A = np.eye(6 * 216) - _pairwise_interaction(bg, pts, 0.1, T6_dilute, False)
    expect = np.linalg.solve(A, b)
    dev = np.linalg.norm(u - expect) / np.linalg.norm(expect)
    assert dev <= 1e-12


def test_volume_lu_fallback_coupled(bg, coupled_tilde):
    rep = solve_homogenized_ls(bg, coupled_tilde, 4, 0.1, WAVE).solver_report
    assert rep["method"] == "lu"
    assert rep["residual"] < 1e-10


def test_volume_coupled_beyond_dense_cap(bg, coupled_tilde):
    with pytest.raises(FoldyError, match="dense fallback cap"):
        solve_homogenized_ls(bg, coupled_tilde, 10, 0.1, WAVE)


def test_volume_large_grid_iterates(bg):
    hom = solve_homogenized_ls(bg, s_limit_tilde(bg, 1 / 6, 0.3), 16, 0.5, WAVE)
    assert hom.solver_report["method"] == "iteration"
    assert hom.solver_report["size"] == 24576
    assert hom.solver_report["residual"] < 1e-10


def test_dense_system_is_fortran_ordered(bg, T6_dilute):
    # lu_factor(overwrite_a=True) factors in place only a Fortran-ordered matrix
    for n in (2, 3):
        blocks = _offset_blocks(bg, n, 0.1, T6_dilute, 1.0 / n ** 3, zero_self=True)
        for block in _irrep_blocks(blocks, _cube_orbits(n)):
            assert block.flags.f_contiguous


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("beta, eta, zero_self", [(0.4, 0.0, True), (0.4, 0.3, True),
                                                  (0.4, 0.3, False), (0.0, 0.0, True),
                                                  (0.0, 0.3, False)])
def test_offset_blocks_rotation_invariant(rng, n, beta, eta, zero_self):
    # chirality breaks mirror symmetry only: a 180-degree rotation R_g of the
    # offset gives B(R_g d) = S_g B(d) S_g, bit for bit
    bgb = ChiralBackground(1.0, 1.0, beta, 1.0)
    T2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = _offset_blocks(bgb, n, eta, np.kron(T2, np.eye(3)), 1.0 / n ** 3, zero_self)
    for flipped in D2_FLIPS[1:]:
        S = _d2_signs(flipped)
        assert np.array_equal(np.flip(B, axis=flipped), S[:, None] * B * S[None, :])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_blocked_lu_matches_dense_solve_volume(bg, coupled_tilde, rng, m):
    T6 = np.kron(coupling_from_tilde(coupled_tilde, bg.omega), np.eye(3))
    blocks = _offset_blocks(bg, m, 0.1, T6, 1.0 / m ** 3, zero_self=False)
    b = rng.standard_normal(6 * m ** 3) + 1j * rng.standard_normal(6 * m ** 3)
    u, cond, _ = _lu_solve_system(blocks, b)
    A = np.eye(6 * m ** 3) - _pairwise_interaction(bg, cell_centers(m), 0.1, T6, False)
    expect = np.linalg.solve(A, b)
    assert np.linalg.norm(u - expect) <= 1e-12 * np.linalg.norm(expect)
    assert 1.0 <= cond < np.inf


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_blocked_lu_matches_dense_solve_permuted_lattice(bg, coupled_tilde, rng, N):
    # the lattice system: self blocks masked, centers in cell_centers order
    T6 = np.kron(coupling_from_tilde(coupled_tilde, bg.omega), np.eye(3))
    blocks = _offset_blocks(bg, N, 0.1, T6, 1.0 / N ** 3, zero_self=True)
    b = rng.standard_normal(6 * N ** 3) + 1j * rng.standard_normal(6 * N ** 3)
    u, cond, _ = _lu_solve_system(blocks, b)
    A = np.eye(6 * N ** 3) - _pairwise_interaction(bg, cell_centers(N), 0.1, T6, True)
    expect = np.linalg.solve(A, b)
    assert np.linalg.norm(u - expect) <= 1e-12 * np.linalg.norm(expect)
    assert 1.0 <= cond < np.inf


def test_lu_fallback_factors_each_block_once(bg, coupled_tilde, monkeypatch):
    # the benchmark tracer counts LU work through scipy.linalg.lu_factor and
    # LU fallbacks through the report's method
    import scipy.linalg
    sizes = []
    lu_factor = scipy.linalg.lu_factor

    def counted(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return lu_factor(A, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    # raw orbit coordinates: 6 d R unknowns per irrep block for R orbits, so
    # even the one-cell grid (R = 1, every rotation fixes it) factors 5
    for m, orbits, expect in ((1, 1, [6, 6, 12, 18, 18]), (3, 4, [24, 24, 48, 72, 72]),
                              (4, 4, [24, 24, 48, 72, 72])):
        sizes.clear()
        rep = solve_homogenized_ls(bg, coupled_tilde, m, 0.1, WAVE).solver_report
        assert rep["blocks"] == expect
        assert sizes == expect
        assert rep["method"] == "lu"
        assert rep["size"] == 6 * m ** 3
        assert sum(d * k for d, k in zip((1, 1, 2, 3, 3), expect)) == 144 * orbits
        assert np.isfinite(rep["condition_estimate"]) and rep["condition_estimate"] >= 1.0
        assert rep["residual"] < 1e-10


def test_blocked_lu_even_grid_factors_in_place(bg, coupled_tilde, rng, monkeypatch):
    # every block is factored in place, and the solve holds the gathered
    # orbit table, its D2 character sums and one irrep's block pipeline: at
    # m = 6 the raw blocks (66, 66, 132, 198, 198) peak by tracemalloc below
    # 3.6 times the bytes of the orthonormal blocks they replaced (54, 54,
    # 108, 162, 162), where the four D2 blocks before those peaked at 8
    import scipy.linalg
    import tracemalloc
    in_place = []
    lu_factor = scipy.linalg.lu_factor

    def checked(A, *args, **kwargs):
        lu, piv = lu_factor(A, *args, **kwargs)
        in_place.append(np.shares_memory(lu, A))
        return lu, piv

    monkeypatch.setattr(scipy.linalg, "lu_factor", checked)
    m = 6
    T6 = np.kron(coupling_from_tilde(coupled_tilde, bg.omega), np.eye(3))
    blocks = _offset_blocks(bg, m, 0.1, T6, 1.0 / m ** 3, zero_self=False)
    b = rng.standard_normal(6 * m ** 3) + 1j * rng.standard_normal(6 * m ** 3)
    tracemalloc.start()
    try:
        _, _, sizes = _lu_solve_system(blocks, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [66, 66, 132, 198, 198]
    assert in_place == [True] * 5
    assert peak < 3.6 * 16 * (2 * 54 ** 2 + 108 ** 2 + 2 * 162 ** 2)


# ---------------------------------------------------------------------------
# the lattice through the shared grid solve


@pytest.fixture(scope="module")
def dilute_tilde(bg, ball_spectrum, ball_cn):
    # the coupling compare-hom shares on a dilute lattice: sweeps converge
    return tilde_from_definition(bg, -3.0, DiluteConfig(0.5, 125, 0.965, ball_cn),
                                 ball_spectrum)


@pytest.mark.parametrize("material, method", [("dilute_tilde", "iteration"),
                                              ("coupled_tilde", "lu")])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_lattice_matches_dense_solve(bg, request, material, method, N):
    st = solve_foldy(bg, request.getfixturevalue(material), N, 0.1, WAVE)
    rep = st.solver_report
    assert rep["method"] == method
    assert rep["residual"] < 1e-10
    if method == "lu":
        assert np.isfinite(rep["condition_estimate"])
    A = np.eye(6 * N ** 3) - _pairwise_interaction(bg, st.centers, 0.1, st.coupling, True)
    expect = np.linalg.solve(A, incident_six(bg, WAVE, st.centers).reshape(-1))
    dev = np.linalg.norm(st.values.reshape(-1) - expect) / np.linalg.norm(expect)
    assert dev <= 1e-10


def test_large_dilute_lattice_iterates(bg, dilute_tilde):
    st = solve_foldy(bg, dilute_tilde, 12, 0.1, WAVE)
    rep = st.solver_report
    assert rep["method"] == "iteration"
    assert rep["size"] == 6 * 12 ** 3
    assert rep["residual"] < 1e-10


def test_coupled_lattice_beyond_dense_cap(bg, coupled_tilde):
    # 6,000 unknowns: the sweeps stall and the LU fallback is past its cap
    with pytest.raises(FoldyError, match="dense fallback cap"):
        solve_foldy(bg, coupled_tilde, 10, 0.1, WAVE)
