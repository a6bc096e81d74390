import ast
import importlib.util
import inspect
import itertools
import json
import tracemalloc
import warnings
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

from chiralmeta import np_spectral
from chiralmeta.cli import write_json
from chiralmeta.mesh import TriMesh, icosphere, mesh_from_file
from chiralmeta.np_spectral import (SpectralError, _householder_vector, _reflect_sym,
                                    assemble_np, assemble_single_layer, mesh_spectrum,
                                    spectral_decomposition, spectrum_from_json,
                                    unit_ball_spectrum)
from _meshes import jittered_torus, small_torus

C1 = 4 * np.pi / 27  # isotropic moment constant of the dipole cluster
ROOT = Path(__file__).resolve().parents[1]


def weighted_ratio(mesh, M, y):
    """Rayleigh-type fit of M y ~ r y in the area-weighted inner product."""
    w = mesh.areas
    return np.dot(w * (M @ y), y) / np.dot(w * y, y)


@pytest.fixture(scope="module")
def sk3(ico3):
    return assemble_single_layer(ico3), assemble_np(ico3)


def decompose(mesh, mode_count):
    """The decomposition ``mesh_spectrum`` makes, not remembered: the rows of
    S and K for the orbit table the geometry gives."""
    orbits = np_spectral._cyclic_orbits(mesh)
    return spectral_decomposition(assemble_single_layer(mesh, orbits),
                                  assemble_np(mesh, orbits), mesh, mode_count, orbits)


def leading_modes_of(mesh, mode_count):
    """What ``_leading_modes`` returns inside ``decompose(mesh, mode_count)``,
    and the spectrum."""
    found = []
    leading = np_spectral._leading_modes

    def recorded(*args):
        found.append(leading(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np_spectral, "_leading_modes", recorded)
        spec = decompose(mesh, mode_count)
    return found[0], spec


def decompose_with_densities(mesh, mode_count):
    """``decompose(mesh, mode_count)`` and its retained densities on all n
    panels, (n, mode_count), synthesized from the block vectors Z that
    ``_leading_modes`` hands to the certificates: the density of mode j is
    c_q Re(Z[i, j] exp(2 pi i q d / k)) on panel s^d r_i of the orbit table,
    c_q = sqrt(2 / k) in a pair +-q and 1 / sqrt(k) in the real blocks."""
    (_, _, blocks, Z, _), spec = leading_modes_of(mesh, mode_count)
    orbits = np_spectral._cyclic_orbits(mesh)
    k = orbits.shape[1]
    Phi = np.empty((mesh.n_panels, mode_count))
    for col, q in enumerate(blocks):
        z = np.outer(Z[:, col], np.exp(2j * np.pi * q * np.arange(k) / k))
        Phi[orbits, col] = z.real * (np.sqrt(2.0 / k) if 2 * q % k else 1.0 / np.sqrt(k))
    return spec, Phi


def test_single_layer_constant_density(ico3, sk3):
    S, _ = sk3
    vals = S @ np.ones(ico3.n_panels)
    assert np.abs(vals + 1.0).max() < 0.02


def test_single_layer_degree_one(ico3, sk3):
    S, _ = sk3
    y = ico3.centroids[:, 2]  # Y_1^0 direction
    assert np.abs(S @ y + y / 3.0).max() / np.abs(y).max() < 0.02


def test_single_layer_kernel_symmetric(ico3, sk3):
    # raw entries carry the column quadrature weight area_j; stripping it
    # leaves the symmetric -1/(4 pi |c_i - c_j|) kernel
    S, _ = sk3
    C = S / ico3.areas[None, :]
    assert np.abs(C - C.T).max() <= 1e-13 * np.abs(C).max()


def test_np_degree_one_eigen_action(ico3, sk3):
    _, K = sk3
    y = ico3.centroids[:, 2]
    assert weighted_ratio(ico3, K, y) == pytest.approx(1 / 6, rel=0.02)


def test_np_degree_two_eigen_action(ico3, sk3):
    _, K = sk3
    z = ico3.centroids[:, 2]
    for y in (3 * z * z - 1.0, ico3.centroids[:, 0] * ico3.centroids[:, 1]):
        assert weighted_ratio(ico3, K, y) == pytest.approx(1 / 10, rel=0.02)


def test_jump_relation(ico3, sk3):
    # Exterior minus interior normal derivative of the single-layer
    # potential recovers the density.  The potential is evaluated from
    # the same centroid-rule data as the assembled matrix, with the self
    # panel replaced by the equal-area disk on its axis.
    c, nv, ar = ico3.centroids, ico3.normals, ico3.areas
    psi = c[:, 2]

    def potential(i, h):
        x = c[i] + h * nv[i]
        d = np.linalg.norm(x - c, axis=1)
        mask = np.arange(len(ar)) != i
        smooth = -np.sum(ar[mask] * psi[mask] / (4 * np.pi * d[mask]))
        disk_r = np.sqrt(ar[i] / np.pi)
        return smooth - (psi[i] / 2.0) * (np.sqrt(disk_r ** 2 + h * h) - abs(h))

    h, e = 1e-3, 1e-4
    rng = np.random.default_rng(3)
    scale = np.abs(psi).max()
    for i in rng.choice(ico3.n_panels, size=12, replace=False):
        d_ext = (potential(i, h + e) - potential(i, h - e)) / (2 * e)
        d_int = (potential(i, -h + e) - potential(i, -h - e)) / (2 * e)
        assert abs((d_ext - d_int) - psi[i]) / scale < 0.02


def test_leading_cluster_eigenvalues(sphere_spec3):
    lams = sphere_spec3.eigenvalues[:3]
    assert np.allclose(lams, 1 / 6, rtol=0.02)
    assert np.ptp(lams) < 1e-10  # numerically degenerate triple


def test_dipole_moment_tensor(sphere_spec3):
    c1 = sphere_spec3.clusters()[0]
    target = C1 * np.eye(3)
    assert np.linalg.norm(c1.moment_tensor - target) / np.linalg.norm(target) < 0.02


def test_higher_cluster_moments_negligible(sphere_spec3):
    for cl in sphere_spec3.clusters()[1:]:
        assert np.linalg.norm(cl.moment_tensor) < 0.02 * C1


def test_moment_tensor_isotropic(sphere_spec3):
    M = sphere_spec3.clusters()[0].moment_tensor
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() / np.abs(np.diag(M)).max() < 0.02


def test_gram_certificate(sphere_spec3):
    assert sphere_spec3.gram_certificate < 1e-8


def test_eigenvalue_range(sphere_spec3):
    lams = sphere_spec3.eigenvalues
    assert np.all(lams > -0.5) and np.all(lams < 0.5)
    assert abs(sphere_spec3.dropped_eigenvalue - 0.5) < 0.05


def test_mode_ordering(sphere_spec3):
    # moment magnitude descending (norms under 1% of the leading one rank
    # as zero), then eigenvalue descending; the cos and sin partners of a
    # +-q pair share their eigenvalue bit for bit and rank by the root mean
    # square of their two moments
    norms = np.linalg.norm(sphere_spec3.moments, axis=1)
    lams = sphere_spec3.eigenvalues
    for lam in np.unique(lams):
        norms[lams == lam] = np.sqrt(np.mean(norms[lams == lam] ** 2))
    qnorms = np.where(norms >= 0.01 * norms.max(), norms, 0.0)
    key = list(zip(-qnorms, -lams))
    assert key == sorted(key)


def test_residuals_reported_small(sphere_spec3):
    assert sphere_spec3.residuals.shape == (len(sphere_spec3.eigenvalues),)
    assert sphere_spec3.residuals.max() < 1e-2


def test_refinement_convergence():
    errs = {1: [], 2: [], 3: []}
    for sub in (1, 2, 3):
        spec = decompose(icosphere(sub), 15)
        lams = np.sort(spec.eigenvalues)[::-1]
        # clusters by multiplicity: 3 + 5 + 7 modes for degrees 1..3
        groups = (lams[:3], lams[3:8], lams[8:15])
        for n, grp in zip((1, 2, 3), groups):
            exact = 1.0 / (2 * (2 * n + 1))
            errs[n].append(abs(grp.mean() - exact) / exact)
    for n in (1, 2, 3):
        seq = errs[n]
        assert seq[2] < seq[1] < seq[0]


def test_mode_count_guard(ico3, sk3):
    S, K = sk3
    with pytest.raises(SpectralError):
        spectral_decomposition(S, K, ico3, mode_count=ico3.n_panels)


def test_unit_ball_spectrum_values(ball_spectrum):
    assert np.allclose(ball_spectrum.eigenvalues, [1 / 6] * 3 + [1 / 10] * 5)
    cl = ball_spectrum.clusters()
    assert cl[0].c_n == pytest.approx(C1, rel=1e-13)
    assert np.allclose(cl[0].moment_tensor, C1 * np.eye(3), atol=1e-14)
    assert cl[1].c_n == 0.0


def test_icosphere_mesh_spectrum():
    spec = mesh_spectrum(icosphere(2), 8)
    assert spec.clusters()[0].eigenvalue == pytest.approx(1 / 6, rel=0.03)


def test_json_roundtrip(tmp_path, ball_spectrum):
    p1 = tmp_path / "spec.json"
    write_json(p1, ball_spectrum.to_json_dict())
    back = spectrum_from_json(str(p1))
    assert np.array_equal(back.eigenvalues, ball_spectrum.eigenvalues)
    assert np.array_equal(back.moments, ball_spectrum.moments)
    p2 = tmp_path / "again.json"
    write_json(p2, back.to_json_dict())
    assert p1.read_bytes() == p2.read_bytes()


REAL_MOMENT_SPECTRA = {
    "sphere1280": lambda spec3: spec3,
    "torus1600": lambda _: mesh_spectrum(small_torus(40, 20, 1.15, 0.425), 15),
    "torus256": lambda _: mesh_spectrum(small_torus(), 15),
    "jittered": lambda _: mesh_spectrum(jittered_torus(), 15),
    "unit_ball": lambda _: unit_ball_spectrum(),
}


@pytest.mark.parametrize("name", list(REAL_MOMENT_SPECTRA))
def test_moments_are_real(tmp_path, sphere_spec3, name):
    # the NP operator is self-adjoint in the energy inner product: the
    # moments and cluster tensors are float64, and the JSON export writes
    # each moment component as an [re, 0.0] pair.  The export goes through
    # the CLI's JSON writer at 17 digits and reads back bit for bit.
    spec = REAL_MOMENT_SPECTRA[name](sphere_spec3)
    assert spec.moments.dtype == np.float64
    for cluster in spec.clusters():
        assert cluster.moment_tensor.dtype == np.float64
    path = tmp_path / "spec.json"
    write_json(path, spec.to_json_dict())
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data == spec.to_json_dict()
    assert [im for row in data["moments"] for _, im in row] == [0.0] * spec.moments.size
    back = spectrum_from_json(str(path))
    for field in ("eigenvalues", "moments", "residuals"):
        assert getattr(back, field).tobytes() == getattr(spec, field).tobytes(), field
    assert back.gram_certificate == spec.gram_certificate


def test_json_imaginary_moment_refused(tmp_path, ball_spectrum):
    data = ball_spectrum.to_json_dict()
    data["moments"][2][1][1] = 1e-300
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SpectralError, match="moments must be real"):
        spectrum_from_json(str(path))


def test_moments_match_single_layer_reference(ico3):
    # the moments, taken per Fourier block, are -sum_i w_i nu_i (S phi)_i
    # over the unit-L2 n-panel densities, with full S: on the C5 blocks of
    # icosphere(3), the C16 blocks of the small torus, the C2 blocks of the
    # ellipsoid and the one block of the jittered torus
    for mesh in (ico3, small_torus(), ellipsoid(), jittered_torus()):
        spec, Phi = decompose_with_densities(mesh, 15)
        w = mesh.areas
        l2 = np.sqrt(np.einsum("im,i,im->m", Phi, w, Phi))
        ref = -np.einsum("i,ic,im->mc", w, mesh.normals,
                         assemble_single_layer(mesh) @ Phi) / l2[:, None]
        scale = np.linalg.norm(ref, axis=1).max()
        assert np.abs(spec.moments - ref).max() <= 1e-13 * scale


def test_indefinite_gram_raises():
    # on icosphere(1) a Fourier block of its C5 symmetry fails, on the
    # jittered torus the one full pencil
    for mesh, order in ((icosphere(1), 5), (jittered_torus(), 1)):
        orbits = np_spectral._cyclic_orbits(mesh)
        assert orbits.shape[1] == order
        S, K = assemble_single_layer(mesh, orbits), assemble_np(mesh, orbits)
        with pytest.raises(SpectralError, match="not positive definite"):
            spectral_decomposition(-S, K, mesh, 8, orbits)


def test_reflect_sym_matches_explicit_reflector(rng):
    n = 40
    M = rng.standard_normal((n, n))
    M = M + M.T
    v = _householder_vector(rng.uniform(0.5, 1.5, n))
    P = np.eye(n) - 2.0 * np.outer(v, v)
    expect = (P @ M @ P)[1:, 1:]
    got = _reflect_sym(M, v)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("shapes", [((5, 7), (7, 4)), ((5, 7), (7,)), ((7,), (7, 4)),
                                    ((7,), (7,))], ids=["mat-mat", "mat-vec", "vec-mat", "vec-vec"])
def test_gemm_matches_matmul(rng, shapes):
    def operand(shape, dtype, order):
        x = rng.standard_normal(shape)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shape)
        return np.asarray(x, order=order)

    for dtype_a, dtype_b, order_a, order_b in itertools.product((float, complex),
                                                                (float, complex), "CF", "CF"):
        a = operand(shapes[0], dtype_a, order_a)
        b = operand(shapes[1], dtype_b, order_b)
        expect = a @ b
        got = np_spectral._gemm(a, b)
        case = (dtype_a, dtype_b, order_a, order_b)
        assert np.shape(got) == expect.shape and np.result_type(got) == expect.dtype, case
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max(), case


def test_gemm_copies_no_matrix(rng):
    # a C-ordered matrix goes to BLAS as its transpose, not as a Fortran copy
    n = 1000
    M = rng.standard_normal((n, n))
    X, v = rng.standard_normal((n, 3)), rng.standard_normal(n)
    for a, b in ((M, X), (X.T, M), (M, v), (v, M), (M.T, X), (X.T, M.T)):
        tracemalloc.start()
        try:
            np_spectral._gemm(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M.nbytes / 2, (a.shape, b.shape, a.flags.c_contiguous)


def test_shape_stage_products_stay_in_scipy_blas():
    """assemble_np, _reflect_sym, _gram_block, _leading_modes and
    spectral_decomposition make every product through ``_gemm``.  numpy's
    ``@``, ``np.dot`` and ``np.matmul`` run in numpy's own bundled OpenBLAS,
    whose idle threads spin against scipy's during the eigensolve; on a
    2-vCPU host that made the benchmark's eigensolves about four times
    slower."""
    tree = ast.parse(inspect.getsource(np_spectral))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("assemble_np", "_reflect_sym", "_gram_block", "_leading_modes",
                 "spectral_decomposition"):
        for node in ast.walk(functions[name]):
            assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.MatMult)), (name, node.lineno)
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("dot", "matmul")), (name, node.lineno)


def test_spectrum_arrays_read_only(tmp_path, sphere_spec3, ball_spectrum):
    path = tmp_path / "spec.json"
    write_json(path, sphere_spec3.to_json_dict())
    for spec in (sphere_spec3, spectrum_from_json(str(path)), ball_spectrum):
        for name in ("eigenvalues", "moments", "residuals"):
            arr = getattr(spec, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr
        for cluster in spec.clusters():
            with pytest.raises(ValueError, match="read-only"):
                cluster.moment_tensor[...] = cluster.moment_tensor


def test_spectrum_keeps_value_after_caller_write():
    arrays = {"eigenvalues": np.array([0.3, 0.1]), "moments": np.eye(2, 3),
              "residuals": np.full(2, 1e-9)}
    spec = np_spectral.NPSpectrum(**arrays, gram_certificate=0.0, dropped_eigenvalue=0.5)
    tensors = [c.moment_tensor.copy() for c in spec.clusters()]
    for arr in arrays.values():
        arr[...] = 7.0  # the caller's arrays stay writable
    assert np.array_equal(spec.eigenvalues, [0.3, 0.1])
    assert np.array_equal(spec.moments, np.eye(2, 3))
    assert np.array_equal(spec.residuals, np.full(2, 1e-9))
    assert [c.eigenvalue for c in spec.clusters()] == [0.3, 0.1]
    for cluster, tensor in zip(spec.clusters(), tensors):
        assert np.array_equal(cluster.moment_tensor, tensor)


def test_mesh_spectrum_matches_decomposition_and_keeps_four(monkeypatch, ico3):
    monkeypatch.setattr(np_spectral, "_MEMO", OrderedDict())
    spec = mesh_spectrum(ico3, 15)
    assert mesh_spectrum(ico3, 15) is spec
    ref = decompose(ico3, 15)
    for name in ("eigenvalues", "moments", "residuals"):
        assert np.array_equal(getattr(spec, name), getattr(ref, name))
    # least recently used first out: after mode_count 1 is read again, a
    # fifth input evicts mode_count 2
    mesh = icosphere(1)
    first = [mesh_spectrum(mesh, k) for k in (1, 2, 3, 4)]
    assert mesh_spectrum(mesh, 1) is first[0]
    mesh_spectrum(mesh, 5)
    assert mesh_spectrum(mesh, 1) is first[0]
    assert mesh_spectrum(mesh, 2) is not first[1]


# Reference assembly through (n, n, 3) centroid differences and off-diagonal
# masks: the formulas the axis-by-axis assemblers must reproduce.
def reference_single_layer(mesh):
    c, w = mesh.centroids, mesh.areas
    n = len(w)
    d = c[:, None, :] - c[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    off = ~np.eye(n, dtype=bool)
    if np.min(r[off]) < 1e-12:
        i, j = divmod(int(np.argmin(np.where(off, r, np.inf))), n)
        raise SpectralError(f"coincident panel centroids {i} and {j}")
    S = np.zeros((n, n))
    S[off] = -(w[None, :] * np.ones((n, 1)))[off] / (4.0 * np.pi * r[off])
    S[np.diag_indices(n)] = -0.5 * np.sqrt(w / np.pi)
    return S


def reference_np(mesh):
    c, w, nu = mesh.centroids, mesh.areas, mesh.normals
    n = len(w)
    d = c[:, None, :] - c[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    num = np.einsum("ijk,ik->ij", d, nu)
    K = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    K[off] = (w[None, :] * np.ones((n, 1)))[off] * num[off] / (4.0 * np.pi * r[off] ** 3)
    colsum = np.einsum("j,ji->i", w, np.where(off, K, 0.0))
    K[np.diag_indices(n)] = 0.5 - colsum / w
    return K


def reference_gram(mesh, S):
    G = -(mesh.areas[:, None] * S)
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("make_mesh", [lambda: icosphere(2), small_torus],
                         ids=["icosphere2", "torus256"])
def test_assembly_matches_reference_formulas(make_mesh):
    mesh = make_mesh()
    for got, ref in ((assemble_single_layer(mesh), reference_single_layer(mesh)),
                     (assemble_np(mesh), reference_np(mesh))):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_coincident_centroids_message():
    mesh = icosphere(1)
    c = mesh.centroids.copy()
    c[7] = c[3]
    fake = SimpleNamespace(centroids=c, areas=mesh.areas)
    for assemble in (assemble_single_layer, reference_single_layer):
        with pytest.raises(SpectralError, match=r"^coincident panel centroids 3 and 7$"):
            assemble(fake)


@pytest.mark.parametrize("make_mesh", [lambda: icosphere(2), small_torus],
                         ids=["icosphere2", "torus256"])
def test_assembly_bit_identical_to_cdist_distances(make_mesh):
    # The assemblers once took |c_i - c_j| from scipy's cdist; the numpy
    # distances must equal it bit for bit, and S and K built on it in the
    # same operation order (r * r * r for K) must come out unchanged, so
    # the spectrum artifacts stay byte-identical.
    from scipy.spatial.distance import cdist   # reference only
    mesh = make_mesh()
    c, w, nu = mesh.centroids, mesh.areas, mesh.normals
    diag = np.diag_indices(len(w))
    r = cdist(c, c)
    r[diag] = np.inf
    S = (-w / (4.0 * np.pi)) / r
    S[diag] = -0.5 * np.sqrt(w / np.pi)
    assert np.array_equal(assemble_single_layer(mesh), S)
    K = np.zeros_like(r)
    for k in range(3):
        K += np.subtract.outer(c[:, k], c[:, k]) * nu[:, k, None]
    K *= (w / (4.0 * np.pi)) / (r * r * r)
    K[diag] = 0.5 - (w @ K) / w
    assert np.array_equal(assemble_np(mesh), K)


@pytest.mark.parametrize("make_mesh", [lambda: icosphere(2), small_torus],
                         ids=["icosphere2", "torus256"])
def test_np_gauss_column_condition(make_mesh):
    # sum_j w_j K_ji = w_i / 2 for every column i
    mesh = make_mesh()
    w = mesh.areas
    assert np.abs((w @ assemble_np(mesh)) / w - 0.5).max() <= 1e-14


@pytest.mark.parametrize("make_mesh, blocks", [(lambda: icosphere(2), 3), (small_torus, 9),
                                               (jittered_torus, 1)],
                         ids=["icosphere2", "torus256", "jittered"])
def test_eigh_receives_exactly_symmetric_pencil(monkeypatch, make_mesh, blocks):
    # diag(areas) @ S is symmetric only to rounding; each pencil handed to
    # eigh is exactly Hermitian, one per distinct Fourier block: k // 2 + 1
    # for the icosphere's C5 and the torus's C16, one for no symmetry
    mesh = make_mesh()
    S = assemble_single_layer(mesh)
    G = -(mesh.areas[:, None] * S)
    assert np.abs(G - G.T).max() <= 1e-15 * np.abs(G).max()
    seen = []
    eigh = scipy.linalg.eigh

    def checked(a, b, **kwargs):
        seen.append(np.array_equal(a, a.conj().T) and np.array_equal(b, b.conj().T))
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", checked)
    decompose(mesh, 8)
    assert seen == [True] * blocks


@pytest.fixture(scope="module", params=["icosphere3", "torus256", "ellipsoid", "jittered"])
def certified(request):
    """(mesh, full S, full K, spectrum at 15 modes, its n-panel densities) on
    each decomposition path: the C5 Fourier blocks of icosphere(3), the C16
    blocks of the small torus, the C2 blocks of the ellipsoid (q = 0 and the
    real q = k / 2) and the one full pencil of the jittered torus.  The
    densities are the reference of ``decompose_with_densities``."""
    if request.param == "icosphere3":
        mesh = request.getfixturevalue("ico3")
        S, K = request.getfixturevalue("sk3")
    else:
        mesh = {"torus256": small_torus, "ellipsoid": ellipsoid,
                "jittered": jittered_torus}[request.param]()
        S, K = assemble_single_layer(mesh), assemble_np(mesh)
    return (mesh, S, K) + decompose_with_densities(mesh, 15)


def test_dropped_eigenvalue_matches_equilibrium_solve(certified):
    mesh, S, K, spec, _ = certified
    G = reference_gram(mesh, S)
    A = 0.5 * (G @ K + K.T @ G)
    psi = np.linalg.solve(S, -np.ones(mesh.n_panels))
    ref = (psi @ A @ psi) / (psi @ G @ psi)
    assert abs(spec.dropped_eigenvalue - ref) <= 1e-12


def test_residuals_match_per_mode_loop(certified):
    # the residuals, taken per Fourier block, are those of the n-panel
    # densities against full K in the symmetrized Gram norm
    mesh, S, K, spec, Phi = certified
    G = reference_gram(mesh, S)
    lam = spec.eigenvalues
    ref = []
    for k in range(len(spec.eigenvalues)):
        r = K @ Phi[:, k] - lam[k] * Phi[:, k]
        ref.append(np.sqrt(max(float(r @ G @ r), 0.0)))
    assert np.allclose(spec.residuals, ref, rtol=1e-12, atol=0.0)


def test_gram_certificate_matches_explicit_gram(certified):
    # the certificate, taken per Fourier block, is max |Phi^T G Phi - I| over
    # the n-panel densities, with G symmetrized as a matrix
    mesh, S, _, spec, Phi = certified
    ref = np.abs(Phi.T @ reference_gram(mesh, S) @ Phi - np.eye(Phi.shape[1])).max()
    assert abs(spec.gram_certificate - ref) <= 1e-14


def test_block_path_allocates_less_than_one_dense_matrix(monkeypatch):
    # a symmetric mesh assembles only the n / k representative rows of S and
    # K (checking their images 64 rows at a time), takes the Gram blocks and
    # the certificates from their Fourier blocks, and forms no n x n array.
    # The whole spectrum, detection and assembly included, stays under a
    # quarter of one n x n matrix on the C40 torus, where full S and K alone
    # would take two.  On icosphere(3), C5, the rows of S and those of K are
    # each turned into their blocks (1/5 of a matrix per operator) and
    # released before the next assembly, and each block keeps at most 30
    # eigenvector columns, so the stage holds the blocks of S and K and one
    # block's pencil at its peak; the bound is 1.25 times the 0.75 matrices
    # measured.
    for mesh, bound in ((small_torus(40, 20, 1.15, 0.425), 0.25), (icosphere(3), 0.94)):
        monkeypatch.setattr(np_spectral, "_MEMO", OrderedDict())
        tracemalloc.start()
        try:
            mesh_spectrum(mesh, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * mesh.n_panels ** 2 * 8, peak / (mesh.n_panels ** 2 * 8)


@pytest.fixture(scope="module")
def benchmark_meshes(tmp_path_factory):
    """The particle_sweep workload's sphere (1,280 panels, C5) and torus
    (1,600 panels, C40) at seed 7, as the benchmark's input generator writes
    them and the CLI reads them."""
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "benchmark" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    d = tmp_path_factory.mktemp("bench_inputs")
    inputs.particle(d, np.random.default_rng(7))
    return {name: mesh_from_file(str(d / f"{name}.off")) for name in ("sphere", "torus")}


@pytest.mark.parametrize("name, mode_count",
                         [("torus", 1), ("torus", 15), ("torus", 1599), ("sphere", 15)])
def test_dropped_columns_keep_the_same_modes(benchmark_meshes, monkeypatch, name, mode_count):
    # each block keeps only the eigenvector columns that can still rank
    # among the leading modes; the modes, blocks, block vectors and spectrum
    # are bit for bit those of keeping every column.  Every retained torus
    # mode has a moment above the ranking floor, and at mode_count 15 the
    # cut splits a +-1 pair; the sphere's 12 modes after its dipole triple
    # are under the floor and rank by eigenvalue alone
    mesh = benchmark_meshes[name]
    kept, keep_columns = [], np_spectral._kept_columns

    def recorded(lam, mnorm, count):
        kept.append((len(keep_columns(lam, mnorm, count)), len(lam)))
        return keep_columns(lam, mnorm, count)

    monkeypatch.setattr(np_spectral, "_kept_columns", recorded)
    got, spec = leading_modes_of(mesh, mode_count)
    monkeypatch.setattr(np_spectral, "_kept_columns",
                        lambda lam, mnorm, count: np.arange(len(lam)))
    want, ref = leading_modes_of(mesh, mode_count)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    for field in ("eigenvalues", "moments", "residuals", "gram_certificate",
                  "dropped_eigenvalue"):
        assert np.array_equal(getattr(spec, field), getattr(ref, field)), field
    # each block keeps at most 2 mode_count columns, fewer than it has
    # unless every mode is retained
    assert len(kept) == {"sphere": 3, "torus": 21}[name]
    assert all(n_kept <= min(2 * mode_count, n) for n_kept, n in kept)
    assert all(n_kept < n for n_kept, n in kept) == (mode_count < mesh.n_panels - 1)
    if name == "torus" and mode_count == 15:
        # the +-1 block keeps an odd number of modes: its pair is split
        # and the cos partner kept
        assert np.count_nonzero(got[2] == 1) % 2 == 1
    if name == "sphere":
        norms = np.linalg.norm(spec.moments, axis=1)
        assert np.count_nonzero(norms < 0.01 * norms.max()) == 12


def test_one_block_path_peak_memory():
    # without a rotation symmetry the Gram matrix is built as all of its rows,
    # with no G, and each block input is released once used, so the
    # decomposition holds about four n x n matrices at its peak: the reduced
    # Gram and pencil matrices and the eigensolver's workspace
    mesh = jittered_torus(n_around=40, n_tube=20)
    S, K = assemble_single_layer(mesh), assemble_np(mesh)
    tracemalloc.start()
    try:
        spectral_decomposition(S, K, mesh, mode_count=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * S.nbytes, peak / S.nbytes


def test_mode_sign_convention(certified):
    # a mode whose moment is at least the ranking floor (1 % of the largest,
    # a +-q pair ranking by the root mean square of its partners) has the
    # largest-|component| of its moment positive; any other has the
    # largest-|value| of its density on the representative panels positive
    mesh, _, _, spec, Phi = certified
    reps = np_spectral._cyclic_orbits(mesh)[:, 0]
    norms = np.linalg.norm(spec.moments, axis=1)
    ranked = norms.copy()
    for lam in np.unique(spec.eigenvalues):
        ranked[spec.eigenvalues == lam] = np.sqrt(np.mean(norms[spec.eigenvalues == lam] ** 2))
    above = norms >= 0.01 * ranked.max()
    for m, phi, big in zip(spec.moments, Phi[reps].T, above):
        ref = m if big else phi
        assert ref[np.argmax(np.abs(ref))] > 0


def dense_pencil(mesh, S, K):
    """Every eigenvalue of the full pencil on mean-zero densities, with its
    moment, and the indices of the modes the moment ranking retains first:
    the decomposition written out with the explicit reflector and
    full-matrix products, blind to any symmetry."""
    n, w = mesh.n_panels, mesh.areas
    G = reference_gram(mesh, S)
    A = 0.5 * (G @ K + K.T @ G)
    v = _householder_vector(w)
    P = np.eye(n) - 2.0 * np.outer(v, v)
    lam, Y = scipy.linalg.eigh((P @ A @ P)[1:, 1:], (P @ G @ P)[1:, 1:])
    Phi = P[:, 1:] @ Y
    l2 = np.sqrt(np.einsum("im,i,im->m", Phi, w, Phi))
    mom = -np.einsum("i,ic,im->mc", w, mesh.normals, S @ Phi) / l2[:, None]
    mnorm = np.linalg.norm(mom, axis=1)
    qnorm = np.where(mnorm >= 0.01 * mnorm.max(), mnorm, 0.0)
    return lam, mom, np.lexsort((-lam, -qnorm))


def test_spectrum_matches_reference_decomposition(ico3, sk3, sphere_spec3):
    S, K = sk3
    lam, mom, order = dense_pencil(ico3, S, K)
    order = order[:len(sphere_spec3.eigenvalues)]
    assert np.abs(sphere_spec3.eigenvalues - lam[order]).max() <= 1e-12
    ref = np_spectral.NPSpectrum(eigenvalues=lam[order], moments=mom[order],
                                 residuals=np.zeros(len(order)), gram_certificate=0.0,
                                 dropped_eigenvalue=0.5)
    got = sphere_spec3.clusters()
    assert [sorted(c.indices) for c in got] == [sorted(c.indices) for c in ref.clusters()]
    for a, b in zip(got, ref.clusters()):
        assert abs(a.eigenvalue - b.eigenvalue) <= 1e-12
        assert np.abs(a.moment_tensor - b.moment_tensor).max() <= 1e-12


def test_moment_free_clusters_in_eigenvalue_order():
    # c_n at roundoff level ranks as zero, so the order of moment-free
    # clusters does not follow their roundoff
    spec = np_spectral.NPSpectrum(
        eigenvalues=np.array([0.3, 0.2, 0.1]),
        moments=np.array([[1.0, 0, 0], [1e-17, 0, 0], [2e-17, 0, 0]]),
        residuals=np.zeros(3), gram_certificate=0.0, dropped_eigenvalue=0.5)
    assert [c.eigenvalue for c in spec.clusters()] == [0.3, 0.2, 0.1]
    lams = [c.eigenvalue for c in mesh_spectrum(icosphere(2), 15).clusters()]
    assert lams[1:] == sorted(lams[1:], reverse=True)


def test_mesh_spectrum_fires_each_traced_stage_once(monkeypatch):
    # the benchmark's tracer wraps these four names; each must run exactly
    # once for a spectrum that is not yet remembered, eigh once per distinct
    # Fourier block (three for the C5 symmetry of an icosphere)
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("assemble_single_layer", "assemble_np", "spectral_decomposition"):
        count(np_spectral, name)
    count(scipy.linalg, "eigh")
    monkeypatch.setattr(np_spectral, "_MEMO", OrderedDict())
    mesh_spectrum(icosphere(1), 8)
    assert calls == {"assemble_single_layer": 1, "assemble_np": 1,
                     "spectral_decomposition": 1, "eigh": 3}


# --- Fourier blocks of a cyclic panel symmetry --------------------------------

def rotated(mesh, seed):
    """``mesh`` turned by a seeded random proper rotation, and the rotation."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return TriMesh(mesh.vertices @ q.T, mesh.triangles), q


def ellipsoid(level=2, axes=(1.0, 1.3, 0.8)):
    """icosphere(level) with its vertices scaled onto the ellipsoid of
    semi-axes ``axes``; its axes are C2 axes."""
    mesh = icosphere(level)
    return TriMesh(mesh.vertices * axes, mesh.triangles)


# mesh and the order of its largest free cyclic panel symmetry
SYMMETRY_MESHES = {"icosphere2": (lambda: icosphere(2), 5), "torus256": (small_torus, 16),
                   "ellipsoid": (ellipsoid, 2), "jittered": (jittered_torus, 1)}


@pytest.mark.parametrize("rotate", [False, True], ids=["aligned", "rotated"])
@pytest.mark.parametrize("name", list(SYMMETRY_MESHES))
def test_block_spectrum_matches_dense_pencil(name, rotate):
    make_mesh, order = SYMMETRY_MESHES[name]
    mesh = rotated(make_mesh(), 11)[0] if rotate else make_mesh()
    S, K = assemble_single_layer(mesh), assemble_np(mesh)
    assert np_spectral._cyclic_orbits(mesh).shape[1] == order
    spec = decompose(mesh, 15)
    lam, mom, ranked = dense_pencil(mesh, S, K)
    keep, drop = ranked[:15], ranked[15:]
    assert np.abs(spec.eigenvalues - lam[keep]).max() <= 1e-12
    assert spec.gram_certificate < 1e-10
    ref = np_spectral.NPSpectrum(eigenvalues=lam[keep], moments=mom[keep], residuals=np.zeros(15),
                                 gram_certificate=0.0, dropped_eigenvalue=0.5)
    compared = 0
    for a, b in zip(sorted(spec.clusters(), key=lambda c: c.eigenvalue),
                    sorted(ref.clusters(), key=lambda c: c.eigenvalue)):
        assert abs(a.eigenvalue - b.eigenvalue) <= 1e-12
        # a cluster that the cut splits (a degenerate partner dropped) holds
        # a basis-dependent share of its eigenspace
        if np.abs(lam[drop][:, None] - spec.eigenvalues[list(a.indices)]).min() > 1e-9:
            assert np.abs(a.moment_tensor - b.moment_tensor).max() <= 1e-10
            compared += len(a.indices)
    assert compared >= 13


def test_jittered_torus_candidate_axes_rejected():
    # the jitter leaves the second moment three simple eigenvectors, so the
    # detector tries three axes, and refuses each: one block, the full pencil
    mesh = jittered_torus()
    assert len(np_spectral._candidate_axes(
        mesh, mesh.areas @ mesh.centroids / mesh.areas.sum(), 1e-9)) == 3
    assert np_spectral._cyclic_orbits(mesh).shape == (mesh.n_panels, 1)


def test_operators_decide_the_symmetry(monkeypatch):
    # one vertex of icosphere(2) moved by 1e-6: with the geometric match
    # loosened past the move, the rotation passes every geometric check, and
    # the 2n/k rows of the representatives and their images refuse it, so
    # mesh_spectrum assembles S and K in full and decomposes one block
    mesh = icosphere(2)
    verts = mesh.vertices.copy()
    verts[20, 0] += 1e-6
    moved = TriMesh(verts, mesh.triangles)
    assert np_spectral._cyclic_orbits(moved).shape[1] == 1
    monkeypatch.setattr(np_spectral, "_MATCH_TOL", 1e-5)
    orbits = np_spectral._cyclic_orbits(moved)
    assert orbits.shape[1] == 5
    assert assemble_single_layer(moved, orbits) is None
    assert assemble_np(moved, orbits) is None

    calls = []

    def record(name):
        fn = getattr(np_spectral, name)

        def recorded(*args):
            calls.append((name, args[-1] if name == "spectral_decomposition" else args[1:]))
            return fn(*args)
        monkeypatch.setattr(np_spectral, name, recorded)

    for name in ("assemble_single_layer", "assemble_np", "spectral_decomposition"):
        record(name)
    monkeypatch.setattr(np_spectral, "_MEMO", OrderedDict())
    spec = mesh_spectrum(moved, 8)
    # the refused rows of S, then S and K in full, then one decomposition of
    # the one block; the spectrum is that of the full pencil
    assert [name for name, _ in calls] == ["assemble_single_layer", "assemble_single_layer",
                                           "assemble_np", "spectral_decomposition"]
    assert calls[1][1] == () and calls[2][1] == ()
    assert calls[3][1].shape == (moved.n_panels, 1)
    S, K = np_spectral.assemble_single_layer(moved), np_spectral.assemble_np(moved)
    assert np.array_equal(spec.eigenvalues,
                          np_spectral.spectral_decomposition(S, K, moved, 8).eigenvalues)


def mesh_arrays(mesh, **arrays):
    """A stand-in for ``mesh`` with its panel arrays, some replaced."""
    fields = {name: getattr(mesh, name) for name in
              ("vertices", "triangles", "centroids", "normals", "areas", "n_panels")}
    return SimpleNamespace(**{**fields, **arrays})


@pytest.mark.parametrize("field", ["normals", "areas"])
def test_geometry_gate_reads_normals_and_areas(field):
    # the centroids of icosphere(2) all match under its C5 rotation; one
    # panel's normal turned by 1e-6, or its area grown by 1e-6 relative, is
    # no longer what the Nystrom rule would read at the rotated panel, so
    # the rotation is refused before any assembly
    mesh = icosphere(2)
    assert np_spectral._cyclic_orbits(mesh_arrays(mesh)).shape[1] == 5
    values = getattr(mesh, field).copy()
    if field == "normals":
        values[7] += 1e-6 * np.cross(values[7], [0.0, 0.0, 1.0])
        values[7] /= np.linalg.norm(values[7])
    else:
        values[7] *= 1.0 + 1e-6
    assert np_spectral._cyclic_orbits(mesh_arrays(mesh, **{field: values})).shape[1] == 1


def test_pair_basis_is_set_by_the_mesh():
    # in each +-q pair the sin partner's moment is orthogonal to the moment
    # row r of panel 0, so the cos partner, the one a cut through the pair
    # keeps, carries the projection on r; and every per-mode moment of a
    # turned torus is the turned moment (up to the density's sign), the
    # split pair included
    mesh = small_torus()
    S = assemble_single_layer(mesh)
    r = -((mesh.areas[:, None] * mesh.normals).T @ S)[:, 0]
    spec = decompose(mesh, 16)
    lam, mom = spec.eigenvalues, spec.moments
    pairs = [i for i in range(15) if lam[i] == lam[i + 1]]
    assert pairs == [0, 5, 8, 10, 12, 14]   # mode_count 15 cuts the last one
    for i in pairs:
        assert abs(mom[i + 1] @ r) <= 1e-10 * np.linalg.norm(mom[i + 1]) * np.linalg.norm(r)
        assert abs(mom[i] @ r) >= 0.1 * np.linalg.norm(mom[i]) * np.linalg.norm(r)
    turned, Q = rotated(mesh, 5)
    a, b = (decompose(m, 15) for m in (mesh, turned))
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-12
    mom = a.moments @ Q.T
    sign = np.sign(np.sum(mom * b.moments, axis=1))
    assert np.abs(sign[:, None] * mom - b.moments).max() <= 1e-10


# ---------------------------------------------------------------------------
# closed forms of the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 (J. A. Osborn,
# Phys. Rev. 67 (1945) 351; R_D of B. C. Carlson, Numer. Algorithms 10 (1995)
# 13): the dipole mode along axis i has eigenvalue 1/2 - L_i, with L_i the
# depolarization factor, and density nu_i = n_i, the normal's component,
# since -S[n_i] = L_i x_i inside; so m_i^2 = L_i^2 Vol^2 / int n_i^2 dS

SEMI_AXES = np.array([1.0, 0.8, 0.6])


def depolarization(axes):
    """L_i = (abc/3) R_D(a_j^2, a_k^2, a_i^2); they sum to 1."""
    sq = np.asarray(axes) ** 2
    return np.array([np.prod(axes) / 3 * scipy.special.elliprd(*np.delete(sq, i), sq[i])
                     for i in range(3)])


def normal_square_integral(axes, i):
    """int n_i^2 dS over the ellipsoid, n its unit normal.  At the point
    (a sin t cos p, b sin t sin p, c cos t) the normal is g / |g| with
    g = (sin t cos p / a, sin t sin p / b, cos t / c), and
    dS = abc sin t |g| dt dp."""
    def integrand(p, t):
        g = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]) / axes
        return np.prod(axes) * np.sin(t) * g[i] ** 2 / np.linalg.norm(g)

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        return scipy.integrate.dblquad(integrand, 0.0, np.pi, 0.0, 2 * np.pi,
                                       epsabs=0.0, epsrel=1e-9)[0]


def ellipsoid_dipoles(axes):
    """Per axis, the dipole eigenvalue 1/2 - L_i and squared moment m_i^2."""
    L = depolarization(axes)
    vol = 4 * np.pi / 3 * np.prod(axes)
    m2 = np.array([L[i] ** 2 * vol ** 2 / normal_square_integral(axes, i) for i in range(3)])
    return 0.5 - L, m2


def dipole_clusters(spec):
    """The three leading clusters by moment, each with the axis its moment
    tensor lies along."""
    lead = spec.clusters()[:3]
    return [(int(np.argmax(np.diag(c.moment_tensor))), c) for c in lead]


@pytest.fixture(scope="module")
def ellipsoid_spectra():
    """mesh_spectrum at 15 modes of the SEMI_AXES ellipsoid, levels 2 and 3."""
    return {level: mesh_spectrum(ellipsoid(level, SEMI_AXES), 15) for level in (2, 3)}


@pytest.fixture(scope="module")
def ellipsoid_oracle():
    return ellipsoid_dipoles(SEMI_AXES)


def test_ellipsoid_closed_forms_reduce_to_the_sphere():
    lam, m2 = ellipsoid_dipoles(np.ones(3))
    assert np.abs(lam - 1 / 6).max() <= 1e-15
    assert np.abs(m2 - C1).max() <= 1e-9 * C1
    assert depolarization(SEMI_AXES).sum() == pytest.approx(1.0, rel=1e-14)


def test_ellipsoid_dipole_clusters_match_closed_forms(ellipsoid_spectra, ellipsoid_oracle):
    # level 3 (1,280 panels): the three split dipole clusters against
    # 1/2 - L_i and m_i^2, each tensor diagonal in the semi-axis frame
    assert np_spectral._cyclic_orbits(ellipsoid(3, SEMI_AXES)).shape[1] == 2
    lam, m2 = ellipsoid_oracle
    found = dipole_clusters(ellipsoid_spectra[3])
    assert sorted(i for i, _ in found) == [0, 1, 2]
    for i, c in found:
        T = c.moment_tensor
        assert abs(c.eigenvalue - lam[i]) <= 0.03 * lam[i]
        assert abs(np.trace(T) - m2[i]) <= 0.04 * m2[i]
        assert np.abs(T - np.diag(np.diag(T))).max() <= 1e-10 * np.trace(T)


def test_ellipsoid_eigenvalues_converge_at_second_order(ellipsoid_spectra, ellipsoid_oracle):
    # each panel edge halves from level 2 to 3, so an O(h^2) error falls 4x
    lam, _ = ellipsoid_oracle
    err = {level: {i: c.eigenvalue - lam[i] for i, c in dipole_clusters(spec)}
           for level, spec in ellipsoid_spectra.items()}
    for i in range(3):
        assert 3.0 <= err[2][i] / err[3][i] <= 5.0


def test_rotated_ellipsoid_rotates_the_cluster_tensors(ellipsoid_spectra):
    turned, R = rotated(ellipsoid(3, SEMI_AXES), 11)
    spec = mesh_spectrum(turned, 15)
    for a, b in zip(ellipsoid_spectra[3].clusters()[:3], spec.clusters()[:3]):
        assert abs(b.eigenvalue - a.eigenvalue) <= 1e-12
        assert np.abs(b.moment_tensor - R @ a.moment_tensor @ R.T).max() \
            <= 1e-10 * np.trace(a.moment_tensor)
