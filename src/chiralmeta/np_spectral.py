"""Quasi-static boundary operators and their spectral decomposition.

Single-layer and adjoint-double-layer (Neumann-Poincare) operators are
discretized by centroid-collocation Nystrom on flat panels.  The NP
operator is diagonalized in the energy inner product induced by the
negative single layer, restricted to mean-zero densities; each retained
eigendensity also carries the first-order moment of the surface normal
against it, which drives every dipole-level quantity downstream.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .mesh import TriMesh, icosphere


class SpectralError(RuntimeError):
    """Raised when operator assembly or the eigensolve cannot proceed."""


def _centroid_distances(c: np.ndarray) -> np.ndarray:
    """|c_i - c_j| for the rows of ``c`` (n, 3), with no (n, n, 3) array.

    The squared axis differences are summed in axis order and then rooted,
    which is the order of ``scipy.spatial.distance.cdist``, so the result
    matches it bit for bit.  Axes 1 and 2 go in blocks of 64 rows, so the
    only (n, n) array is the result.
    """
    r = np.subtract.outer(c[:, 0], c[:, 0])
    r *= r
    for lo in range(0, len(c), 64):
        block = r[lo:lo + 64]
        for k in (1, 2):
            d = np.subtract.outer(c[lo:lo + 64, k], c[:, k])
            d *= d
            block += d
    return np.sqrt(r, out=r)


def assemble_single_layer(mesh: TriMesh) -> np.ndarray:
    """Single-layer operator matrix (density values -> boundary values).

    The kernel is -1/(4*pi*|x-y|); entry (i, j) carries panel j's area as
    the quadrature weight, and the self term is the analytic potential of
    a flat disk of equal area evaluated at its center.  The kernel matrix
    S / areas[None, :] is symmetric, so diag(areas) @ S is symmetric only
    up to the rounding of its entries (about 1e-16 relative);
    ``spectral_decomposition`` symmetrizes it before use.
    """
    w = mesh.areas
    n = len(w)
    S = _centroid_distances(mesh.centroids)
    diag = np.diag_indices(n)
    S[diag] = np.inf
    if S.min() < 1e-12:
        i, j = divmod(int(np.argmin(S)), n)
        raise SpectralError(f"coincident panel centroids {i} and {j}")
    np.divide(-w / (4.0 * np.pi), S, out=S)
    # disk of equal area: potential at center is radius/2 (with the sign
    # convention of the kernel above)
    S[diag] = -0.5 * np.sqrt(w / np.pi)
    return S


def assemble_np(mesh: TriMesh) -> np.ndarray:
    """Adjoint-double-layer (NP) operator matrix on density values.

    Off-diagonal entries are area_j * (c_i - c_j) . nu_i / (4 pi r^3).
    The diagonal is fixed by the Gauss identity: the area-weighted
    adjoint applied to the constant density must return 1/2, which pins
    each column's self term.
    """
    c = mesh.centroids
    w = mesh.areas
    nu = mesh.normals
    n = len(w)
    # (c_i - c_j) . nu_i one axis at a time, with no (n, n, 3) array
    K = np.zeros((n, n))
    d = np.empty((n, n))
    for k in range(3):
        np.subtract.outer(c[:, k], c[:, k], out=d)
        d *= nu[:, k, None]
        K += d
    diag = np.diag_indices(n)
    r = _centroid_distances(c)
    r[diag] = np.inf   # zero self term; the Gauss identity sets it below
    np.multiply(r, r, out=d)
    d *= r
    np.divide(w / (4.0 * np.pi), d, out=d)
    K *= d
    # Column condition: sum_j w_j K[j, i] = w_i / 2  for every i.
    K[diag] = 0.5 - (w @ K) / w
    return K


@dataclass(frozen=True)
class ModeCluster:
    """Group of NP modes with nearly equal eigenvalue."""

    eigenvalue: float
    indices: tuple[int, ...]
    moment_tensor: np.ndarray  # (3, 3), sum of m m^T over the cluster
    c_n: float                 # isotropic part, trace/3


@dataclass(frozen=True)
class NPSpectrum:
    """Retained NP eigenpairs on the mean-zero subspace.

    ``densities`` are orthonormal in the energy inner product
    <phi, psi> = -integral(S[psi] * phi); ``moments`` are the normal
    moments taken against the same eigendensities rescaled to unit
    surface-L2 norm, which reproduces the closed-form unit-ball values.

    Inside a degenerate cluster (the sphere's l = 1 triple, the torus's
    pairs) the per-mode ``densities`` and ``moments`` are one orthonormal
    basis of the cluster's eigenspace, and roundoff chooses which one: a
    last-bit change of the operators can rotate or reorder them.  Only the
    cluster quantities of ``clusters()`` (mean eigenvalue, moment tensor,
    c_n) are meaningful, and they are what every program reader uses.

    The arrays are read-only copies of the ones passed in, so a spectrum
    shared between callers (see ``mesh_spectrum``) cannot be changed by
    one of them, nor through the arrays it was built from.
    """

    eigenvalues: np.ndarray          # (n_modes,)
    densities: np.ndarray            # (n_panels, n_modes)
    moments: np.ndarray              # (n_modes, 3)
    residuals: np.ndarray            # (n_modes,)
    gram_certificate: float
    dropped_eigenvalue: float
    cluster_tol: float = 1e-3
    _clusters: tuple[ModeCluster, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "densities", "moments", "residuals"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_clusters", _group_clusters(
            self.eigenvalues, self.moments, self.cluster_tol))

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def clusters(self) -> tuple[ModeCluster, ...]:
        """Eigenvalue clusters ordered by isotropic moment strength, then
        eigenvalue (descending); c_n under 1e-4 of the largest ranks as zero."""
        return self._clusters

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "moments": [
                [[float(np.real(m)), float(np.imag(m))] for m in row]
                for row in self.moments
            ],
            "gram_certificate": float(self.gram_certificate),
            "residuals": [float(v) for v in self.residuals],
            "dropped_eigenvalue": float(self.dropped_eigenvalue),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def spectrum_from_json(path: str) -> NPSpectrum:
    """Rebuild a spectrum (without densities) from its JSON export."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    moments = np.array(
        [[complex(re, im) for re, im in row] for row in data["moments"]])
    if np.allclose(moments.imag, 0.0):
        moments = moments.real
    return NPSpectrum(
        eigenvalues=np.array(data["eigenvalues"], dtype=float),
        densities=np.zeros((0, len(data["eigenvalues"]))),
        moments=moments,
        residuals=np.array(data["residuals"], dtype=float),
        gram_certificate=float(data["gram_certificate"]),
        dropped_eigenvalue=float(data["dropped_eigenvalue"]),
    )


def unit_ball_spectrum() -> NPSpectrum:
    """Exact unit-ball spectrum (closed forms, no discretization) of the
    degree-1 and degree-2 modes.

    Degree-n modes have eigenvalue 1/(2(2n+1)); only the three degree-1
    modes carry a normal moment, of squared magnitude 4*pi/27 along each
    axis.
    """
    eigs, moms = [], []
    for n in (1, 2):
        lam = 1.0 / (2.0 * (2 * n + 1))
        for l in range(2 * n + 1):
            eigs.append(lam)
            if n == 1:
                m = np.zeros(3)
                m[l] = np.sqrt(4.0 * np.pi / 27.0)
                moms.append(m)
            else:
                moms.append(np.zeros(3))
    return NPSpectrum(
        eigenvalues=np.array(eigs),
        densities=np.zeros((0, len(eigs))),
        moments=np.array(moms),
        residuals=np.zeros(len(eigs)),
        gram_certificate=0.0,
        dropped_eigenvalue=0.5,
    )


def _group_clusters(eigenvalues, moments, tol) -> tuple[ModeCluster, ...]:
    order = np.argsort(eigenvalues)[::-1]
    clusters = []
    current = [order[0]] if len(order) else []
    for idx in order[1:]:
        if abs(eigenvalues[idx] - eigenvalues[current[-1]]) <= tol:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    if current:
        clusters.append(current)
    out = []
    for idxs in clusters:
        mm = np.zeros((3, 3), dtype=complex)
        for i in idxs:
            m = moments[i]
            mm += np.outer(m, np.conj(m))
        if np.allclose(mm.imag, 0.0):
            mm = mm.real
        mm.flags.writeable = False
        out.append(ModeCluster(
            eigenvalue=float(np.mean([eigenvalues[i] for i in idxs])),
            indices=tuple(int(i) for i in idxs),
            moment_tensor=mm,
            c_n=float(np.real(np.trace(mm)) / 3.0),
        ))
    # As in the mode selection, a moment under 1% of the largest (c_n under
    # 1e-4 of the largest) is discretization noise and ranks as zero, so the
    # moment-free clusters keep their eigenvalue order instead of the order
    # of their roundoff-level c_n.
    floor = 1e-4 * max((cl.c_n for cl in out), default=0.0)
    out.sort(key=lambda cl: (-(cl.c_n if cl.c_n >= floor else 0.0), -cl.eigenvalue))
    return tuple(out)


def _householder_vector(w: np.ndarray) -> np.ndarray:
    """Unit vector v of the reflector P = I - 2vv^T with P e_1 = +/- w/|w|.

    Columns 2..n of P form an orthonormal basis of the hyperplane
    orthogonal to w, used to restrict to mean-zero densities.  P is
    never materialized; it is applied through rank-1 updates.
    """
    u = w / np.linalg.norm(w)
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0 else -1.0
    return v / np.linalg.norm(v)


def _reflect_sym(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trailing (n-1) x (n-1) block of P M P for the reflector P = I - 2vv^T
    and symmetric M: P M P = M - 2(v z^T + z v^T) with z = Mv - (v^T M v) v."""
    Mv = M @ v
    z = (Mv - (v @ Mv) * v)[1:]
    v1 = v[1:]
    B = np.outer(v1, z)
    B += np.outer(z, v1)
    B *= -2.0
    B += M[1:, 1:]
    return B


def spectral_decomposition(
    S: np.ndarray,
    K: np.ndarray,
    mesh: TriMesh,
    mode_count: int = 8,
    cluster_tol: float = 1e-3,
) -> NPSpectrum:
    """Diagonalize the NP operator in the single-layer energy metric.

    The generalized symmetric pencil uses the Gram matrix
    G = -diag(areas) @ S, symmetrized as (G + G^T) / 2 because the product
    is symmetric only up to rounding (positive definite here), and the
    symmetrized form (G K + K^T G) / 2, restricted to the subspace of
    densities with zero area-weighted mean.  Modes are sorted by normal
    moment magnitude (descending), then eigenvalue (descending), and the
    leading ``mode_count`` are retained.
    """
    n = len(mesh.areas)
    if not 1 <= mode_count <= n - 1:
        raise SpectralError(f"mode_count must be in [1, {n - 1}], got {mode_count}")
    w = mesh.areas
    G = -(w[:, None] * S)
    G = 0.5 * (G + G.T)
    A = G @ K
    A = 0.5 * (A + A.T)   # K^T G = (G K)^T as G is symmetric

    v = _householder_vector(w)
    Gp = _reflect_sym(G, v)
    Ap = _reflect_sym(A, v)
    del A   # not needed past its reflection; freeing it lowers eigh's peak memory
    try:
        # The Cholesky factorization inside eigh is the positive-definiteness
        # check.  Both matrices are exactly symmetric, so their transposes are
        # the same matrices in LAPACK's column order and eigh overwrites them
        # instead of copying.
        lam, Y = scipy.linalg.eigh(Ap.T, Gp.T, overwrite_a=True, overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:
        raise SpectralError(
            "energy Gram matrix is not positive definite on the mean-zero "
            "subspace; the discretization is too ill-conditioned") from exc
    # Phi = P [0; Y]: G-orthonormal, exactly mean-zero
    Phi = np.zeros((n, n - 1), order="F")
    Phi[1:] = Y
    Phi = scipy.linalg.blas.dger(-2.0, v, v[1:] @ Y, a=Phi, overwrite_a=True)

    # normal moments against unit-L2 eigendensities: three row vectors
    # -(w nu)^T S applied to the densities, not S applied to all of them
    mom = (-((w[:, None] * mesh.normals).T @ S) @ Phi).T   # (n-1, 3)
    mom /= np.sqrt(np.einsum("im,i,im->m", Phi, w, Phi))[:, None]

    # Sort by moment magnitude (descending), then eigenvalue (descending).
    # Moments below 1% of the largest are discretization noise and rank as
    # zero, so the classic zero-moment clusters keep their eigenvalue order.
    mnorm = np.linalg.norm(mom, axis=1)
    qnorm = np.where(mnorm >= 0.01 * mnorm.max(), mnorm, 0.0)
    order = np.lexsort((-lam, -qnorm))[:mode_count]
    lam_r = lam[order]
    Phi_r = Phi[:, order]
    mom_r = mom[order]

    # canonical sign: largest-|entry| component of each density positive
    signs = np.sign(Phi_r[np.argmax(np.abs(Phi_r), axis=0), np.arange(mode_count)])
    signs[signs == 0] = 1.0
    Phi_r *= signs
    mom_r *= signs[:, None]

    R = K @ Phi_r - lam_r * Phi_r
    resid = np.sqrt(np.maximum(np.einsum("im,im->m", R, G @ R), 0.0))
    gram = Phi_r.T @ (G @ Phi_r)
    cert = float(np.max(np.abs(gram - np.eye(mode_count))))

    # The eigenvalue near 1/2 lives outside the mean-zero subspace; report
    # the Rayleigh quotient of its (equilibrium) density.  That density
    # solves G psi = w, so it is G-orthogonal to every mean-zero density and
    # is proportional to 1 minus the G-projection of 1 onto span(Phi).
    psi = 1.0 - Phi @ (Phi.T @ G.sum(axis=1))
    Gpsi = G @ psi
    dropped = float((Gpsi @ (K @ psi)) / (Gpsi @ psi))

    return NPSpectrum(
        eigenvalues=lam_r,
        densities=Phi_r,
        moments=mom_r,
        residuals=resid,
        gram_certificate=cert,
        dropped_eigenvalue=dropped,
        cluster_tol=cluster_tol,
    )


# Spectra kept by mesh_spectrum, most recently used last.  An entry holds
# only the NPSpectrum (n_panels x mode_count densities, 192 kB for a
# 1,600-panel mesh at 15 modes); S, K and the n^2 temporaries of the
# decomposition are freed as usual.  A command that reads one mesh needs
# one entry and the benchmark's particle sweep needs two; four also hold
# two meshes at two mode counts, for well under a megabyte.
_MEMO_ENTRIES = 4
_MEMO: OrderedDict[str, NPSpectrum] = OrderedDict()


def _memo_key(mesh: TriMesh, mode_count: int) -> str:
    h = hashlib.sha256()
    for a in (mesh.vertices, mesh.triangles):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(mode_count).encode())
    return h.hexdigest()


def mesh_spectrum(mesh: TriMesh, mode_count: int) -> NPSpectrum:
    """Assemble S and K for ``mesh`` and decompose them, once per process.

    The result is remembered for the last four distinct inputs (vertices,
    triangles, ``mode_count``), so the commands that read the same mesh in
    one process share one eigensolve.  A decomposition that raises is not
    remembered.
    """
    key = _memo_key(mesh, mode_count)
    spectrum = _MEMO.get(key)
    if spectrum is None:
        spectrum = spectral_decomposition(assemble_single_layer(mesh), assemble_np(mesh),
                                          mesh, mode_count)
        _MEMO[key] = spectrum
        if len(_MEMO) > _MEMO_ENTRIES:
            _MEMO.popitem(last=False)
    else:
        _MEMO.move_to_end(key)
    return spectrum


def sphere_spectrum(subdivisions: int = 3, mode_count: int = 8) -> NPSpectrum:
    """Convenience: the spectrum of ``icosphere(subdivisions)``."""
    return mesh_spectrum(icosphere(subdivisions), mode_count)
