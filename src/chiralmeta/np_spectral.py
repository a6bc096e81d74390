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

from .mesh import TriMesh


class SpectralError(RuntimeError):
    """Raised when operator assembly or the eigensolve cannot proceed."""


def _pair_rows(c: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """Yield (block, r, d) over blocks of 16 of the panel indices ``rows``,
    for the centroids ``c`` (n, 3): r = out[block] holds |c_i - c_j| for i in
    rows[block] and every j, squared axis differences summed in axis order
    and rooted as ``scipy.spatial.distance.cdist`` does, bit for bit, and
    d[k] = c[rows[block], k] - c[:, k] (3, b, n) may be overwritten.  The
    blocks stay in cache; the only array of ``out``'s size is ``out``."""
    ct = np.ascontiguousarray(c.T)
    buf, sq = np.empty((3, 16, len(c))), np.empty((16, len(c)))
    for lo in range(0, len(rows), 16):
        block = slice(lo, lo + 16)
        r = out[block]
        d = np.subtract(ct[:, rows[block], None], ct[:, None, :], out=buf[:, :len(r)])
        np.multiply(d[0], d[0], out=r)
        for k in (1, 2):
            r += np.multiply(d[k], d[k], out=sq[:len(r)])
        np.sqrt(r, out=r)
        yield block, r, d


def _transposed(x: np.ndarray) -> tuple[np.ndarray, int]:
    """An array and BLAS ``trans`` flag that stand for x^T: the Fortran-ordered
    view x.T of a C-ordered x, else x itself, transposed by the flag."""
    if x.flags.c_contiguous:
        return x.T, 0
    return x, 1


def _gemm(a: np.ndarray, b: np.ndarray):
    """``a @ b`` for operands of rank 1 or 2, through scipy's BLAS.

    numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
    pool that has just worked spins for a while before it sleeps.  The
    eigensolve runs in scipy's, so the dense products around it run there
    too, instead of leaving numpy's pool spinning against it.  Operands go
    to the wrapper in Fortran order by way of ``_transposed``, so it copies
    no matrix (a real operand of a complex product is converted), and a
    matrix result is C-ordered, as numpy's.
    """
    blas = scipy.linalg.blas
    if a.ndim == 1 and b.ndim == 1:
        return blas.get_blas_funcs("dotu", (a, b))(a, b)
    if a.ndim == 1:   # a b = (b^T) a
        bt, trans = _transposed(b)
        return blas.get_blas_funcs("gemv", (a, b))(1.0, bt, a, trans=trans)
    if b.ndim == 1:
        at, trans = _transposed(a)
        return blas.get_blas_funcs("gemv", (a, b))(1.0, at, b, trans=1 - trans)
    # (a b)^T = b^T a^T comes out of gemm in Fortran order; its transpose
    # is a b in C order
    bt, trans_b = _transposed(b)
    at, trans_a = _transposed(a)
    return blas.get_blas_funcs("gemm", (a, b))(1.0, bt, at, trans_a=trans_b,
                                               trans_b=trans_a).T


def _single_layer_rows(mesh: TriMesh, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of S, (len(rows), n); see ``assemble_single_layer``."""
    w = mesh.areas
    S = np.empty((len(rows), len(w)))
    for _ in _pair_rows(mesh.centroids, rows, S):   # only the distances are used
        pass
    own = (np.arange(len(rows)), rows)
    S[own] = np.inf
    if S.min() < 1e-12:
        i, j = divmod(int(np.argmin(S)), len(w))
        raise SpectralError(f"coincident panel centroids {rows[i]} and {j}")
    np.divide(-w / (4.0 * np.pi), S, out=S)
    # disk of equal area: potential at center is radius/2 (with the sign
    # convention of the kernel above)
    S[own] = -0.5 * np.sqrt(w[rows] / np.pi)
    return S


def _np_rows(mesh: TriMesh, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of K with zero self terms; see ``assemble_np``."""
    w = mesh.areas
    scale = w / (4.0 * np.pi)
    K = np.empty((len(rows), len(w)))
    for block, r, d in _pair_rows(mesh.centroids, rows, K):
        # zero self term; the Gauss identity sets it
        r[np.arange(len(r)), rows[block]] = np.inf
        r3 = r * r
        r3 *= r
        np.divide(scale, r3, out=r3)
        # (c_i - c_j) . nu_i, summed in axis order
        d *= mesh.normals[rows[block]].T[:, :, None]
        np.add(d[0], d[1], out=r)
        r += d[2]
        r *= r3
    return K


_IMAGE_ROWS = 64   # image rows assembled and checked at a time by _images_match


def _images_match(M: np.ndarray, orbits: np.ndarray, assemble) -> bool:
    """Whether the rows ``M`` of the representatives orbits[:, 0] are those of
    a matrix invariant under the generator s of ``orbits``: the rows of the
    images orbits[:, 1], made by ``assemble`` _IMAGE_ROWS at a time and
    dropped, must satisfy M[s r_a, s j] = M[r_a, j] to _INVARIANCE_TOL times
    max |M|, each max |.| taken as max(max, -min), so no |M| array is
    formed.  True when k = 1, where there are no images."""
    if orbits.shape[1] == 1:
        return True
    perm = np.empty(orbits.size, dtype=int)
    perm[orbits] = np.roll(orbits, -1, axis=1)   # s: s^d r_a -> s^(d+1) r_a
    bound = _INVARIANCE_TOL * max(M.max(), -M.min())
    for lo in range(0, len(M), _IMAGE_ROWS):
        rows = np.take(assemble(orbits[lo:lo + _IMAGE_ROWS, 1]), perm, axis=1)
        rows -= M[lo:lo + _IMAGE_ROWS]
        if rows.max() > bound or -rows.min() > bound:
            return False
    return True


def assemble_single_layer(mesh: TriMesh, orbits: np.ndarray | None = None) -> np.ndarray | None:
    """Single-layer operator matrix (density values -> boundary values).

    The kernel is -1/(4*pi*|x-y|); entry (i, j) carries panel j's area as
    the quadrature weight, and the self term is the analytic potential of
    a flat disk of equal area evaluated at its center.  The kernel matrix
    S / areas[None, :] is symmetric, so the Gram matrix -diag(areas) @ S is
    symmetric only up to the rounding of its entries (about 1e-16
    relative); ``spectral_decomposition`` uses its symmetrized form.

    With the orbit table ``orbits`` (n / k, k) of a rotation of the panels
    (``_cyclic_orbits``), only the rows of the representatives orbits[:, 0]
    are returned, an (n / k, n) array: the rows of their images under the
    generator are assembled too, checked against them and dropped
    (``_images_match``), and None is returned when they differ.  Without
    it, the full matrix.
    """
    orbits = _no_rotation(len(mesh.areas)) if orbits is None else orbits
    S = _single_layer_rows(mesh, orbits[:, 0])
    return S if _images_match(S, orbits, lambda img: _single_layer_rows(mesh, img)) else None


def assemble_np(mesh: TriMesh, orbits: np.ndarray | None = None) -> np.ndarray | None:
    """Adjoint-double-layer (NP) operator matrix on density values.

    Off-diagonal entries are area_j * (c_i - c_j) . nu_i / (4 pi r^3).
    The diagonal is fixed by the Gauss identity: the area-weighted
    adjoint applied to the constant density must return 1/2, which pins
    each column's self term.

    ``orbits`` selects the representative rows as for
    ``assemble_single_layer``, the images being checked on the off-diagonal
    entries.  Under the rotation every panel of orbit b has the same column
    sum, sum_a w_{r_a} sum_d K[r_a, s^d r_b], so the self terms come from
    the representative rows alone: one product with w, then a sum over each
    orbit.
    """
    orbits = _no_rotation(len(mesh.areas)) if orbits is None else orbits
    reps, w = orbits[:, 0], mesh.areas
    K = _np_rows(mesh, reps)
    if not _images_match(K, orbits, lambda img: _np_rows(mesh, img)):
        return None
    # Column condition: sum_j w_j K[j, i] = w_i / 2  for every i.
    K[np.arange(len(reps)), reps] = 0.5 - _gemm(w[reps], K)[orbits].sum(axis=1) / w[reps]
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

    The eigendensities are orthonormal in the energy inner product
    <phi, psi> = -integral(S[psi] * phi) and are not kept: ``moments`` are
    their normal moments, rescaled to unit surface-L2 norm, which
    reproduces the closed-form unit-ball values, and ``residuals`` and
    ``gram_certificate`` certify them (see ``spectral_decomposition``).  The
    operator is self-adjoint in that inner product, so the moments and the
    cluster tensors are real.

    Inside a degenerate cluster (the sphere's l = 1 triple, the torus's
    pairs) the per-mode ``moments`` are those of one orthonormal basis of
    the cluster's eigenspace.  On a mesh with a rotation axis the two modes
    of a +-q pair are its cos and sin partners, whose basis is set by the
    mesh (see ``spectral_decomposition``), and a ``mode_count`` cut through a
    pair keeps the cos partner.  Every other degeneracy is resolved by
    roundoff: a last-bit change of the operators can rotate or reorder
    those modes.  Only the cluster quantities of ``clusters()`` (mean
    eigenvalue, moment tensor, c_n) are meaningful, and they are what every
    program reader uses.

    Each mode's sign makes the largest-|component| of its moment positive.
    A mode whose moment is under the ranking floor (1 % of the largest
    moment) has no such component above noise; its sign makes the
    largest-|value| of its eigendensity on the representative panels of
    the rotation (every panel when there is none) positive.

    The arrays are read-only copies of the ones passed in, so a spectrum
    shared between callers (see ``mesh_spectrum``) cannot be changed by
    one of them, nor through the arrays it was built from.
    """

    eigenvalues: np.ndarray          # (n_modes,)
    moments: np.ndarray              # (n_modes, 3), real
    residuals: np.ndarray            # (n_modes,)
    gram_certificate: float
    dropped_eigenvalue: float
    _clusters: tuple[ModeCluster, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "moments", "residuals"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_clusters", _group_clusters(self.eigenvalues, self.moments))

    def clusters(self) -> tuple[ModeCluster, ...]:
        """Eigenvalue clusters ordered by isotropic moment strength, then
        eigenvalue (descending); c_n under 1e-4 of the largest ranks as zero."""
        return self._clusters

    def to_json_dict(self) -> dict:
        # each moment component as an [re, im] pair, im = 0.0: the moments are real
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "moments": [[[float(m), 0.0] for m in row] for row in self.moments],
            "gram_certificate": float(self.gram_certificate),
            "residuals": [float(v) for v in self.residuals],
            "dropped_eigenvalue": float(self.dropped_eigenvalue),
        }


def spectrum_from_json(path: str) -> NPSpectrum:
    """Rebuild a spectrum from its JSON export, which holds every field; a
    moment with a non-zero imaginary part raises ``SpectralError``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    pairs = np.array(data["moments"], dtype=float)   # (n_modes, 3, [re, im])
    if np.any(pairs[..., 1] != 0.0):
        raise SpectralError(f"{path}: moments must be real, found an imaginary part")
    return NPSpectrum(
        eigenvalues=np.array(data["eigenvalues"], dtype=float),
        moments=pairs[..., 0],
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
    moments = np.zeros((8, 3))
    moments[:3] = np.sqrt(4.0 * np.pi / 27.0) * np.eye(3)
    return NPSpectrum(
        eigenvalues=np.repeat([1.0 / 6.0, 1.0 / 10.0], [3, 5]),
        moments=moments,
        residuals=np.zeros(8),
        gram_certificate=0.0,
        dropped_eigenvalue=0.5,
    )


_CLUSTER_TOL = 1e-3   # largest eigenvalue step inside one cluster


def _group_clusters(eigenvalues, moments) -> tuple[ModeCluster, ...]:
    order = np.argsort(eigenvalues)[::-1]
    clusters = []
    current = [order[0]] if len(order) else []
    for idx in order[1:]:
        if abs(eigenvalues[idx] - eigenvalues[current[-1]]) <= _CLUSTER_TOL:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    if current:
        clusters.append(current)
    out = []
    for idxs in clusters:
        mm = np.zeros((3, 3))
        for i in idxs:
            mm += np.outer(moments[i], moments[i])
        mm.flags.writeable = False
        out.append(ModeCluster(
            eigenvalue=float(np.mean([eigenvalues[i] for i in idxs])),
            indices=tuple(int(i) for i in idxs),
            moment_tensor=mm,
            c_n=float(np.trace(mm) / 3.0),
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
    Mv = _gemm(M, v)
    z = (Mv - _gemm(v, Mv) * v)[1:]
    v1 = v[1:]
    B = np.outer(v1, z)
    B += np.outer(z, v1)
    B *= -2.0
    B += M[1:, 1:]
    return B


# Cyclic panel symmetry.  A rotation about an axis that maps the panels onto
# themselves and leaves S and K unchanged commutes with the pencil, so the
# pencil splits into one Fourier block per rotation order (Allgower, Boehmer,
# Georg and Miranda, SIAM J. Numer. Anal. 29 (1992) 534).
_MATCH_TOL = 1e-9         # centroids (of the diameter), unit normals, areas (of the smallest)
_INVARIANCE_TOL = 1e-10   # max |M[s r, s j] - M[r, j]| relative to max |M|, for M = S and K


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about the unit vector ``axis`` by ``angle`` (Rodrigues)."""
    x, y, z = axis
    C = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * C + (1.0 - np.cos(angle)) * (C @ C)


def _match(points: np.ndarray, moved: np.ndarray, tol: float) -> np.ndarray | None:
    """The permutation p with |points[p[i]] - moved[i]| <= tol, or None.

    Points are sorted by their projection on a fixed generic direction and
    each moved point is looked up in the window of width 2 tol around its
    own projection, in O(n log n).
    """
    g = np.sqrt([0.3, 0.4, 0.3])
    key = points @ g
    order = np.argsort(key)
    key = key[order]
    mk = moved @ g
    lo = np.searchsorted(key, mk - tol, "left")
    hi = np.searchsorted(key, mk + tol, "right")
    if np.any(hi == lo):
        return None
    perm = order[lo]
    for i in np.nonzero(hi - lo > 1)[0]:   # rare: two projections within tol
        cand = order[lo[i]:hi[i]]
        perm[i] = cand[np.argmin(np.linalg.norm(points[cand] - moved[i], axis=1))]
    if (np.linalg.norm(points[perm] - moved, axis=1).max() > tol
            or np.bincount(perm, minlength=len(points)).max() > 1):
        return None
    return perm


def _candidate_axes(mesh: TriMesh, center: np.ndarray, tol: float) -> list[np.ndarray]:
    """Unit axes through ``center`` that may carry a rotation symmetry: the
    simple eigenvectors of the area-weighted second moment of the centroids
    (a body of revolution, an ellipsoid), then the directions to the vertices
    of the rarest valence, when not all vertices share one (the vertex axes
    of an icosphere)."""
    d = mesh.centroids - center
    ev, vec = np.linalg.eigh((mesh.areas[:, None] * d).T @ d)
    gap = 1e-8 * ev[-1]
    axes = [vec[:, i] for i in range(3)
            if all(abs(ev[i] - ev[j]) > gap for j in range(3) if j != i)]
    valence = np.bincount(mesh.triangles.ravel(), minlength=len(mesh.vertices))
    alike = np.bincount(valence)[valence]   # vertices of each vertex's valence
    if alike.min() < alike.max():
        for a in mesh.vertices[alike == alike.min()] - center:
            if np.linalg.norm(a) > tol:
                axes.append(a / np.linalg.norm(a))
    return axes


def _orders(mesh: TriMesh, center: np.ndarray, axis: np.ndarray, tol: float) -> list[int]:
    """Rotation orders k about ``axis`` for which a turn of 2 pi / k takes
    panel 0 onto another panel at its height and radius, largest first.  An
    axis with no such panel is rejected in O(n)."""
    d = mesh.centroids - center
    h = d @ axis
    radial = d - h[:, None] * axis
    rad = np.linalg.norm(radial, axis=1)
    if rad[0] <= tol:   # panel 0 on the axis: no rotation moves it
        return []
    same = np.nonzero((np.abs(h - h[0]) <= tol) & (np.abs(rad - rad[0]) <= tol))[0][1:]
    e1 = radial[0] / rad[0]
    theta = np.arctan2(radial[same] @ np.cross(axis, e1), radial[same] @ e1) % (2.0 * np.pi)
    k = np.rint(2.0 * np.pi / theta)
    ok = (k >= 2) & (np.abs(k * theta - 2.0 * np.pi) <= 1e-6) & (mesh.n_panels % k == 0)
    return sorted({int(x) for x in k[ok]}, reverse=True)


def _orbits(perm: np.ndarray, k: int) -> np.ndarray | None:
    """(n / k, k) table of the orbits of the panel permutation ``perm``, row
    i = (r_i, perm[r_i], perm[perm[r_i]], ...) with r_i the lowest panel of
    its orbit, rows in increasing r_i; None unless every orbit has exactly k
    panels (the action is free)."""
    n = len(perm)
    powers = np.empty((k, n), dtype=int)
    powers[0] = np.arange(n)
    for j in range(1, k):
        powers[j] = perm[powers[j - 1]]
    if np.any(powers[1:] == powers[0]) or not np.array_equal(perm[powers[-1]], powers[0]):
        return None
    reps = np.nonzero(powers.min(axis=0) == powers[0])[0]
    return powers[:, reps].T


def _no_rotation(n: int) -> np.ndarray:
    """The orbit table of no rotation: every panel its own orbit, (n, 1)."""
    return np.arange(n)[:, None]


def _cyclic_orbits(mesh: TriMesh) -> np.ndarray:
    """Orbit table (see ``_orbits``) of the largest free cyclic rotation of
    the panels that carries every panel onto one with the same centroid,
    normal and area; ``_no_rotation`` when there is none.  Read from the
    geometry alone, before any assembly.

    A rotation is accepted when the rotated centroids match the centroids
    within _MATCH_TOL of the diameter, each rotated unit normal matches
    that of the panel it lands on within _MATCH_TOL, and its area within
    _MATCH_TOL of the smallest area, and every orbit has k panels.  That is everything
    the Nystrom rule reads: every off-diagonal entry of S and K is a
    rotation-invariant function of (c_i, c_j, nu_i, w_j), and the self terms
    follow from w and from the column sums of the off-diagonal entries, so
    such a rotation leaves S and K invariant up to the tolerances.  The
    assemblers then check the operators themselves to _INVARIANCE_TOL on
    the 2n/k rows of the representatives and their images
    (``_images_match``).  Those rows hold every column, and a centroid or an
    area enters every entry of its panel's column, so any mismatch in them
    shows there.  A normal enters only its own row of K, so on the rows
    not checked the normal match bounds the error.
    """
    c, nu, w = mesh.centroids, mesh.normals, mesh.areas
    center = (w @ c) / w.sum()
    tol = _MATCH_TOL * np.linalg.norm(np.ptp(mesh.vertices, axis=0))
    candidates = [(k, axis) for axis in _candidate_axes(mesh, center, tol)
                  for k in _orders(mesh, center, axis, tol)]
    candidates.sort(key=lambda cand: -cand[0])   # stable: candidate order breaks ties
    for k, axis in candidates:
        R = _rotation(axis, 2.0 * np.pi / k)
        perm = _match(c, (c - center) @ R.T + center, tol)
        if (perm is None
                or np.abs(nu[perm] - nu @ R.T).max() > _MATCH_TOL
                or np.abs(w[perm] - w).max() > _MATCH_TOL * w.min()):
            continue
        orbits = _orbits(perm, k)
        if orbits is not None:
            return orbits
    return _no_rotation(len(w))


_FFT_ROWS = 32   # rows of M gathered and transformed at a time by _fourier_blocks


def _fourier_blocks(M: np.ndarray, orbits: np.ndarray) -> list[np.ndarray]:
    """Blocks B_q[a, b] = sum_d M[a, s^d r_b] exp(2 pi i q d / k) of the rows
    ``M`` over the orbit table ``orbits``, for q = 0 .. k // 2.  For the
    representative rows of a matrix invariant under s they are its Fourier
    blocks: the block of -q is the conjugate of that of q, those of q = 0
    and q = k / 2 are real, and the block q of M^T is B_q^H.  At k = 1 the
    one block is M itself.

    The blocks are allocated first and filled _FFT_ROWS rows of M at a time,
    so the gathered rows and their transforms never exceed that many rows;
    each length-k transform is independent of the others, so the blocks are
    those of one transform of every row."""
    k = orbits.shape[1]
    if k == 1:
        return [M]
    blocks = [np.empty((len(M), orbits.shape[0]), dtype=float if 2 * q % k == 0 else complex)
              for q in range(k // 2 + 1)]
    for lo in range(0, len(M), _FFT_ROWS):
        F = np.fft.rfft(M[lo:lo + _FFT_ROWS][:, orbits], axis=-1)
        for q, B in enumerate(blocks):
            if B.dtype == float:
                B[lo:lo + _FFT_ROWS] = F[..., q].real
            else:
                np.conj(F[..., q], out=B[lo:lo + _FFT_ROWS])
    return blocks


def _gram_block(Sq: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Block q of the symmetrized Gram matrix (G + G^T) / 2, G = -diag(areas)
    @ S, from block q of S (``_fourier_blocks``) and the areas ``w`` of the
    representatives: -(diag(w) S_q + S_q^H diag(w)) / 2, exactly Hermitian."""
    B = w[:, None] * Sq
    B = B + B.conj().T
    B *= -0.5
    return B


def _kept_columns(lam: np.ndarray, mnorm: np.ndarray, mode_count: int) -> np.ndarray:
    """The columns of one block, in increasing order, that can rank among the
    leading ``mode_count`` modes of the pencil: the first ``mode_count`` by
    (moment norm, eigenvalue) and the first ``mode_count`` by eigenvalue,
    both descending and stable, as the global ranking.  Whatever the ranking
    floor, every other column has ``mode_count`` columns of its own block
    ahead of it, so the global ranking of the kept columns picks the same
    modes in the same order."""
    by_moment = np.lexsort((-lam, -mnorm))[:mode_count]
    by_value = np.argsort(-lam, kind="stable")[:mode_count]
    return np.union1d(by_moment, by_value)


def _leading_modes(Sq: list[np.ndarray], Kq: list[np.ndarray], mesh: TriMesh,
                   orbits: np.ndarray, mode_count: int):
    """Solve the pencil of every Fourier block; return the eigenvalues,
    moments (mode_count, 3), blocks q and block vectors Z (n / k,
    mode_count) of the leading ``mode_count`` modes, ranked and signed as
    ``spectral_decomposition`` states, and the dropped eigenvalue.  Mode j
    has the density c_q Re(Z[i, j] exp(2 pi i q d / k)) on panel s^d r_i,
    c_q = sqrt(2 / k) in a pair +-q and 1 / sqrt(k) in the real blocks: z is
    the block's eigenvector u, or -i u for a sin partner.  Once a block's
    modes are ranked it keeps only the eigenvector columns of
    ``_kept_columns``, at most 2 ``mode_count``."""
    w = mesh.areas
    k, w_rep = orbits.shape[1], w[orbits[:, 0]]
    # normal moments against unit-L2 eigendensities: three row vectors
    # -(w nu)^T S, whose block q is -(w nu)_q^T S_q, applied to the block
    # vectors
    wnu = _fourier_blocks((w[:, None] * mesh.normals).T, orbits)
    Tq = [-_gemm(V, B) for V, B in zip(wnu, Sq)]
    # the moment row of panel 0 = r_0, which sets the phase of every pair
    t0 = np.fft.irfft(np.conj([T[:, 0] for T in Tq]), n=k, axis=0)[0]

    blocks, lams, moms, norms, source = [], [], [], [], []
    for q, T in enumerate(Tq):
        B = _gram_block(Sq[q], w_rep)
        A = _gemm(B, Kq[q])
        A = 0.5 * (A + A.conj().T)   # (G K)^H = K^H G as G is Hermitian
        if q == 0:
            v = _householder_vector(w_rep)
            B = _reflect_sym(B, v)
            A = _reflect_sym(A, v)
        try:
            # The Cholesky factorization inside eigh is the positive-definiteness
            # check.  Both matrices are exactly Hermitian, so their transposes
            # are their conjugates in LAPACK's column order: eigh overwrites them
            # instead of copying, and its vectors are the conjugates of ours.
            lam, U = scipy.linalg.eigh(A.T, B.T, overwrite_a=True, overwrite_b=True)
        except scipy.linalg.LinAlgError as exc:
            raise SpectralError(
                "energy Gram matrix is not positive definite on the mean-zero "
                "subspace; the discretization is too ill-conditioned") from exc
        del A, B
        np.conj(U, out=U)
        if q == 0:
            # Phi = P [0; Y]: G-orthonormal, exactly mean-zero
            Y = U
            U = np.zeros((len(w_rep), len(lam)), order="F")
            U[1:] = Y
            U = scipy.linalg.blas.dger(-2.0, v, _gemm(v[1:], Y), a=U, overwrite_a=True)
            del Y
            # The eigenvalue near 1/2 lives outside the mean-zero subspace;
            # report the Rayleigh quotient of its (equilibrium) density.  That
            # density solves G psi = w, so it is G-orthogonal to every
            # mean-zero density and is proportional to 1 minus the
            # G-projection of 1 onto them.  Both are invariant under the
            # rotation, so only block 0 holds them: psi = 1 - U U^T G_0 1 on
            # the representatives.
            G = _gram_block(Sq[0], w_rep)
            psi = 1.0 - _gemm(U, _gemm(_gemm(G, np.ones(len(w_rep))), U))
            Gpsi = _gemm(G, psi)
            dropped = float(_gemm(Gpsi, _gemm(Kq[0], psi)) / _gemm(Gpsi, psi))
            del G
        mom = _gemm(T, U)
        l2 = np.einsum("im,i,im->m", U.conj(), w_rep, U).real
        if 2 * q % k == 0:
            mom = mom.T
            mom /= np.sqrt(k * l2)[:, None]
            mnorm = np.linalg.norm(mom, axis=1)
            keep = _kept_columns(lam, mnorm, mode_count)
            U, lam, mom, mnorm = U[:, keep], lam[keep], mom[keep], mnorm[keep]
            cols = np.arange(len(keep))
            parts = np.zeros_like(cols)
        else:
            phase = np.exp(-1j * np.angle(_gemm(t0, mom)))
            mom *= phase / np.sqrt(0.5 * k * l2)
            mom = np.stack([mom.real.T, mom.imag.T], axis=1)   # (columns, cos/sin, 3)
            mnorm = np.linalg.norm(mom.reshape(-1, 3), axis=1) ** 2
            mnorm = np.sqrt((mnorm[0::2] + mnorm[1::2]) / 2)
            keep = _kept_columns(lam, mnorm, mode_count)
            U = U[:, keep]
            U *= phase[keep]
            mom = mom[keep].reshape(-1, 3)
            lam, mnorm = np.repeat(lam[keep], 2), np.repeat(mnorm[keep], 2)
            cols = np.repeat(np.arange(len(keep)), 2)
            parts = np.tile([1, 2], len(keep))
        blocks.append(U)
        lams.append(lam)
        moms.append(mom)
        norms.append(mnorm)
        source.append(np.column_stack([np.full_like(cols, q), cols, parts]))
    lam, mom, mnorm, source = (np.concatenate(a) for a in (lams, moms, norms, source))

    # Sort by moment magnitude (descending), then eigenvalue (descending).
    # Moments below 1% of the largest are discretization noise and rank as
    # zero, so the classic zero-moment clusters keep their eigenvalue order.
    floor = 0.01 * mnorm.max()
    order = np.lexsort((-lam, -np.where(mnorm >= floor, mnorm, 0.0)))[:mode_count]
    lam, mom, source = lam[order], mom[order], source[order]
    Z = np.empty((len(w_rep), mode_count), dtype=complex)
    for col, (q, c, part) in enumerate(source):
        Z[:, col] = blocks[q][:, c] * (-1j if part == 2 else 1.0)
    # sign: the largest-|component| of the moment positive, or under the
    # floor the largest-|entry| of Re z, the density on the representatives
    modes = np.arange(mode_count)
    lead = np.where(np.linalg.norm(mom, axis=1) >= floor,
                    mom[modes, np.argmax(np.abs(mom), axis=1)],
                    Z.real[np.argmax(np.abs(Z.real), axis=0), modes])
    signs = np.where(lead < 0, -1.0, 1.0)
    Z *= signs
    mom *= signs[:, None]
    return lam, mom, source[:, 0], Z, dropped


def spectral_decomposition(
    S: np.ndarray | list[np.ndarray],
    K: np.ndarray | list[np.ndarray],
    mesh: TriMesh,
    mode_count: int,
    orbits: np.ndarray | None = None,
) -> NPSpectrum:
    """Diagonalize the NP operator in the single-layer energy metric.

    The generalized symmetric pencil uses the Gram matrix
    G = -diag(areas) @ S, symmetrized as (G + G^T) / 2 because the product
    is symmetric only up to rounding (positive definite here), and the
    symmetrized form (G K + K^T G) / 2, restricted to the subspace of
    densities with zero area-weighted mean.  Modes are sorted by normal
    moment magnitude (descending), then eigenvalue (descending), and the
    leading ``mode_count`` are retained.

    ``orbits`` is the orbit table of a free cyclic rotation s of order k of
    the panels that leaves S and K invariant (``_cyclic_orbits``, checked by
    the assemblers), and S and K are then only the rows of its
    representatives orbits[:, 0], or the lists of their Fourier blocks
    (``_fourier_blocks``), which is how ``mesh_spectrum`` passes them.
    Without it k = 1: S and K are the full matrices (or the one-entry lists
    of them), every panel is a representative and the one block is the full
    pencil.  The pencil is solved as its k // 2 + 1 distinct Fourier blocks
    of n / k rows: a density of block q is u_i exp(2 pi i q j / k) on panel
    s^j r_i.  Only the block q = 0 holds the mean-zero constraint, and only
    its modes enter ``dropped_eigenvalue``.  A block 0 < q < k / 2 stands for
    the pair +-q and gives each eigenvalue twice, as the real and imaginary
    parts of its density (the cos and sin partners).  The phase makes r . m
    real and positive, where m is the complex moment and r the moment row of
    panel 0, so the sin partner's moment is orthogonal to r.  Both partners
    rank by the pair's mean moment, so where ``mode_count`` splits a pair
    the cos partner is kept.  The sign rule is ``NPSpectrum``'s.  The Fourier
    blocks S_q and K_q of S and K are made once, unless they are given;
    block q of the symmetrized G is G_q (``_gram_block``), formed and
    released with the pencil of its block.

    No density is formed on the n panels: everything returned comes from the
    block vectors z of the retained modes (``_leading_modes``).  The moment
    rows of block q are -(w nu)_q^T S_q.  The residual of a mode is
    ||K_q z - lam z|| in the G_q norm, and the n-panel Gram matrix of the
    retained densities is block diagonal with blocks Re(Z_q^H G_q Z_q), so
    ``residuals`` and ``gram_certificate`` are those of the n-panel
    densities, up to the roundoff of their synthesis.  Each block's S_q and
    K_q are released once the block is certified: the entries of lists of
    blocks passed in are set to None.
    """
    n = len(mesh.areas)
    if not 1 <= mode_count <= n - 1:
        raise SpectralError(f"mode_count must be in [1, {n - 1}], got {mode_count}")
    orbits = _no_rotation(n) if orbits is None else orbits
    k, w_rep = orbits.shape[1], mesh.areas[orbits[:, 0]]
    Sq, Kq = (M if isinstance(M, list) else _fourier_blocks(M, orbits) for M in (S, K))
    lam, mom, block, Z, dropped = _leading_modes(Sq, Kq, mesh, orbits, mode_count)

    resid, cert = np.empty(mode_count), 0.0
    for q in range(len(Sq)):
        cols = np.nonzero(block == q)[0]
        if len(cols):
            Zq = Z[:, cols] if 2 * q % k else Z[:, cols].real
            G = _gram_block(Sq[q], w_rep)
            R = _gemm(Kq[q], Zq)
            R -= lam[cols] * Zq
            resid[cols] = np.sqrt(np.maximum(
                np.einsum("im,im->m", R.conj(), _gemm(G, R)).real, 0.0))
            gram = _gemm(Zq.conj().T, _gemm(G, Zq)).real
            cert = max(cert, float(np.abs(gram - np.eye(len(cols))).max()))
        Sq[q] = Kq[q] = None
    return NPSpectrum(
        eigenvalues=lam,
        moments=mom,
        residuals=resid,
        gram_certificate=cert,
        dropped_eigenvalue=dropped,
    )


# Spectra kept by mesh_spectrum, most recently used last.  An entry holds
# only the NPSpectrum (mode_count eigenvalues, moments and residuals, under
# a kilobyte at 15 modes, whatever the mesh); the rows and blocks of S and K
# and the temporaries of the decomposition are freed as usual.  A command
# that reads one mesh needs one entry and the benchmark's particle sweep
# needs two; four also hold two meshes at two mode counts.
_MEMO_ENTRIES = 4
_MEMO: OrderedDict[str, NPSpectrum] = OrderedDict()


def _memo_key(mesh: TriMesh, mode_count: int) -> str:
    h = hashlib.sha256()
    for a in (mesh.vertices, mesh.triangles):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(mode_count).encode())
    return h.hexdigest()


def _blocks(assemble, mesh: TriMesh, orbits: np.ndarray) -> list[np.ndarray] | None:
    """The Fourier blocks of the rows that ``assemble`` gives for ``orbits``,
    or None when it refuses the rotation; the rows are released on return."""
    M = assemble(mesh, orbits)
    return None if M is None else _fourier_blocks(M, orbits)


def mesh_spectrum(mesh: TriMesh, mode_count: int) -> NPSpectrum:
    """The NP spectrum of ``mesh``, decomposed once per process.

    The rotation symmetry is read from the geometry first
    (``_cyclic_orbits``), and only the n / k representative rows of S and K
    are assembled, O(n^2 / k) memory.  The rows of S are turned into its
    Fourier blocks and released before K is assembled, and those of K
    likewise, so the stage holds the blocks of S, the rows of K and the
    blocks of K at most, never both sets of rows; the decomposition then
    starts from the blocks.  When the rows of their images refuse the
    rotation (an assembler returns None), S and K are assembled in full and
    decomposed as one block.  The result is remembered for the last four
    distinct inputs (vertices, triangles, ``mode_count``), so the commands
    that read the same mesh in one process share one eigensolve.  A
    decomposition that raises is not remembered.
    """
    key = _memo_key(mesh, mode_count)
    spectrum = _MEMO.get(key)
    if spectrum is None:
        orbits = _cyclic_orbits(mesh)
        Sq = _blocks(assemble_single_layer, mesh, orbits)
        Kq = None if Sq is None else _blocks(assemble_np, mesh, orbits)
        if Kq is None:
            orbits = _no_rotation(mesh.n_panels)
            Sq, Kq = [assemble_single_layer(mesh)], [assemble_np(mesh)]
        spectrum = spectral_decomposition(Sq, Kq, mesh, mode_count, orbits)
        _MEMO[key] = spectrum
        if len(_MEMO) > _MEMO_ENTRIES:
            _MEMO.popitem(last=False)
    else:
        _MEMO.move_to_end(key)
    return spectrum
