"""Point-interaction lattice solver and its homogenized volume reference.

A regular N^3 lattice of coupled point dipoles in the unit cube is
solved self-consistently (each particle is driven by the incident field
plus the fields of all others, with a regularized kernel).  The same
coupling constant drives a volume fixed-point equation on an m^3 grid;
comparing probe fields of the two is the convergence experiment.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .background import (ChiralBackground, PlaneWaveSpec, _contract, _radial, green_apply,
                         green_dyadic, incident_six)
from .effective import DiluteConfig, TildeParams, coupling_from_tilde, tilde_from_definition
from .np_spectral import NPSpectrum

_I3 = np.eye(3)

# block-row chunking caps one green_apply call at this many (probe, center)
# pairs: its per-pair scalars, coefficient rows and products peak at about
# 400 bytes per pair, 79 MB for a full chunk by tracemalloc (the 6x6 blocks
# it replaced peaked at 210 MB)
_CHUNK_ELEMS = 200_000
# largest system handed to the LU fallback: at grid_m 9 (4,374 unknowns) its
# five irrep blocks (180 to 558 unknowns) take 0.09-0.13 s in all, 0.02 s of
# it LU, and peak at 45 MB by tracemalloc (2 OpenBLAS threads, 2 vCPUs)
_DIRECT_CAP = 4500
# fixed-point sweeps before the grid solve falls back to LU or fails
_MAX_SWEEPS = 200
# cells per axis of a lattice or volume grid; the FFT table of the grid
# operator holds (2n)^3 complex 6x6 blocks, 64 MB at n = 24
_MAX_AXIS = 24


class FoldyError(RuntimeError):
    """Lattice or volume solve failed."""


def _check_axis(N: int) -> None:
    """Refuse more than ``_MAX_AXIS`` particles per axis, before any N^3-sized work."""
    if N > _MAX_AXIS:
        raise FoldyError(f"lattice count per axis {N} exceeds {_MAX_AXIS}")


@dataclass(frozen=True)
class ParticleLattice:
    """Regular N^3 lattice of point scatterers filling the unit cube, N =
    ``cfg.n_per_axis``: one at each cell center of the N^3 grid, in
    :func:`cell_centers` order."""

    cfg: DiluteConfig

    @property
    def n_per_axis(self) -> int:
        return self.cfg.n_per_axis

    @functools.cached_property
    def centers(self) -> np.ndarray:
        return cell_centers(self.n_per_axis)


def _grid_index(n: int) -> np.ndarray:
    """Integer indices (i, j, k) of the n^3 grid cells, last axis fastest."""
    r = np.arange(n)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def cell_centers(n: int) -> np.ndarray:
    """Centers ((i+1/2)/n, (j+1/2)/n, (k+1/2)/n) of the n^3 grid cells, for
    the 0-based indices of :func:`_grid_index`, last axis fastest."""
    return (_grid_index(n) + 0.5) / n


def build_lattice(n_per_axis: int, cfg: DiluteConfig) -> ParticleLattice:
    """Lattice with the config rescaled to this particle count.

    Re-deriving the config revalidates the dilution invariant for the
    new count, so particle size always tracks the lattice.
    """
    return ParticleLattice(dataclasses.replace(cfg, n_per_axis=n_per_axis))


@dataclass(frozen=True)
class GridState:
    """Solution of the grid problem on the n^3 cells: the local (E, H)
    6-vectors ``values``, shape (n^3, 6), at :func:`cell_centers` of a
    lattice or a volume grid, with the inputs that its field needs."""

    n: int
    values: np.ndarray
    eta: float
    solver_report: dict
    coupling: np.ndarray
    incident: PlaneWaveSpec

    @functools.cached_property
    def centers(self) -> np.ndarray:
        return cell_centers(self.n)


# ---------------------------------------------------------------------------
# block-Toeplitz grid operator
#
# Both the lattice and the volume system couple the cells of a regular n^3
# grid, in cell_centers order, through K = weight * omega * G_eta(x_i - x_j)
# @ T6.  The kernel depends on the cell offset x_i - x_j only, so it is
# evaluated once per offset, (2n-1)^3 points instead of n^6, and every use
# of K reads that table: gathered into symmetry blocks for LU, or applied
# by FFT.


def _offset_kernel(bg: ChiralBackground, n: int, eta: float,
                   zero_self: bool) -> np.ndarray:
    """G_eta(d/n) for every offset d in [-(n-1), n-1]^3, shape
    (2n-1, 2n-1, 2n-1, 6, 6), last axis fastest.  The zero offset gives a
    zero block when ``zero_self`` (masked before evaluation so eta = 0
    stays legal off it)."""
    span = 2 * n - 1
    rel = (_grid_index(span) - (n - 1)) / n
    zero = span ** 3 // 2
    if zero_self:
        rel[zero] = 1.0
    G = green_dyadic(bg, rel, eta=eta)
    if zero_self:
        G[zero] = 0.0
    return G.reshape(span, span, span, 6, 6)


def _offset_blocks(bg: ChiralBackground, n: int, eta: float, T6: np.ndarray,
                   weight: float, zero_self: bool) -> np.ndarray:
    """Interaction blocks weight * omega * G_eta(d/n) @ T6 per offset d."""
    return weight * bg.omega * (_offset_kernel(bg, n, eta, zero_self) @ T6)


def _fft_apply(blocks: np.ndarray):
    """u -> K u over the n^3 grid cells, as a linear convolution by a
    zero-padded (2n)^3 FFT: O(n^3 log n) per product.  A product
    transforms one axis at a time, so it skips the lines that hold only
    padding on the way in and the lines that no cell reads on the way
    out: 7/12 of the work of a full (2n)^3 transform each way."""
    n = (blocks.shape[0] + 1) // 2
    L = 2 * n
    # circular embedding: offset d sits at d mod L; offset +-n stays zero
    wrap = np.arange(-(n - 1), n) % L
    c = np.zeros((L, L, L, 6, 6), dtype=complex)
    c[np.ix_(wrap, wrap, wrap)] = blocks
    c_hat = np.fft.fftn(c, axes=(0, 1, 2))

    def apply(u: np.ndarray) -> np.ndarray:
        g = u.reshape(n, n, n, 6)
        for axis in (2, 1, 0):   # fft(..., n=L) zero-pads the axis to L
            g = np.fft.fft(g, n=L, axis=axis)
        g = np.einsum("...ij,...j->...i", c_hat, g)
        for axis in (0, 1, 2):   # only the first n outputs of an axis are read
            g = np.fft.ifft(g, axis=axis)[(slice(None),) * axis + (slice(n),)]
        return g.reshape(-1)

    return apply


# ---------------------------------------------------------------------------
# symmetry blocks of the grid operator
#
# The chiral background breaks mirror symmetry, not rotation symmetry:
# G_eta(R d) = (R+R) G_eta(d) (R+R)^T for a proper rotation R, and T6 acts on
# the E/H pair only, so it commutes with Q = R+R.  The 24 rotations R_g of the
# cube about the grid centre (the group O) map every n^3 grid onto itself, so
# the offset table obeys B(R_g d) = Q_g B(d) Q_g^T and I - K commutes with
# (T_g u)[g.r] = Q_g u[r].  In a symmetry-adapted basis (Faessler & Stiefel,
# Group Theoretical Methods and Their Applications, 1992) I - K is the direct
# sum of d copies of one block per real irrep D_rho of O (dimension d):
#     A_rho = I + W^T M_rho W,  M_rho[(j,r,a),(l,s,b)]
#           = -sum_g D_rho(g)_jl [B(r - g.s) Q_g]_ab
# over orbit representatives r, s, partners j, l and components a, b.  W maps
# an orbit's 6d raw coordinates (j, a) to an orthonormal basis: the identity
# on a free orbit; on a cell that the rotations h in H fix, the range of the
# stabilizer projector (1/|H|) sum_h D_rho(h) (x) Q_h, scaled by 1/sqrt|H|.
# Blocks, right-hand sides and the solution all carry raw coordinates with
# the axes (j, r, a); the orthonormal basis index is (r, kappa).


class _CubeGroup(NamedTuple):
    """Tables of the rotation group O, built by :func:`_cube_group`."""

    rot: np.ndarray      # (24, 3, 3) rotations R_g
    Q: np.ndarray        # (24, 6, 6) Q_g = R_g + R_g on (E, H)
    qperm: np.ndarray    # (24, 6) Q_g e_b = qsign[g, b] e_qperm[g, b]
    qsign: np.ndarray
    irreps: tuple        # D_rho(g), shape (24, d, d), for A1, A2, E, T1, T2
    chi: np.ndarray      # (4, 4) characters of D2: 1 and the diagonals of R_k


@functools.cache
def _cube_group() -> _CubeGroup:
    """The rotation group O of the cube and its five real irreps.

    Element g = 4 q + k is the half-turn k of D2 (identity, C2x, C2y, C2z)
    followed by the axis permutation q, negated when odd so that
    det R_g = 1.  A1 = 1, A2 = the sign of the axis permutation, E = the
    axis permutation on the plane normal to (1, 1, 1), T1 = R_g and
    T2 = A2 R_g.  Every irrep is diagonal on D2: D(4q + k) = D(4q) diag(c)
    with c = chi[0, k] for A1, A2 and E and chi[1 + l, k] for partner l of
    T1 and T2."""
    half = np.array([np.diag(s) for s in
                     ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))], dtype=float)
    perms = list(itertools.permutations(range(3)))
    parity = np.array([(-1.0) ** sum(p[j] > p[i] for i in range(3) for j in range(i))
                       for p in perms])
    axis_perm = np.repeat(np.eye(3)[:, perms].transpose(1, 0, 2), 4, axis=0)
    a2 = np.repeat(parity, 4)[:, None, None]
    rot = (a2 * axis_perm) @ np.tile(half, (6, 1, 1))
    Q = np.zeros((24, 6, 6))
    Q[:, :3, :3] = Q[:, 3:, 3:] = rot
    qperm = np.abs(Q).argmax(axis=1)
    qsign = np.take_along_axis(Q, qperm[:, None, :], axis=1)[:, 0]
    plane = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([[2.0], [6.0]])
    irreps = (np.ones((24, 1, 1)), a2, plane @ axis_perm @ plane.T, rot, a2 * rot)
    chi = np.vstack([np.ones(4), half.diagonal(axis1=1, axis2=2).T])
    return _CubeGroup(rot, Q, qperm, qsign, irreps, chi)


def _group_sums(Y: np.ndarray):
    """Yield sum_g D_rho(g)_jl Y[g] for each irrep rho in turn, shape
    (d, d) + Y.shape[1:].

    The 24-term sum runs as a 4-term D2 character sum within each coset and
    a sum over the 6 cosets, on the real view rather than by BLAS: with two
    BLAS threads a product this skinny costs more in thread start-up than in
    arithmetic.  For T1 and T2 each D(4q) is a signed permutation, so entry
    (j, l) takes only the two cosets where it is nonzero."""
    grp = _cube_group()
    shape = Y.shape[1:]
    Yh = np.einsum("ck,qkx->qcx", grp.chi,
                   np.ascontiguousarray(Y, dtype=complex).view(float).reshape(6, 4, -1))
    del Y   # the caller's gather is not needed past this point
    for D in grp.irreps:
        d = D.shape[1]
        yield _coset_sum(D[::4], Yh).view(complex).reshape((d, d) + shape)


def _coset_sum(Dq: np.ndarray, Yh: np.ndarray) -> np.ndarray:
    """sum_q Dq[q, j, l] Yh[q, c(l)] with the D2 character c(l) = 1 + l for
    the three-dimensional irreps, which D2 does not fix, and 0 otherwise."""
    d = Dq.shape[1]
    if d < 3:
        return np.einsum("qjl,qlx->jlx", Dq, np.broadcast_to(Yh[:, :1], (6, d, Yh.shape[2])))
    q = np.argsort(Dq == 0, axis=0, kind="stable")[:2]
    sign = np.take_along_axis(Dq, q, axis=0)
    S = np.empty((3, 3, Yh.shape[2]))
    for j, l in np.ndindex(3, 3):
        np.multiply(Yh[q[0, j, l], 1 + l], sign[0, j, l], out=S[j, l])
        S[j, l] += sign[1, j, l] * Yh[q[1, j, l], 1 + l]
    return S


def _cube_orbits(n: int):
    """Orbits of O on the n^3 grid cells, their representatives r grouped
    by stabilizer.  Returns the flat indices of the cells g.r, shape
    (24, R); those cells' grid indices, shape (24, R, 3); the number of
    orbits per stabilizer pattern, the trivial one first; and per irrep
    the orbit bases of the patterns (:func:`_orbit_bases`)."""
    grp = _cube_group()
    images = (np.einsum("gij,cj->gci", grp.rot.astype(int), 2 * _grid_index(n) - (n - 1))
              + (n - 1)) // 2
    flat = (images[..., 0] * n + images[..., 1]) * n + images[..., 2]
    reps = np.flatnonzero(flat[0] == flat.min(axis=0))
    # rows: whether rotation g fixes the cell; every row has g = 0 set, so
    # the trivial pattern sorts first
    patterns, which = np.unique((flat[:, reps] == flat[0, reps]).T, axis=0,
                                return_inverse=True)
    which = which.reshape(-1)
    reps = reps[np.argsort(which, kind="stable")]
    return (flat[:, reps], images[:, reps], np.bincount(which),
            _orbit_bases(patterns))


def _orbit_bases(patterns: np.ndarray) -> list[list]:
    """Per irrep and stabilizer pattern H (whether rotation g fixes the
    cells, shape (P, 24)), the map W/sqrt|H| of shape (d, 6, k) from an
    orbit's raw coordinates (j, a) to its k orthonormal basis vectors: the
    range of (1/|H|) sum_{h in H} D(h) (x) Q_h.  None stands for the
    identity (a free orbit, k = 6d)."""
    grp = _cube_group()
    bases = []
    for D in grp.irreps:
        d = D.shape[1]
        per = []
        for fixes in patterns:
            h = fixes.sum()
            if h == 1:
                per.append(None)
                continue
            P = np.einsum("hjl,hab->jalb", D[fixes], grp.Q[fixes]).reshape(6 * d, 6 * d) / h
            per.append((_range_basis(P) / np.sqrt(h)).reshape(d, 6, -1))
        bases.append(per)
    return bases


def _range_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the orthogonal projector P, by
    pivoted Cholesky P = L L^T: a full-rank factor of a projector has
    orthonormal columns.  What is left after each step is again a
    projector, whose largest diagonal entry is at least rank / size, so a
    fixed threshold tells the range from roundoff."""
    P = P.copy()
    cols = []
    while True:
        i = np.argmax(P.diagonal())
        if P[i, i] < 0.01:
            break
        c = P[:, i] / np.sqrt(P[i, i])
        P -= np.outer(c, c)
        cols.append(c)
    return np.array(cols).reshape(-1, P.shape[0]).T


def _basis_size(W, d: int) -> int:
    return 6 * d if W is None else W.shape[2]


def _to_basis(x: np.ndarray, counts: np.ndarray, bases: list) -> np.ndarray:
    """Map the leading raw axes (j, r, a) of ``x`` to the orthonormal orbit
    basis: W^T x, shape (K,) + x.shape[3:]."""
    d, rest = x.shape[0], x.shape[3:]
    sizes = [c * _basis_size(W, d) for c, W in zip(counts, bases)]
    out = np.empty((sum(sizes),) + rest, dtype=x.dtype)
    lo = f = 0
    for c, W, size in zip(counts, bases, sizes):
        part = x[:, lo:lo + c]
        if W is None:
            out[f:f + size].reshape(part.shape)[...] = part
        else:
            np.einsum("jra...,jak->rk...", part, W,
                      out=out[f:f + size].reshape((c, W.shape[2]) + rest))
        lo, f = lo + c, f + size
    return out


def _from_basis(x: np.ndarray, counts: np.ndarray, bases: list, d: int) -> np.ndarray:
    """Adjoint of :func:`_to_basis`: W x, shape (d, R, 6) + x.shape[1:]."""
    rest = x.shape[1:]
    out = np.empty((d, counts.sum(), 6) + rest, dtype=x.dtype)
    lo = f = 0
    for c, W in zip(counts, bases):
        size = c * _basis_size(W, d)
        part = x[f:f + size]
        if W is None:
            out[:, lo:lo + c] = part.reshape((d, c, 6) + rest)
        else:
            np.einsum("rk...,jak->jra...", part.reshape((c, W.shape[2]) + rest), W,
                      out=out[:, lo:lo + c])
        lo, f = lo + c, f + size
    return out


def _orbit_gather(blocks: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Y[g, s, b, r, a] = -[B(r - g.s) Q_g]_ab from the offset table
    ``blocks`` for the orbit representatives r, s = images[0]: 1/24 of the
    entries of the full matrix."""
    grp = _cube_group()
    span = blocks.shape[0]
    off = images[0][None, None, :, :] - images[:, :, None, :] + (span - 1) // 2
    at = (off[..., 0] * span + off[..., 1]) * span + off[..., 2]
    Y = blocks.reshape(-1, 6, 6).transpose(0, 2, 1)[at[:, :, None, :],
                                                    grp.qperm[:, None, :, None]]
    Y *= -grp.qsign[:, None, :, None, None]
    return Y


def _irrep_blocks(blocks: np.ndarray, orbits: tuple):
    """Yield, per irrep of O in turn, its block A = I + W^T M W of I - K
    (None for an empty block), Fortran-ordered so that LAPACK factors it in
    place.  ``orbits`` is what :func:`_cube_orbits` returns."""
    _, images, counts, bases = orbits
    for M, W in zip(_group_sums(_orbit_gather(blocks, images)), bases):
        # A[(j,r,a),(l,s,b)] = M[j,l,s,b,r,a]; built as the C-ordered A^T
        At = _to_basis(_to_basis(M.transpose(0, 4, 5, 1, 2, 3), counts, W)
                       .transpose(1, 2, 3, 0), counts, W)
        if At.size == 0:
            yield None
            continue
        At[np.diag_indices(At.shape[0])] += 1.0
        yield At.T


def _lu_solve_system(blocks: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, list[int]]:
    """Solve (I - K) u = b by LU of the five irrep blocks of O, each once
    for its d right-hand sides.  Returns u; the 1-norm condition estimate
    of the block-diagonal form, max ||A_rho||_1 * max ||A_rho^-1||_1; and
    the block sizes in irrep order (A1, A2, E, T1, T2)."""
    n = (blocks.shape[0] + 1) // 2
    grp = _cube_group()
    orbits = _cube_orbits(n)
    at, _, counts, bases = orbits
    b6 = b.reshape(-1, 6)
    # raw right-hand sides sum_g D(g)_ij Q_g^T b[g.r], axes (i, j, r, a)
    rhs = _group_sums(np.einsum("gca,grc->gra", grp.Q, b6[at]))
    z = np.zeros(at.shape + (6,), dtype=complex)
    anorm, inv_norm, sizes = 0.0, 0.0, []
    for D, r, W, A in zip(grp.irreps, rhs, bases, _irrep_blocks(blocks, orbits)):
        sizes.append(0 if A is None else A.shape[0])
        if A is None:
            continue
        d = D.shape[1]
        norm = float(np.linalg.norm(A, 1))
        lu, piv = scipy.linalg.lu_factor(A, overwrite_a=True)
        x = scipy.linalg.lu_solve((lu, piv), _to_basis(r.transpose(1, 2, 3, 0), counts, W))
        rcond, info = scipy.linalg.lapack.zgecon(lu, norm)
        anorm = max(anorm, norm)
        inv_norm = max(inv_norm, 1.0 / (rcond * norm) if info == 0 and rcond > 0
                       else float("inf"))
        # u[g.r] = sum over irreps of (d/24) sum_ij D(g)_ij Q_g (W x_i)[j, r]
        z += (d / 24) * np.einsum("gij,jrai->gra", D, _from_basis(x, counts, W, d))
    u6 = np.zeros(b6.shape, dtype=complex)
    np.add.at(u6, at, np.einsum("gca,gra->grc", grp.Q, z))
    return u6.reshape(-1), anorm * inv_norm, sizes


def _solve_grid(blocks: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, dict]:
    """Solve (I - K) u = b for the grid operator K with offset table
    ``blocks`` over the n^3 grid cells.

    Fixed-point sweeps u <- b + K u, each one FFT product, run with a
    divergence check; if they stall, a system up to the dense cap falls
    back to the LU of its five symmetry blocks, whose sizes the report
    lists under "blocks" in irrep order (0 for an irrep with no basis
    vectors).  The residual is taken with the FFT product either way, so
    the LU may overwrite its blocks, and it certifies the blocked solve.
    Returns u and the solver report."""
    size = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report = {"residual": 0.0, "condition_estimate": 1.0, "size": size,
                  "method": "trivial", "iterations": 0}
        return np.zeros_like(b), report
    apply_K = _fft_apply(blocks)
    u = b.copy()
    last_update = float("inf")
    growth = 0
    for iterations in range(1, _MAX_SWEEPS + 1):
        nxt = b + apply_K(u)
        update = float(np.linalg.norm(nxt - u)) / bnorm
        u = nxt
        if update < 0.1 * tol:
            break
        growth = growth + 1 if update > last_update else 0
        last_update = update
        if growth >= 3:
            break
    method = "iteration"
    cond = float("nan")
    if not update < 0.1 * tol:
        if size > _DIRECT_CAP:
            raise FoldyError(
                f"fixed-point iteration did not converge in {iterations} sweeps "
                f"(last update {last_update:.3e}); system of size {size} is beyond "
                f"the dense fallback cap {_DIRECT_CAP}")
        u, cond, sizes = _lu_solve_system(blocks, b)
        method = "lu"
    resid = float(np.linalg.norm(u - b - apply_K(u))) / bnorm
    if not resid < tol:
        raise FoldyError(
            f"grid solve residual {resid:.3e} >= {tol} (method {method}, "
            f"condition estimate {cond:.3e})")
    report = {"residual": resid, "condition_estimate": cond, "size": size,
              "method": method, "iterations": iterations}
    if method == "lu":
        report["blocks"] = sizes
    return u, report


def _solve_cells(bg: ChiralBackground, tilde: TildeParams, n: int, eta: float,
                 incident: PlaneWaveSpec, zero_self: bool) -> GridState:
    """The grid problem that the lattice and the volume share: coupling
    T6 from the tilde parameters, cell weight 1/n^3 and the incident field
    at :func:`cell_centers`."""
    T6 = np.kron(coupling_from_tilde(tilde, bg.omega), _I3)
    b = incident_six(bg, incident, cell_centers(n)).reshape(-1)
    blocks = _offset_blocks(bg, n, eta, T6, 1.0 / n ** 3, zero_self)
    u, report = _solve_grid(blocks, b, 1e-10)
    return GridState(n=n, values=u.reshape(-1, 6), eta=eta, solver_report=report,
                     coupling=T6, incident=incident)


def solve_foldy(bg: ChiralBackground, lattice: ParticleLattice, tilde: TildeParams,
                eta: float, incident: PlaneWaveSpec) -> GridState:
    """Solve the self-consistent point-interaction system on the lattice.

    Diagonal blocks are the identity; off-diagonal blocks couple particle
    pairs through the regularized fundamental dyadic times the coupling
    matrix of ``tilde`` (:func:`coupling_from_tilde`), weighted by one
    over the particle count.
    """
    N = lattice.n_per_axis
    _check_axis(N)
    if not eta >= 0:
        raise FoldyError(f"eta must be nonnegative, got {eta}")
    # eta = 0 is fine here: self blocks are masked out, and distinct
    # centers keep the kernel regular
    return _solve_cells(bg, tilde, N, eta, incident, zero_self=True)


def solve_homogenized_ls(bg: ChiralBackground, tilde: TildeParams, grid_m: int,
                         eta: float, incident: PlaneWaveSpec) -> GridState:
    """Solve the volume fixed-point equation on an m^3 cell grid.

    Midpoint quadrature with cell weight 1/m^3; the self cell is kept
    (the regularized kernel is finite at the origin, so eta must be
    positive).  The lattice solve shares this grid problem
    (``_solve_cells``).
    """
    if not 1 <= grid_m <= _MAX_AXIS:
        raise FoldyError(f"grid_m must lie in [1, {_MAX_AXIS}], got {grid_m}")
    if not eta > 0:
        raise FoldyError("volume discretization needs eta > 0 (self cell)")
    return _solve_cells(bg, tilde, grid_m, eta, incident, zero_self=False)


def _eval_field(bg: ChiralBackground, state: GridState, x) -> np.ndarray:
    """Total (E, H) at points ``x``: the incident field plus the retarded
    sum over the cells of ``state``, each of weight 1/n^3."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    src = state.centers
    weight = 1.0 / src.shape[0]
    tv = state.values @ state.coupling.T
    out = incident_six(bg, state.incident, pts)
    step = max(1, _CHUNK_ELEMS // src.shape[0])
    for lo in range(0, pts.shape[0], step):
        hi = min(lo + step, pts.shape[0])
        rel = pts[lo:hi, None, :] - src[None, :, :]
        out[lo:hi] += weight * bg.omega * green_apply(bg, rel, tv, eta=state.eta)
    return out.reshape(x.shape[:-1] + (6,))


# two functions, not one under two names: a wrapper on one name sees its calls only
def eval_foldy_field(bg: ChiralBackground, state: GridState, x) -> np.ndarray:
    """Total (E, H) of a lattice solution at points ``x``.  With eta = 0
    the points must avoid the centers (the kernel raises on a singular
    hit)."""
    return _eval_field(bg, state, x)


def eval_homogenized_field(bg: ChiralBackground, state: GridState, x) -> np.ndarray:
    """Total (E, H) of the volume solution at points ``x``."""
    return _eval_field(bg, state, x)


# ---------------------------------------------------------------------------
# lattice diagnostics


def _smooth_test_pair(z: np.ndarray) -> np.ndarray:
    """Fixed smooth 6-vector test field: low-order polynomial envelopes
    times one plane wave.  Deterministic; used only by the distribution
    diagnostic."""
    z = np.atleast_2d(z)
    phase = np.exp(1j * (z @ np.array([0.7, -0.4, 1.1])))
    x, y, w = z[:, 0], z[:, 1], z[:, 2]
    env = np.stack([
        1.0 + 0.0 * x,
        x,
        y - 0.5 * w,
        0.5 + x * y,
        w,
        1.0 - 0.25 * (x + y + w),
    ], axis=-1)
    return env * phase[:, None]


def _table_apply(bg: ChiralBackground, table: list, D: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Sum over c of G_eta(D_c / (8N)) F_c for nonzero integer offsets D
    (C, 3), the branch scalars read from ``table`` at index |D_c|^2 - 1."""
    k = np.einsum("ci,ci->c", D, D)
    xh = D / np.sqrt(k)[:, None]
    at = k - 1
    branches = [(gamma, h, sign, a[at], b[at], g1[at]) for gamma, h, sign, a, b, g1 in table]
    return _contract(bg, xh, branches, F)


def check_distribution(lattice: ParticleLattice, bg: ChiralBackground, eta: float,
                       probe_count: int = 8) -> float:
    """Sup over sampled lattice sites of |lattice average - volume integral|
    of the regularized kernel applied to a fixed test pair.

    The volume integral uses a four-times-finer midpoint grid whose nodes
    never coincide with lattice centers; the test pair is polynomial
    envelopes times a plane wave.  Shrinks
    as the lattice refines once the regularization scale eta/(4 pi) is
    comparable to the lattice spacing; below that scale the kernel varies
    faster than either grid resolves.

    In units of 1/(8N) the lattice centers sit at 8i + 4 and the fine nodes
    at 2f + 1, so every offset either sum takes is an integer vector: 8(i' - i)
    between lattice centers, 2f - 8i - 3 (odd on every axis, never zero) from
    a center to a fine node.  The dyadic's radial scalars are therefore
    evaluated once per squared length k = 1 ... 3(8N)^2, and every probe and
    both sums read that table.
    """
    if probe_count < 1:
        raise FoldyError(f"probe_count must be at least 1, got {probe_count}")
    N = lattice.n_per_axis
    _check_axis(N)
    n = lattice.centers.shape[0]
    lat = 8 * _grid_index(N) + 4
    fine = 2 * _grid_index(4 * N) + 1
    F_lat = _smooth_test_pair(lattice.centers)
    F_fine = _smooth_test_pair(cell_centers(4 * N))
    table = _radial(bg, np.sqrt(np.arange(1, 3 * (8 * N) ** 2 + 1)) / (8 * N), eta)
    js = np.unique(np.linspace(0, n - 1, min(probe_count, n)).round().astype(int))
    worst = 0.0
    for j in js:
        rel = lat - lat[j]
        keep = rel.any(axis=-1)
        lat_sum = _table_apply(bg, table, rel[keep], F_lat[keep]) / n
        ref = _table_apply(bg, table, fine - lat[j], F_fine) / fine.shape[0]
        worst = max(worst, float(np.linalg.norm(lat_sum - ref)))
    return worst


def uniform_invertibility_stat(lattice: ParticleLattice, bg: ChiralBackground) -> float:
    """Mean squared Frobenius norm of the unregularized pair kernel,
    (1/N^6) sum over distinct pairs of ||G(z_i - z_j)||_F^2.

    Summed over the distinct offsets d, each weighted by its number of
    center pairs prod_k (N - |d_k|)."""
    N = lattice.n_per_axis
    if N < 2:
        raise FoldyError("pair statistic needs at least 2 per axis")
    _check_axis(N)
    norms = np.sum(np.abs(_offset_kernel(bg, N, 0.0, zero_self=True)) ** 2, axis=(-2, -1))
    r = N - np.abs(np.arange(-(N - 1), N))
    pairs = r[:, None, None] * r[None, :, None] * r[None, None, :]
    return float(np.sum(pairs * norms)) / N ** 6


def probe_ring(count: int = 16) -> np.ndarray:
    """Deterministic ring of probe points at radius 3 around the unit-cube
    center, tilted off the coordinate planes to avoid symmetry
    cancellations."""
    u = np.array([1.0, 0.3, -0.2])
    u /= np.linalg.norm(u)
    vref = np.array([-0.1, 0.9, 0.45])
    v = vref - np.dot(vref, u) * u
    v /= np.linalg.norm(v)
    th = 2.0 * np.pi * np.arange(count) / count + 0.37
    return 0.5 + 3.0 * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)


@dataclass(frozen=True)
class CompareRow:
    n_per_axis: int
    rel_l2_error: float
    eta: float
    eps_c: complex


def compare_homogenization(bg: ChiralBackground, cfg: DiluteConfig,
                           spectrum: NPSpectrum, eps_c: complex, N_list, eta: float,
                           probes, grid_m: int = 10, mode_index: int = 0,
                           incident: PlaneWaveSpec | None = None) -> list[CompareRow]:
    """Probe-field error of each lattice against one volume reference.

    The coupling is computed once from the reference config and shared by
    every lattice solve and the volume solve, so the error isolates the
    lattice-average-versus-integral discrepancy at fixed material.
    Errors are relative L2 norms over the probe set of the scattered
    (incident-subtracted) fields.
    """
    from .background import circular_wave

    if incident is None:
        incident = circular_wave(np.array([0.0, 0.0, 1.0]), "left")
    tilde = tilde_from_definition(bg, eps_c, cfg, spectrum, mode_index=mode_index)
    probes = np.asarray(probes, dtype=float).reshape(-1, 3)
    hom = solve_homogenized_ls(bg, tilde, grid_m, eta, incident)
    inc_p = incident_six(bg, incident, probes)
    scat_h = eval_homogenized_field(bg, hom, probes) - inc_p
    ref_norm = float(np.linalg.norm(scat_h))
    if ref_norm == 0.0:
        raise FoldyError("volume reference scattered field vanished at the probes")
    rows = []
    for N in N_list:
        lat = build_lattice(int(N), cfg)
        state = solve_foldy(bg, lat, tilde, eta, incident)
        scat_f = eval_foldy_field(bg, state, probes) - inc_p
        rows.append(CompareRow(
            n_per_axis=int(N),
            rel_l2_error=float(np.linalg.norm(scat_f - scat_h)) / ref_norm,
            eta=float(eta), eps_c=complex(eps_c)))
    return rows
