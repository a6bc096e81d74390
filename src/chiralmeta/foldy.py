"""Point-interaction lattice solver and its homogenized volume reference.

A regular N^3 lattice of coupled point dipoles in the unit cube is
solved self-consistently (each particle is driven by the incident field
plus the fields of all others, with a regularized kernel).  The same
coupling constant drives a volume fixed-point equation on an m^3 grid;
comparing probe fields of the two is the convergence experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .background import (ChiralBackground, PlaneWaveSpec, green_apply, green_dyadic,
                         incident_six)
from .effective import DiluteConfig, TildeParams, coupling_from_tilde, coupling_matrix, \
    tilde_from_definition
from .np_spectral import NPSpectrum

_I3 = np.eye(3)

# block-row chunking caps one green_apply call at this many (probe, center)
# pairs: its per-pair scalars, coefficient rows and products peak at about
# 400 bytes per pair, 79 MB for a full chunk by tracemalloc (the 6x6 blocks
# it replaced peaked at 210 MB)
_CHUNK_ELEMS = 200_000
# largest system handed to the LU fallback: at grid_m 9 (4,374 unknowns) its
# four symmetry blocks take 0.4-0.6 s in all, 0.2 s of it LU, and peak at
# 125 MB by tracemalloc (2 threads)
_DIRECT_CAP = 4500
# fixed-point sweeps before the grid solve falls back to LU or fails
_MAX_SWEEPS = 200
# cells per axis of a lattice or volume grid; the FFT table of the grid
# operator holds (2n)^3 complex 6x6 blocks, 64 MB at n = 24
_MAX_AXIS = 24


class FoldyError(RuntimeError):
    """Lattice or volume solve failed."""


@dataclass(frozen=True)
class ParticleLattice:
    """Regular lattice of point scatterers filling the unit cube.

    The centers may come in any order and at any offset of the grid
    inside the cube; ``cells`` (derived, not passed) holds the integer
    grid index of each center.
    """

    n_per_axis: int
    centers: np.ndarray
    cfg: DiluteConfig
    cells: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "centers", c)
        N = self.n_per_axis
        if N < 1:
            raise FoldyError(f"n_per_axis must be at least 1, got {N}")
        if c.shape[0] != N ** 3:
            raise FoldyError(f"expected {N ** 3} centers, got {c.shape[0]}")
        if np.any(c <= 0.0) or np.any(c >= 1.0):
            raise FoldyError("lattice centers must be interior to the unit cube")
        spacing = 1.0 / N
        origin = c.min(axis=0)
        cells = np.rint((c - origin) * N).astype(int)
        off_grid = float(np.abs(c - origin - cells * spacing).max())
        if off_grid > 1e-12 or cells.max() >= N or len(np.unique(cells, axis=0)) != N ** 3:
            raise FoldyError(
                f"centers are not a permutation of a grid of spacing {spacing:.6e} "
                f"(largest distance from the grid {off_grid:.3e})")
        object.__setattr__(self, "cells", cells)


def _grid_index(n: int) -> np.ndarray:
    """Integer indices (i, j, k) of the n^3 grid cells, last axis fastest."""
    r = np.arange(n)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def cell_centers(n: int) -> np.ndarray:
    """Centers ((i-1/2)/n, (j-1/2)/n, (k-1/2)/n) of the n^3 grid cells,
    first axis fastest-varying last."""
    return (_grid_index(n) + 0.5) / n


def build_lattice(n_per_axis: int, cfg: DiluteConfig) -> ParticleLattice:
    """Lattice with the config rescaled to this particle count.

    Re-deriving the config revalidates the dilution invariant for the
    new count, so particle size always tracks the lattice.
    """
    cfg_n = dataclasses.replace(cfg, n_per_axis=n_per_axis)
    return ParticleLattice(n_per_axis=n_per_axis, centers=cell_centers(n_per_axis), cfg=cfg_n)


@dataclass(frozen=True)
class FoldyState:
    """Local (E, H) 6-vectors at the lattice centers after the solve."""

    values: np.ndarray
    eta: float
    solver_report: dict
    coupling: np.ndarray
    incident: PlaneWaveSpec


@dataclass(frozen=True)
class HomogenizedState:
    """Volume field table of the homogenized fixed-point equation."""

    grid_m: int
    centers: np.ndarray
    values: np.ndarray
    eta: float
    solver_report: dict
    coupling: np.ndarray
    incident: PlaneWaveSpec


def _coupling6(bg: ChiralBackground, lattice_cfg: DiluteConfig, eps_c: complex,
               spectrum: NPSpectrum | None, tilde: TildeParams | None,
               mode_index: int) -> np.ndarray:
    """6x6 per-particle coupling; explicit tilde overrides the finite-count
    coupling derived from the lattice config."""
    if tilde is not None:
        T2 = coupling_from_tilde(tilde, bg.omega)
    else:
        if spectrum is None:
            raise FoldyError("need a spectrum (or explicit tilde) for the coupling")
        clusters = spectrum.clusters()
        if not 0 <= mode_index < len(clusters):
            raise FoldyError(
                f"mode_index {mode_index} out of range for {len(clusters)} clusters")
        T2 = coupling_matrix(bg, eps_c, lattice_cfg, clusters[mode_index].eigenvalue)
    return np.kron(T2, _I3)


# ---------------------------------------------------------------------------
# block-Toeplitz grid operator
#
# Both the lattice and the volume system couple the cells of a regular n^3
# grid through K = weight * omega * G_eta(x_i - x_j) @ T6.  The kernel
# depends on the cell offset x_i - x_j only, so it is evaluated once per
# offset, (2n-1)^3 points instead of n^6, and every use of K reads that
# table: gathered into symmetry blocks for LU, or applied by FFT.


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


def _fft_apply(blocks: np.ndarray, cells: np.ndarray):
    """u -> K u over the cells with integer grid indices ``cells`` (all in
    [0, n)^3), as a linear convolution by a zero-padded (2n)^3 FFT:
    O(n^3 log n) per product.  A product transforms one axis at a time,
    so it skips the lines that hold only padding on the way in and the
    lines that no cell reads on the way out: 7/12 of the work of a full
    (2n)^3 transform each way."""
    n = (blocks.shape[0] + 1) // 2
    L = 2 * n
    # circular embedding: offset d sits at d mod L; offset +-n stays zero
    wrap = np.arange(-(n - 1), n) % L
    c = np.zeros((L, L, L, 6, 6), dtype=complex)
    c[np.ix_(wrap, wrap, wrap)] = blocks
    c_hat = np.fft.fftn(c, axes=(0, 1, 2))
    at = tuple(cells.T)

    def apply(u: np.ndarray) -> np.ndarray:
        g = np.zeros((n, n, n, 6), dtype=complex)
        g[at] = u.reshape(-1, 6)
        for axis in (2, 1, 0):   # fft(..., n=L) zero-pads the axis to L
            g = np.fft.fft(g, n=L, axis=axis)
        g = np.einsum("...ij,...j->...i", c_hat, g)
        for axis in (0, 1, 2):   # only the first n outputs of an axis are read
            g = np.fft.ifft(g, axis=axis)[(slice(None),) * axis + (slice(n),)]
        return g[at].reshape(-1)

    return apply


# ---------------------------------------------------------------------------
# symmetry blocks of the grid operator
#
# The chiral background breaks mirror symmetry, not rotation symmetry:
# G_eta(R d) = (R+R) G_eta(d) (R+R)^T for a proper rotation R, and T6 acts on
# the E/H pair only, so it commutes with R+R.  The three 180-degree rotations
# about the axes through the grid centre map every n^3 grid onto itself.
# Rotation g reverses two cell axes and flips the same two components of E and
# of H (the diagonal signs S_g), so the offset table obeys
# B(R_g d) = S_g B(d) S_g, and I - K splits into one block per character chi
# of this group D2, in the basis of signed orbit sums: cell g.r carries
# chi(g) S_g[a] / sqrt|O_r| for orbit representative r and component a.


def _d2_transform(a: np.ndarray) -> np.ndarray:
    """In place over the first axis (length 4): a[x] <- sum_g chi_x(g) a[g],
    with the characters chi_x(g) = (-1)^popcount(x & g) of D2 and the
    elements g = identity, C2x, C2y, C2z.  Applied twice it gives 4a."""
    diff = np.empty_like(a[0])
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3)):
        np.subtract(a[i], a[j], out=diff)
        a[i] += a[j]
        a[j] = diff
    return a


def _d2_orbits(cells: np.ndarray, n: int):
    """Orbits of D2 on the grid cells ``cells`` (a permutation of the n^3
    grid).  Returns the cells g.r of the orbit representatives r, shape
    (4, R, 3); their positions in ``cells``, shape (4, R); the signs S_g,
    shape (4, 6); the stabilizer order |H_r|; and keep[x, r, a], whether
    pair (r, a) carries a basis vector of block x: at a cell that a rotation
    h fixes, only chi_x(h) S_h[a] = 1 survives the orbit sum."""
    flips = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    signs = 1.0 - 2.0 * np.tile(flips, 2)
    images = np.where(flips[:, None, :], n - 1 - cells, cells)
    flat = (images[..., 0] * n + images[..., 1]) * n + images[..., 2]
    pos = np.empty(n ** 3, dtype=int)
    pos[flat[0]] = np.arange(cells.shape[0])
    reps = np.flatnonzero(flat[0] == flat.min(axis=0))
    fixed = flat[:, reps] == flat[0, reps]
    chars = _d2_transform(np.eye(4))
    survives = chars[:, :, None] * signs[None, :, :] == 1.0           # (x, h, a)
    keep = np.all(~fixed[None, :, :, None] | survives[:, :, None, :], axis=1)
    return images[:, reps], pos[flat[:, reps]], signs, fixed.sum(axis=0), keep


def _symmetry_blocks(blocks: np.ndarray, orbits: tuple):
    """Yield, per character x of D2, the kept (representative, component)
    indices r * 6 + a and the block A_x of I - K over them (None for an
    empty block), Fortran-ordered so LAPACK can factor it in place.  Where
    every pair is kept (all of even n) A_x is a view of the combined
    gather, so the blocks take no memory beyond it.

    A_x[(r,a),(s,b)] = sum_h chi_x(h) (I - K)[r, h.s]_ab S_h[b]
    / sqrt(|H_r| |H_s|), gathered from the offset table for representative
    pairs only (a quarter of the full matrix) and combined in place.
    ``orbits`` is what :func:`_d2_orbits` returns."""
    reps, _, signs, stab, keep = orbits
    span = blocks.shape[0]
    flat = blocks.reshape(-1, 6, 6)
    R = reps.shape[1]
    w = 1.0 / np.sqrt(stab)
    # signed gathers W[h][s, b, r, a] = -S_h[b] K[r, h.s]_ab w_r w_s
    W = np.empty((4, R, 6, R, 6), dtype=complex)
    for h in range(4):
        d = reps[0][None, :, :] - reps[h][:, None, :] + (span - 1) // 2
        coef = -(w[:, None, None, None] * signs[h][None, :, None, None]
                 * w[None, None, :, None])
        np.multiply(flat[(d[..., 0] * span + d[..., 1]) * span + d[..., 2]]
                    .transpose(0, 3, 1, 2), coef, out=W[h])
    _d2_transform(W)
    for x in range(4):
        k = np.flatnonzero(keep[x])
        if k.size == 0:
            yield k, None
            continue
        A = W[x].reshape(6 * R, 6 * R)
        if k.size < A.shape[0]:
            A = A[np.ix_(k, k)]
        A = A.T
        A[np.diag_indices(k.size)] += 1.0
        yield k, A


def _lu_solve_system(blocks: np.ndarray, cells: np.ndarray,
                     b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (I - K) u = b by LU of the four D2 symmetry blocks; returns u and
    the 1-norm condition estimate of the block-diagonal form,
    max_x ||A_x||_1 * max_x ||A_x^-1||_1."""
    n = (blocks.shape[0] + 1) // 2
    orbits = _d2_orbits(cells, n)
    _, at, signs, stab, _ = orbits
    b6 = b.reshape(-1, 6)
    # b_x = V_x^T b: signed orbit sums over g, scaled by 1/sqrt|O_r|
    root = np.sqrt(stab)[None, :, None]
    rhs = _d2_transform(signs[:, None, :] * b6[at]) * (0.5 / root)
    sol = np.zeros_like(rhs)
    anorm, inv_norm = 0.0, 0.0
    for x, (k, A) in enumerate(_symmetry_blocks(blocks, orbits)):
        if A is None:
            continue
        norm = float(scipy.linalg.lapack.zlange("1", A))
        lu, piv = scipy.linalg.lu_factor(A, overwrite_a=True)
        sol[x].reshape(-1)[k] = scipy.linalg.lu_solve((lu, piv), rhs[x].reshape(-1)[k])
        rcond, info = scipy.linalg.lapack.zgecon(lu, norm)
        anorm = max(anorm, norm)
        inv_norm = max(inv_norm, 1.0 / (rcond * norm) if info == 0 and rcond > 0
                       else float("inf"))
    # u = sum_x V_x sol_x, written to every cell g.r of each orbit
    u = np.empty_like(b6)
    u[at] = signs[:, None, :] * _d2_transform(sol) * (0.5 * root)
    return u.reshape(-1), anorm * inv_norm


def _solve_grid(blocks: np.ndarray, cells: np.ndarray, b: np.ndarray,
                tol: float) -> tuple[np.ndarray, dict]:
    """Solve (I - K) u = b for the grid operator K with offset table
    ``blocks`` over the cells with integer grid indices ``cells``.

    Fixed-point sweeps u <- b + K u, each one FFT product, run with a
    divergence check; if they stall, a system up to the dense cap falls
    back to the LU of its four symmetry blocks.  The residual is taken
    with the FFT product either way, so the LU may overwrite its blocks,
    and it certifies the blocked solve.  Returns u and the solver report."""
    size = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        report = {"residual": 0.0, "condition_estimate": 1.0, "size": size,
                  "method": "trivial", "iterations": 0}
        return np.zeros_like(b), report
    apply_K = _fft_apply(blocks, cells)
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
        u, cond = _lu_solve_system(blocks, cells, b)
        method = "lu"
    resid = float(np.linalg.norm(u - b - apply_K(u))) / bnorm
    if not resid < tol:
        raise FoldyError(
            f"grid solve residual {resid:.3e} >= {tol} (method {method}, "
            f"condition estimate {cond:.3e})")
    report = {"residual": resid, "condition_estimate": cond, "size": size,
              "method": method, "iterations": iterations}
    return u, report


def solve_foldy(bg: ChiralBackground, lattice: ParticleLattice, eps_c: complex,
                spectrum: NPSpectrum | None, incident: PlaneWaveSpec,
                eta: float | None = None, tilde: TildeParams | None = None,
                mode_index: int = 0) -> FoldyState:
    """Solve the self-consistent point-interaction system on the lattice.

    Diagonal blocks are the identity; off-diagonal blocks couple particle
    pairs through the regularized fundamental dyadic times the shared
    coupling matrix, weighted by one over the particle count.  ``tilde``
    switches the coupling from the finite-count value to an explicit
    (e.g. limiting) one.  ``eta`` defaults to a tenth of the lattice
    spacing.
    """
    N = lattice.n_per_axis
    if N > _MAX_AXIS:
        raise FoldyError(f"lattice count per axis {N} exceeds {_MAX_AXIS}")
    if eta is None:
        eta = 0.1 / N
    if eta < 0:
        raise FoldyError(f"eta must be nonnegative, got {eta}")
    T6 = _coupling6(bg, lattice.cfg, eps_c, spectrum, tilde, mode_index)
    b = incident_six(bg, incident, lattice.centers).reshape(-1)
    n = lattice.centers.shape[0]
    # eta = 0 is fine here: self blocks are masked out, and distinct
    # centers keep the kernel regular
    blocks = _offset_blocks(bg, N, eta, T6, 1.0 / n, zero_self=True)
    u, report = _solve_grid(blocks, lattice.cells, b, 1e-10)
    return FoldyState(values=u.reshape(n, 6), eta=eta, solver_report=report,
                      coupling=T6, incident=incident)


def _eval_field(bg, src_pts, weight, eta, T6, values, incident, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    tv = values @ T6.T
    out = incident_six(bg, incident, pts)
    step = max(1, _CHUNK_ELEMS // max(src_pts.shape[0], 1))
    for lo in range(0, pts.shape[0], step):
        hi = min(lo + step, pts.shape[0])
        rel = pts[lo:hi, None, :] - src_pts[None, :, :]
        out[lo:hi] += weight * bg.omega * green_apply(bg, rel, tv, eta=eta)
    return out[0] if single else out.reshape(x.shape[:-1] + (6,))


def eval_foldy_field(bg: ChiralBackground, lattice: ParticleLattice,
                     state: FoldyState, x) -> np.ndarray:
    """Total (E, H) at points ``x``: incident plus the coupled retarded
    sum over the lattice.  With eta = 0 the points must avoid the
    centers (the kernel raises on a singular hit)."""
    n = lattice.centers.shape[0]
    return _eval_field(bg, lattice.centers, 1.0 / n, state.eta, state.coupling,
                       state.values, state.incident, x)


def solve_homogenized_ls(bg: ChiralBackground, tilde: TildeParams, grid_m: int,
                         eta: float, incident: PlaneWaveSpec,
                         tol: float = 1e-10) -> HomogenizedState:
    """Solve the volume fixed-point equation on an m^3 cell grid.

    Midpoint quadrature with cell weight 1/m^3; the self cell is kept
    (the regularized kernel is finite at the origin, so eta must be
    positive).  The lattice solve shares the grid solve (``_solve_grid``).
    """
    if not 1 <= grid_m <= _MAX_AXIS:
        raise FoldyError(f"grid_m must lie in [1, {_MAX_AXIS}], got {grid_m}")
    if not eta > 0:
        raise FoldyError("volume discretization needs eta > 0 (self cell)")
    T6 = np.kron(coupling_from_tilde(tilde, bg.omega), _I3)
    pts = cell_centers(grid_m)
    n = pts.shape[0]
    b = incident_six(bg, incident, pts).reshape(-1)
    blocks = _offset_blocks(bg, grid_m, eta, T6, 1.0 / n, zero_self=False)
    u, report = _solve_grid(blocks, _grid_index(grid_m), b, tol)
    return HomogenizedState(grid_m=grid_m, centers=pts, values=u.reshape(n, 6),
                            eta=eta, solver_report=report, coupling=T6,
                            incident=incident)


def eval_homogenized_field(bg: ChiralBackground, hom: HomogenizedState, x) -> np.ndarray:
    """Total (E, H) of the volume solution at points ``x``."""
    n = hom.centers.shape[0]
    return _eval_field(bg, hom.centers, 1.0 / n, hom.eta, hom.coupling,
                       hom.values, hom.incident, x)


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
    """
    if probe_count < 1:
        raise FoldyError(f"probe_count must be at least 1, got {probe_count}")
    N = lattice.n_per_axis
    n = lattice.centers.shape[0]
    fine = cell_centers(4 * N)
    F_lat = _smooth_test_pair(lattice.centers)
    F_fine = _smooth_test_pair(fine)
    js = np.unique(np.linspace(0, n - 1, min(probe_count, n)).round().astype(int))
    worst = 0.0
    for j in js:
        zj = lattice.centers[j]
        rel = lattice.centers - zj
        keep = np.linalg.norm(rel, axis=-1) > 1e-14
        lat_sum = green_apply(bg, rel[keep], F_lat[keep], eta=eta) / n
        ref = green_apply(bg, fine - zj, F_fine, eta=eta) / fine.shape[0]
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
        state = solve_foldy(bg, lat, eps_c, spectrum, incident, eta=eta,
                            tilde=tilde, mode_index=mode_index)
        scat_f = eval_foldy_field(bg, lat, state, probes) - inc_p
        rows.append(CompareRow(
            n_per_axis=int(N),
            rel_l2_error=float(np.linalg.norm(scat_f - scat_h)) / ref_norm,
            eta=float(eta), eps_c=complex(eps_c)))
    return rows
