"""Per-mode response matrices and the particle polarization tensor.

Each surface mode of the particle contributes a 2x2 electric/magnetic
response matrix whose inverse blows up when the particle permittivity
approaches a mode-specific negative resonant value.  Summing the mode
contributions weighted by dipole moment outer products gives the 6x6
polarization tensor of the particle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .background import ChiralBackground, mat2x2, matmul2x2
from .mesh import TriMesh, signed_volume
from .np_spectral import NPSpectrum

class SingularModeError(RuntimeError):
    """A mode response matrix is singular (resonance hit exactly)."""


class RootFindError(RuntimeError):
    """Resonance root search failed."""


@dataclass(frozen=True)
class ModeParams:
    """Scalar parameters entering every mode response matrix.

    The electric row of A reads ``lambda_eps`` and ``d_eps``.  The
    magnetic row is the paper's times ``c`` = 1 - t (t = ``bg.dbf_factor``),
    which clears its denominator mu_m (1 - t): it reads ``c`` and
    ``c_d_mu`` = eps_m beta t, which is c times the paper's d_mu.  At
    beta = 0, c = 0 and that row keeps only its diagonal 1: the achiral
    limit, in which the magnetic response goes away.
    """

    lambda_eps: complex
    d_eps: complex
    c: float
    c_d_mu: float


@dataclass(frozen=True)
class PolarizationTensor:
    M: np.ndarray        # 6x6, blocks (EE, EH; HE, HH)
    M_tilde: np.ndarray  # volume*I6 + M
    volume: float


def flag_or_raise(bad, failed: np.ndarray | None, exc: type[Exception], message) -> None:
    """Report a failed predicate of a formula evaluated scalar or elementwise.

    With ``failed`` None (a scalar evaluation) a true ``bad`` raises
    ``exc(message())``.  An elementwise evaluation passes its boolean mask
    as ``failed``; ``bad`` is or-ed into it and the other points carry on.
    """
    if failed is None:
        if np.any(bad):
            raise exc(message())
    else:
        failed |= bad


def mode_params(bg: ChiralBackground, eps_c: complex, *,
                failed: np.ndarray | None = None) -> ModeParams:
    """Scalar mode parameters for particle permittivity ``eps_c``.

    The particle is non-magnetic, so the mu-branch formulas take the
    background permeability, which cancels from the scaled magnetic row.
    An array ``eps_c`` gives arrays of parameters; a vanishing electric
    denominator then marks its points in ``failed`` (see
    :func:`flag_or_raise`).
    """
    t = bg.dbf_factor
    eps_den = eps_c - bg.eps_m * t
    flag_or_raise(
        abs(eps_den) < 1e-14 * np.maximum(abs(eps_c), abs(bg.eps_m * t)), failed,
        SingularModeError,
        lambda: f"eps_c = {eps_c} makes the electric denominator "
                "eps_c - eps_m*(1+gamma^2 beta^2) vanish")
    # c = 1 - t as -(k beta)^2 t: the difference 1 - t cancels for small k*beta
    return ModeParams(lambda_eps=(eps_c + bg.eps_m * t) / (2.0 * eps_den),
                      d_eps=bg.eps_m * bg.mu_m * bg.beta_m * t / eps_den,
                      c=-(bg.k * bg.beta_m) ** 2 * t, c_d_mu=bg.eps_m * bg.beta_m * t)


def _response_entries(params: ModeParams, lambda_n: float, omega: float) -> tuple:
    """Entries (a, b, c, d) of the 2x2 response matrix [[a, b], [c, d]] at
    eigenvalue lambda_n, its magnetic row scaled by ``params.c``."""
    v = 0.5 + lambda_n
    return (params.lambda_eps - lambda_n, 1j * omega * params.d_eps * v,
            -1j * omega * params.c_d_mu * v, 1.0 - params.c * v)


def _det2(a, b, c, d):
    """Determinant of [[a, b], [c, d]]."""
    return a * d - b * c


def mode_response(bg: ChiralBackground, eps_c: complex, lambda_n: float, *,
                  failed: np.ndarray | None = None) -> np.ndarray:
    """Coefficient blocks of the mode response at eigenvalue lambda_n for
    particle permittivity ``eps_c``: the 2x2 of scalars multiplying the
    mode's moment outer product in the (EE, EH; HE, HH) blocks.

    M = -A^{-1} B for the response matrix A of :func:`_response_entries`
    and B = [[1, -i omega d_eps], [i omega c_d_mu, c]], both with the
    magnetic row scaled by c = 1 - t, which leaves M unchanged where
    c != 0; at beta = 0 (c = 0) the same formula gives the achiral limit
    [[-1/A_00, 0], [0, 0]] with det A = A_00.  M is inf where det A is
    exactly 0.  A nearly singular A (|det| <= 1e-14 |c|, i.e. the unscaled
    determinant within 1e-14 of 0; the root finder's objective reads the
    same determinant) is refused, or marked in ``failed`` for an array
    ``eps_c`` (see :func:`flag_or_raise`); an array gives a (2, 2, ...)
    stack.
    """
    params = mode_params(bg, eps_c, failed=failed)
    A = mat2x2(*_response_entries(params, lambda_n, bg.omega))
    # from the complex entries of A, whose signed zeros the blocks inherit
    det = _det2(*A.reshape((4,) + A.shape[2:]))
    bound = 1e-14 * abs(params.c)
    flag_or_raise(
        abs(det) <= bound, failed, SingularModeError,
        lambda: f"mode response nearly singular at eps_c = {eps_c}, lambda_n = {lambda_n} "
                f"(|det| = {np.nanmin(abs(det)):.3e} <= {bound:.3e})")
    with np.errstate(divide="ignore", invalid="ignore"):
        B = mat2x2(1.0, -1j * bg.omega * params.d_eps, 1j * bg.omega * params.c_d_mu, params.c)
        Ainv = mat2x2(A[1, 1], -A[0, 1], -A[1, 0], A[0, 0]) / det
        M = matmul2x2(-Ainv, B)
    return np.where(det == 0.0, complex(np.inf), M)


def resonant_eps(bg: ChiralBackground, lambda_n: float) -> complex:
    """Permittivity at which the mode response matrix becomes singular."""
    u = 0.5 - lambda_n
    v = 0.5 + lambda_n
    if abs(u) < 1e-14:
        raise SingularModeError(f"lambda_n = {lambda_n}: resonant permittivity undefined at 1/2")
    fac = 1.0 - bg.k ** 2 * bg.beta_m ** 2 * u
    if abs(fac) < 1e-14:
        raise SingularModeError(
            f"lambda_n = {lambda_n}: chirality factor 1 - k^2 beta^2 (1/2 - lambda_n) vanishes")
    return complex(-bg.eps_m * (v / u) / fac)


def polarization_tensor(spectrum: NPSpectrum, bg: ChiralBackground, eps_c: complex,
                        mesh: TriMesh) -> PolarizationTensor:
    """6x6 polarization tensor of the particle at permittivity ``eps_c``.

    Sums mode coefficient blocks weighted by dipole-moment outer
    products over modes with non-negligible moments; modes whose
    response matrix is nearly singular raise (resonance is the physics
    of interest, silently regularizing would mask it).
    """
    mom = np.asarray(spectrum.moments)
    lam = np.asarray(spectrum.eigenvalues)
    norms = np.linalg.norm(mom, axis=1)
    cutoff = 1e-6 * norms.max() if norms.size else 0.0
    M6 = np.zeros((6, 6), dtype=complex)
    for i in range(lam.size):
        if norms[i] < cutoff:
            continue
        M6 += np.kron(mode_response(bg, eps_c, float(lam[i])), np.outer(mom[i], mom[i]))
    vol = signed_volume(mesh)
    return PolarizationTensor(M=M6, M_tilde=vol * np.eye(6) + M6, volume=vol)


def drude_eps(omega: float, omega_p: float, tau: float) -> complex:
    """Drude permittivity 1 - omega_p^2/(omega^2 + i tau omega)."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return 1.0 - omega_p ** 2 / (omega ** 2 + 1j * tau * omega)


def drude_omega_for_eps(eps_target: complex, omega_p: float, tau: float = 0.0) -> complex:
    """Frequency at which the Drude permittivity equals ``eps_target``.

    Quadratic inversion; returns the root with positive real part.  For
    tau = 0 and real eps_target < 1 this is omega_p/sqrt(1-eps_target).
    """
    rhs = omega_p ** 2 / (1.0 - eps_target)
    disc = np.sqrt(complex(-tau ** 2 + 4.0 * rhs))
    roots = [(-1j * tau + disc) / 2.0, (-1j * tau - disc) / 2.0]
    root = max(roots, key=lambda z: z.real)
    if root.real <= 0:
        raise RootFindError(f"no positive-frequency solution for eps_target = {eps_target}")
    return root


def _mode_objective(bg: ChiralBackground, lambda_n: float):
    """Objective whose zero locates the resonance in eps_c: the
    determinant of the response matrix that :func:`mode_response` refuses
    near zero, for every beta, without the rest of the assembly."""
    def f(eps_c: complex) -> complex:
        return complex(_det2(*_response_entries(mode_params(bg, eps_c), lambda_n, bg.omega)))
    return f


def find_resonance_root(bg: ChiralBackground, lambda_n: float,
                        bracket: tuple[float, float]) -> complex:
    """Locate the permittivity zero of the mode response determinant.

    The real ``bracket`` must hold a sign change of the objective (which
    is real for real permittivity).  Bisection halves it until its ends
    are adjacent floats, keeping the end whose objective has the sign of
    f(bracket[0]): the returned r has f(r) = 0 or a sign change between r
    and the next float towards bracket[1].  A non-finite bracket end or
    objective value raises: bisection never halves a NaN end away, and a
    NaN value fails every sign test.
    """
    objective = _mode_objective(bg, lambda_n)

    def f(eps_c: float) -> complex:
        value = objective(eps_c)
        if not cmath.isfinite(value):
            raise RootFindError(f"objective not finite at eps_c = {eps_c}: {value}")
        return value

    a, b = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise RootFindError(f"bracket [{a}, {b}] is not finite")
    fa, fb = f(a).real, f(b).real
    if fa * fb > 0:
        raise RootFindError(
            f"no sign change on bracket [{a}, {b}]: f(a) = {fa:.3e}, f(b) = {fb:.3e}")
    if fb == 0:
        a, fa = b, fb
    while fa != 0:
        m = a + 0.5 * (b - a)
        if m == a or m == b:
            break
        fm = f(m).real
        if fm == 0 or (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    root = complex(a)
    residual = abs(f(root))
    if residual > 1e-10:
        raise RootFindError(f"root candidate {root} has |objective| = {residual:.3e} > 1e-10")
    return root
