"""Chiral Drude-Born-Fedorov background medium and its wave objects.

The homogeneous background carries permittivity ``eps_m``, permeability
``mu_m`` and chirality ``beta_m`` at angular frequency ``omega``.  Plane
waves split into two circular polarizations travelling with distinct
wavenumbers; the fundamental 6x6 dyadic couples electric and magnetic
parts accordingly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_I3 = np.eye(3)


class BackgroundError(ValueError):
    """Invalid background medium parameters."""


class SingularPointError(BackgroundError):
    """Kernel evaluated at its singular point without regularization."""


@dataclass(frozen=True)
class ChiralBackground:
    """Homogeneous chiral background medium.

    ``k * beta_m < 1`` is assumed by the quasi-static theory; passing
    ``allow_kbeta_ge_1=True`` overrides the check (a warning is issued
    and ``out_of_assumption`` is set) so parameter sets outside the
    assumption range can still be evaluated.
    """

    eps_m: float
    mu_m: float
    beta_m: float
    omega: float
    allow_kbeta_ge_1: bool = False

    def __post_init__(self) -> None:
        for name in ("eps_m", "mu_m", "omega"):
            if not getattr(self, name) > 0:
                raise BackgroundError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.beta_m >= 0:
            raise BackgroundError(f"beta_m must be nonnegative, got {self.beta_m}")
        if self.k * self.beta_m >= 1.0:
            if not self.allow_kbeta_ge_1:
                raise BackgroundError(
                    f"k*beta_m = {self.k * self.beta_m:.6g} >= 1 violates the chirality "
                    "assumption; pass allow_kbeta_ge_1=True to evaluate anyway")
            warnings.warn(
                f"k*beta_m = {self.k * self.beta_m:.6g} >= 1: outside the assumption "
                "range, results are formula-level only", stacklevel=2)

    @property
    def k(self) -> float:
        """Achiral background wavenumber omega*sqrt(eps_m*mu_m)."""
        return self.omega * np.sqrt(self.eps_m * self.mu_m)

    @property
    def out_of_assumption(self) -> bool:
        return self.k * self.beta_m >= 1.0

    @property
    def dbf_factor(self) -> float:
        """Chirality enhancement 1/(1 - (k*beta_m)^2); negative outside the assumption."""
        denom = 1.0 - (self.k * self.beta_m) ** 2
        if denom == 0.0:
            raise BackgroundError("k*beta_m = 1 exactly: background coefficients are singular")
        return 1.0 / denom

    @property
    def gamma1(self) -> float:
        """Wavenumber of the left-circular (negative-helicity-curl) branch."""
        return self.k / (1.0 - self.k * self.beta_m)

    @property
    def gamma2(self) -> float:
        """Wavenumber of the right-circular branch."""
        return self.k / (1.0 + self.k * self.beta_m)

    @property
    def omega1(self) -> float:
        return self.omega / (1.0 - self.k * self.beta_m)

    @property
    def omega2(self) -> float:
        return self.omega / (1.0 + self.k * self.beta_m)

    @property
    def impedance_ratio(self) -> float:
        """sqrt(mu_m / eps_m)."""
        return np.sqrt(self.mu_m / self.eps_m)


# ---------------------------------------------------------------------------
# plane waves


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Incident field as a pair of circular plane waves along the real unit
    vector ``p``: ``q1`` rides the gamma1 branch and must satisfy
    p x q1 = -i q1; ``q2`` rides gamma2 with p x q2 = +i q2.  Either
    amplitude may be zero for a single circular wave."""

    p: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=complex)
        if abs(np.linalg.norm(p.real) - 1.0) > 1e-12 or np.linalg.norm(p.imag) > 1e-12:
            raise BackgroundError("p must be a real unit vector")
        object.__setattr__(self, "p", p.real.copy())
        for q, s, nm in ((self.q1, -1.0, "q1"), (self.q2, +1.0, "q2")):
            q = np.asarray(q, dtype=complex)
            object.__setattr__(self, nm, q)
            if abs(np.dot(self.p, q)) > 1e-12:
                raise BackgroundError(f"p.{nm} must vanish")
            if np.linalg.norm(np.cross(self.p, q) - s * 1j * q) > 1e-12:
                raise BackgroundError(f"p x {nm} must equal {'+' if s > 0 else '-'}i {nm}")


def make_circular_basis(direction, handedness: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit propagation vector and circular polarization for one branch.

    ``handedness`` is ``"left"`` (p x q = -i q) or ``"right"``
    (p x q = +i q).  The transverse frame is chosen deterministically
    from the direction.
    """
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if nrm < 1e-300:
        raise BackgroundError("direction must be a nonzero vector")
    d = d / nrm
    seed = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = seed - np.dot(seed, d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    if handedness == "left":
        q = (e1 + 1j * e2) / np.sqrt(2.0)
    elif handedness == "right":
        q = (e1 - 1j * e2) / np.sqrt(2.0)
    else:
        raise BackgroundError(f"handedness must be 'left' or 'right', got {handedness!r}")
    return d, q


def circular_wave(direction, handedness: str, amplitude: complex = 1.0) -> PlaneWaveSpec:
    """Single circular plane wave (the other branch amplitude is zero)."""
    d, q = make_circular_basis(direction, handedness)
    _, other = make_circular_basis(direction, "right" if handedness == "left" else "left")
    q1, q2 = (amplitude * q, 0.0 * other) if handedness == "left" else (0.0 * other, amplitude * q)
    return PlaneWaveSpec(p=d, q1=q1, q2=q2)


def incident_field(bg: ChiralBackground, wave: PlaneWaveSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the incident (E, H) pair at points ``x`` of shape (..., 3).

    Each circular branch is a Beltrami field: H = -i sqrt(eps/mu) E on
    the gamma1 branch and H = +i sqrt(eps/mu) E on the gamma2 branch,
    which is what the background system requires of each polarization.
    """
    x = np.asarray(x, dtype=float)
    s = 1.0 / bg.impedance_ratio  # sqrt(eps_m/mu_m)
    xp = x @ wave.p
    ph1 = np.exp(1j * bg.gamma1 * xp)
    ph2 = np.exp(1j * bg.gamma2 * xp)
    E = ph1[..., None] * wave.q1 + ph2[..., None] * wave.q2
    H = -1j * s * ph1[..., None] * wave.q1 + 1j * s * ph2[..., None] * wave.q2
    return E, H


def incident_six(bg: ChiralBackground, wave: PlaneWaveSpec, x) -> np.ndarray:
    """Incident field stacked as (..., 6) with E then H components."""
    E, H = incident_field(bg, wave, x)
    return np.concatenate([E, H], axis=-1)


# ---------------------------------------------------------------------------
# fundamental dyadic


def _scalar_kernel(r, gamma, eta):
    """Regularized Helmholtz kernel e^{i gamma r}/(4 pi r + eta) and its
    first two radial derivatives (eta = 0 recovers the free kernel)."""
    v = 4.0 * np.pi * r + eta
    g = np.exp(1j * gamma * r) / v
    b = 1j * gamma - 4.0 * np.pi / v
    g1 = g * b
    g2 = g * (b * b + (4.0 * np.pi / v) ** 2)
    return g, g1, g2


def _radial(bg: ChiralBackground, r, eta: float) -> list:
    """For each circular branch, the scalars (gamma, h, sign, a, b, g1) of
    the dyadic at radii ``r`` > 0 (see :func:`_branches`)."""
    if eta < 0:
        raise BackgroundError(f"eta must be nonnegative, got {eta}")
    branches = []
    for gamma, om, sign in ((bg.gamma1, bg.omega1, +1.0), (bg.gamma2, bg.omega2, -1.0)):
        g, g1, g2 = _scalar_kernel(r, gamma, eta)
        a = g + g1 / (r * gamma ** 2)
        b = (g2 - g1 / r) / gamma ** 2
        branches.append((gamma, gamma ** 2 / (2.0 * om), sign, a, b, g1))
    return branches


def _branches(bg: ChiralBackground, x, eta: float):
    """Unit vectors x^ and, for each circular branch, the scalars
    (gamma, h, sign, a, b, g1) of the dyadic at points ``x`` (..., 3).

    With h = gamma^2/(2 omega_gamma), sign = +-1 and s = sqrt(mu/eps) the
    branch adds h u v^T (x) (a I + b x^x^T) + (sign h/gamma) u v^T (x) g1 [x^]x
    to the dyadic, u = (1, -sign i/s), v = (1, sign i s) in the (E, H)
    index; a = g + g1/(r gamma^2) and b = (g2 - g1/r)/gamma^2 from the scalar
    kernel g and its radial derivatives.  At the origin (eta > 0 only)
    g = 1/eta and g1 = g2 = 0 by convention, and x^ = 0."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise BackgroundError(f"points must have trailing dimension 3, got {x.shape}")
    r = np.asarray(np.linalg.norm(x, axis=-1))
    at_origin = r < 1e-12
    any_origin = bool(np.any(at_origin))
    if any_origin:
        if eta == 0.0:
            raise SingularPointError("dyadic evaluated at its singular point with eta = 0")
        r = np.where(at_origin, 1.0, r)  # placeholder; x^ is zero there
    xh = x / r[..., None]
    branches = _radial(bg, r, eta)
    if any_origin:
        branches = [(gamma, h, sign, np.where(at_origin, 1.0 / eta, a),
                     np.where(at_origin, 0.0, b), np.where(at_origin, 0.0, g1))
                    for gamma, h, sign, a, b, g1 in branches]
    return xh, branches


# the cross-product matrix [v]x above its diagonal: [v]x[i, j] = sign * v[k]
_CROSS_UPPER = ((0, 1, 2, -1.0), (0, 2, 1, 1.0), (1, 2, 0, -1.0))


def green_dyadic(bg: ChiralBackground, x, eta: float = 0.0) -> np.ndarray:
    """6x6 fundamental dyadic of the background system at points ``x``.

    Shape (..., 3) -> (..., 6, 6).  With ``eta > 0`` the scalar kernel
    denominator 4 pi r is shifted by eta (a negative eta, which would put
    a pole at r = -eta/(4 pi), is refused); at the origin the derivative
    terms are dropped by convention so the value stays finite (only the
    regularized kernel is ever evaluated there).

    Each circular branch gamma is a scalar combination of I, x^x^T and
    [x^]x, so every 3x3 block (p, q) of the result is
    c_I[p, q] I + c_xx[p, q] x^x^T + c_X[p, q] [x^]x with per-point 2x2
    coefficients summed over the two branches.  The symmetric and
    antisymmetric parts make G(-x) the transpose of G(x) exactly in the
    EE and HH blocks.  Where only sums of products G f are needed,
    :func:`green_apply` forms them without the blocks.

    Every column, read as an (E, H) pair, satisfies the homogeneous
    background system away from the source.
    """
    xh, branches = _branches(bg, x, eta)
    s = bg.impedance_ratio  # sqrt(mu/eps)

    c_I = np.zeros(xh.shape[:-1] + (2, 2), dtype=complex)
    c_xx = np.zeros_like(c_I)
    c_X = np.zeros_like(c_I)
    for gamma, h, sign, a, b, g1 in branches:
        pol = h * np.array([[1.0, sign * 1j * s], [-sign * 1j / s, 1.0]])
        cross = (h / gamma) * np.array([[sign, 1j * s], [-1j / s, sign]])
        c_I += a[..., None, None] * pol
        c_xx += b[..., None, None] * pol
        c_X += g1[..., None, None] * cross

    G = np.empty(xh.shape[:-1] + (2, 3, 2, 3), dtype=complex)
    for i in range(3):
        G[..., :, i, :, i] = c_I + c_xx * (xh[..., i] * xh[..., i])[..., None, None]
    for i, j, k, sign in _CROSS_UPPER:
        sym = c_xx * (xh[..., i] * xh[..., j])[..., None, None]
        anti = c_X * (sign * xh[..., k])[..., None, None]
        G[..., :, i, :, j] = sym + anti
        G[..., :, j, :, i] = sym - anti
    return G.reshape(xh.shape[:-1] + (6, 6))


def green_apply(bg: ChiralBackground, x, f, eta: float = 0.0) -> np.ndarray:
    """Sum over sources c of G_eta(x_c) f_c, without forming 6x6 blocks.

    ``x`` (..., C, 3) and ``f`` (..., C, 6), E then H, share the source
    axis C and broadcast over the leading axes; the result has shape
    (..., 6).  Errors are those of :func:`green_dyadic`.

    Each circular branch of the dyadic is rank one in the (E, H) index,
    h u v^T with u = (1, -sign i/s) and v = (1, sign i s), so it acts on
    f through the one 3-vector w = f_E + sign i s f_H:
    m = sum_c [a w + b x^(x^.w) + (sign g1/gamma) [x^]x w], and the branch
    adds h m to E and -sign i h m / s to H.  Each coefficient meets the
    source axis in one matrix product.
    """
    f = np.asarray(f)
    if (np.ndim(x) < 2 or f.ndim < 2 or f.shape[-1] != 6
            or np.shape(x)[-2] != f.shape[-2]):
        raise BackgroundError(f"need points (..., C, 3) and sources (..., C, 6), "
                              f"got {np.shape(x)} and {f.shape}")
    return _contract(bg, *_branches(bg, x, eta), f)


def _contract(bg: ChiralBackground, xh: np.ndarray, branches: list, f: np.ndarray) -> np.ndarray:
    """Sum over the source axis of G f from unit vectors ``xh`` (..., C, 3)
    and the branch scalars of :func:`_branches`, the contraction of
    :func:`green_apply`."""
    s = bg.impedance_ratio
    xhT = np.swapaxes(xh, -1, -2)
    xf_E = np.einsum("...i,...i->...", xh, f[..., :3])
    xf_H = np.einsum("...i,...i->...", xh, f[..., 3:])
    # rows a, g1 x^_0, g1 x^_1, g1 x^_2 of each branch meet (f_E, f_H) in
    # one product, the rows b (x^.w) meet x^ in another
    rows = np.empty(xh.shape[:-2] + (8, xh.shape[-2]), dtype=complex)
    b_rows = []
    for n, (gamma, h, sign, a, b, g1) in enumerate(branches):
        rows[..., 4 * n, :] = a
        np.multiply(g1[..., None, :], xhT, out=rows[..., 4 * n + 1:4 * n + 4, :])
        b_rows.append(b * (xf_E + (sign * 1j * s) * xf_H))
    R = rows @ f
    Bx = np.stack(b_rows, axis=-2) @ xh
    out = np.zeros(R.shape[:-2] + (6,), dtype=complex)
    for n, (gamma, h, sign, a, b, g1) in enumerate(branches):
        Rw = R[..., 4 * n:4 * n + 4, :3] + (sign * 1j * s) * R[..., 4 * n:4 * n + 4, 3:]
        M = Rw[..., 1:, :]   # sum_c g1 x^_j w_k
        m = Rw[..., 0, :] + Bx[..., n, :]
        m[..., 0] += (sign / gamma) * (M[..., 1, 2] - M[..., 2, 1])
        m[..., 1] += (sign / gamma) * (M[..., 2, 0] - M[..., 0, 2])
        m[..., 2] += (sign / gamma) * (M[..., 0, 1] - M[..., 1, 0])
        out[..., :3] += h * m
        out[..., 3:] += (-sign * 1j * h / s) * m
    return out


def maxwell_dyadic(k: float, x) -> np.ndarray:
    """Classical electric dyadic (I + grad grad / k^2) e^{ikr}/(4 pi r).

    Textbook closed form, kept as an independent reference for the
    achiral limit of the chiral dyadic.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(np.linalg.norm(x, axis=-1))
    xh = x / r[..., None]
    kr = k * r
    g = np.asarray(np.exp(1j * kr) / (4.0 * np.pi * r))
    a = np.asarray(1.0 + (1j * kr - 1.0) / kr ** 2)
    b = np.asarray((3.0 - 3j * kr - kr ** 2) / kr ** 2)
    xx = xh[..., :, None] * xh[..., None, :]
    return g[..., None, None] * (a[..., None, None] * _I3 + b[..., None, None] * xx)


# ---------------------------------------------------------------------------
# particle/background contrast


def mat2x2(a, b, c, d) -> np.ndarray:
    """The complex 2x2 matrix [[a, b], [c, d]].  Array entries broadcast
    against each other and give a (2, 2, ...) stack, one matrix per
    element."""
    entries = np.broadcast_arrays(a, b, c, d)
    return np.array(entries, dtype=complex).reshape((2, 2) + entries[0].shape)


def matmul2x2(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for 2x2 matrices, or elementwise over (2, 2, ...) stacks."""
    return np.einsum("ij...,jk...->ik...", X, Y)


def k0_matrix(bg: ChiralBackground, eps_c: complex) -> np.ndarray:
    """2x2 contrast matrix between the particle interior (permittivity
    ``eps_c``, achiral) and the chiral background; a (2, 2, ...) stack
    for an array ``eps_c``."""
    tg = bg.dbf_factor
    return mat2x2(eps_c / bg.eps_m - tg, -1j * bg.omega * bg.mu_m * bg.beta_m * tg,
                  1j * bg.omega * bg.eps_m * bg.beta_m * tg, 1.0 - tg)
