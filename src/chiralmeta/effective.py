"""Effective material parameters of the dilute resonant composite.

A cubic lattice of N^3 small resonant particles contributes a 2x2
correction ("tilde parameters") to the background coefficients.  The
corrected coefficients invert to an effective permittivity,
permeability and chirality; near a shifted resonance both real parts
can turn negative simultaneously.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .background import ChiralBackground, k0_matrix, matmul2x2
from .np_spectral import NPSpectrum
from .polarization import SingularModeError, flag_or_raise, mode_response, resonant_eps


class EffectiveError(RuntimeError):
    """Effective-parameter computation failed."""


@dataclass(frozen=True)
class DiluteConfig:
    """Dilute-lattice scaling parameters.

    ``volume_scale`` multiplies the particle volume, ``n_per_axis`` is
    the lattice count per axis, ``dilution_exponent`` controls how fast
    the volume fraction vanishes, and ``moment_scale`` is the scalar
    moment constant of the driving mode cluster.
    """

    volume_scale: float
    n_per_axis: int
    dilution_exponent: float
    moment_scale: float

    def __post_init__(self) -> None:
        if not self.volume_scale > 0:
            raise EffectiveError(f"volume_scale must be positive, got {self.volume_scale}")
        if not (isinstance(self.n_per_axis, (int, np.integer)) and self.n_per_axis >= 1):
            raise EffectiveError(f"n_per_axis must be a positive integer, got {self.n_per_axis}")
        if not self.dilution_exponent > 0:
            raise EffectiveError(
                f"dilution_exponent must be positive, got {self.dilution_exponent}")
        if not self.moment_scale > 0:
            raise EffectiveError(f"moment_scale must be positive, got {self.moment_scale}")
        if self.volume_scale ** (1.0 / 3.0) * self.n_per_axis ** (-self.dilution_exponent) >= 1.0:
            raise EffectiveError(
                "dilution violated: volume_scale^(1/3) * n_per_axis^(-dilution_exponent) "
                "must be < 1 so particles fit their lattice cells")

    @property
    def delta(self) -> float:
        """Particle size scale; < 1/n_per_axis by the dilution invariant."""
        return self.volume_scale ** (1.0 / 3.0) * self.n_per_axis ** (-1.0 - self.dilution_exponent)

    @property
    def dilution_factor(self) -> float:
        """delta^3 * n_per_axis^3 = total particle volume prefactor."""
        return self.volume_scale * self.n_per_axis ** (-3.0 * self.dilution_exponent)


@dataclass(frozen=True)
class TildeParams:
    eps_t: complex
    mu_t: complex
    eps_tt: complex
    mu_tt: complex


@dataclass(frozen=True)
class EffectiveParams:
    eps_eff: complex
    mu_eff: complex
    beta_eff: complex


# Every step from the particle permittivity to the effective parameters
# also runs elementwise: an array ``eps_c`` gives array fields and a
# (2, 2, ...) coupling stack, and the caller's boolean mask ``failed``
# collects the points where a scalar evaluation would raise.


def _unwrap(x, kind=complex):
    """``kind(x)`` for a scalar evaluation; arrays pass through."""
    return kind(x) if np.ndim(x) == 0 else x


def coupling_matrix(bg: ChiralBackground, eps_c: complex, cfg: DiluteConfig,
                    lambda_n: float, *, failed: np.ndarray | None = None) -> np.ndarray:
    """2x2 lattice coupling: dilution * moment constant * contrast * mode response.

    The particle's E = diag(eps_c/eps_m, 1), the background's C, K0 = E - C and
    R = (1/2 - lambda_n) E + (1/2 + lambda_n) C are symmetric in the frame
    diag(1, i sqrt(mu_m/eps_m)).  M = -A^{-1} B = -R^{-1} K0, as A = D R and B = D K0
    for D = diag(1/K0[0, 0], 1), so K0 M = -K0 R^{-1} K0 and C + T2 are symmetric too.
    """
    M = mode_response(bg, eps_c, lambda_n, failed=failed)
    return cfg.dilution_factor * cfg.moment_scale * matmul2x2(k0_matrix(bg, eps_c), M)


def tilde_from_coupling(T2: np.ndarray, omega: float) -> TildeParams:
    """Read the four tilde parameters off the 2x2 coupling matrix."""
    return TildeParams(
        eps_t=_unwrap(T2[0, 0]),
        mu_t=_unwrap(T2[1, 1]),
        mu_tt=_unwrap(T2[0, 1] / (1j * omega)),
        eps_tt=_unwrap(T2[1, 0] / (-1j * omega)),
    )


def coupling_from_tilde(tilde: TildeParams, omega: float) -> np.ndarray:
    """Inverse of :func:`tilde_from_coupling`."""
    return np.array(
        [
            [tilde.eps_t, 1j * omega * tilde.mu_tt],
            [-1j * omega * tilde.eps_tt, tilde.mu_t],
        ],
        dtype=complex,
    )


def compatibility_residual(tilde: TildeParams, bg: ChiralBackground) -> float:
    """Relative mismatch of the cross-coupling ratio against eps_m/mu_m.

    Zero for any coupling produced by the contrast-times-response
    product; the cross-multiplied form stays finite in the achiral limit
    where both cross terms vanish.
    """
    t = bg.dbf_factor
    lhs = bg.mu_m * (tilde.eps_tt + bg.eps_m * bg.beta_m * t)
    rhs = bg.eps_m * (tilde.mu_tt + bg.mu_m * bg.beta_m * t)
    scale = np.maximum(abs(lhs), abs(rhs))
    with np.errstate(invalid="ignore"):
        return _unwrap(np.where(scale == 0.0, 0.0, abs(lhs - rhs) / scale), float)


def tilde_from_definition(bg: ChiralBackground, eps_c: complex, cfg: DiluteConfig,
                          spectrum: NPSpectrum, mode_index: int = 0, *,
                          failed: np.ndarray | None = None) -> TildeParams:
    """Tilde parameters of the lattice driven by one spectrum cluster."""
    clusters = spectrum.clusters()
    if not 0 <= mode_index < len(clusters):
        raise EffectiveError(f"mode_index {mode_index} out of range for {len(clusters)} clusters")
    T2 = coupling_matrix(bg, eps_c, cfg, clusters[mode_index].eigenvalue, failed=failed)
    return tilde_from_coupling(T2, bg.omega)


def invert_effective(tilde: TildeParams, bg: ChiralBackground, *,
                     failed: np.ndarray | None = None) -> EffectiveParams:
    """Invert corrected coefficients to effective (eps, mu, beta).

    Raises when a divergence denominator is hit or when substituting the
    result back into the coefficient equations fails to reproduce the
    input within 1e-8 relative.
    """
    t = bg.dbf_factor
    w = bg.omega
    P = tilde.eps_t + t
    Q = tilde.mu_t + t
    Rt = tilde.eps_tt + bg.eps_m * bg.beta_m * t
    St = tilde.mu_tt + bg.mu_m * bg.beta_m * t
    flag_or_raise(
        abs(Q) < 1e-14 * np.maximum(abs(tilde.mu_t), abs(t)), failed, EffectiveError,
        lambda: "effective permittivity divergence: corrected permeability coefficient "
                "vanishes (permittivity-branch shifted resonance hit)")
    flag_or_raise(
        abs(P) < 1e-14 * np.maximum(abs(tilde.eps_t), abs(t)), failed, EffectiveError,
        lambda: "effective permeability divergence: corrected permittivity coefficient "
                "vanishes (permeability-branch shifted resonance hit)")
    eps_eff = bg.eps_m * (P - w ** 2 * Rt * St / Q)
    mu_eff = bg.mu_m * (Q - w ** 2 * Rt * St / P)
    flag_or_raise(mu_eff == 0.0, failed, EffectiveError,
                  lambda: "effective permeability vanished; chirality recovery undefined")
    beta_eff = bg.mu_m * Rt / (bg.eps_m * mu_eff * P)
    out = EffectiveParams(eps_eff=_unwrap(eps_eff), mu_eff=_unwrap(mu_eff),
                          beta_eff=_unwrap(beta_eff))
    res = roundtrip_residual(tilde, out, bg)
    flag_or_raise(res >= 1e-8, failed, EffectiveError,
                  lambda: f"inversion round-trip residual {np.nanmax(res):.3e} >= 1e-8")
    return out


def roundtrip_residual(tilde: TildeParams, eff: EffectiveParams, bg: ChiralBackground) -> float:
    """Relative residual of the corrected-coefficient equations.

    Substitutes the effective parameters back into the three coefficient
    equations (plus the compatibility twin of the third) and compares
    with the input tilde values.
    """
    t = bg.dbf_factor
    w = bg.omega
    denom_eff = 1.0 - w ** 2 * eff.eps_eff * eff.mu_eff * eff.beta_eff ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        t_eff = np.divide(1.0, denom_eff)
        eq = np.array(np.broadcast_arrays(
            (eff.eps_eff / bg.eps_m) * t_eff - t,
            (eff.mu_eff / bg.mu_m) * t_eff - t,
            (eff.eps_eff * eff.mu_eff * eff.beta_eff / bg.mu_m) * t_eff - bg.eps_m * bg.beta_m * t,
            (eff.eps_eff * eff.mu_eff * eff.beta_eff / bg.eps_m) * t_eff - bg.mu_m * bg.beta_m * t,
        ))
        got = np.array(np.broadcast_arrays(tilde.eps_t, tilde.mu_t, tilde.eps_tt, tilde.mu_tt))
        scale = np.maximum(np.max(np.abs(got), axis=0), max(abs(t), 1e-30))
        res = np.max(np.abs(eq - got), axis=0) / scale
    return _unwrap(np.where(denom_eff == 0.0, np.inf, res), float)


def s_limit_tilde(bg: ChiralBackground, lambda_n: float, s: float) -> TildeParams:
    """Limiting tilde values when the permittivity tracks the resonance.

    ``s`` in [0, 1) parameterizes how closely the particle permittivity
    approaches the shifted resonance as the lattice refines.
    """
    u = 0.5 - lambda_n
    t = bg.dbf_factor
    kb2 = (bg.k * bg.beta_m) ** 2
    return TildeParams(
        eps_t=-s * t,
        mu_t=-s * t * kb2 * u ** 2,
        eps_tt=-s * t * bg.eps_m * bg.beta_m * u,
        mu_tt=-s * t * bg.mu_m * bg.beta_m * u,
    )


def effective_closed_form(bg: ChiralBackground, lambda_n: float, s) -> EffectiveParams:
    """Closed-form effective parameters along the resonance-tracking path.

    Algebraically identical to ``invert_effective(s_limit_tilde(...))``;
    kept in explicit form for the limit analysis.  ``s = 0`` returns the
    background parameters exactly.  An array ``s`` gives array fields; a
    vanishing denominator or permeability at any of its points raises.
    """
    s_arr = np.asarray(s)
    if not np.all((0.0 <= s_arr) & (s_arr < 1.0)):
        raise EffectiveError(f"s must lie in [0, 1), got {s}")
    u = 0.5 - lambda_n
    t = bg.dbf_factor
    kb2 = (bg.k * bg.beta_m) ** 2
    den = 1.0 - s * kb2 * u ** 2
    flag_or_raise(den == 0.0, None, EffectiveError,
                  lambda: "closed-form denominator vanished")
    eps_eff = bg.eps_m * t * ((1.0 - s) - kb2 * (1.0 - s * u) ** 2 / den)
    mu_eff = bg.mu_m * t * (1.0 - s * kb2 * u ** 2 - kb2 * (1.0 - s * u) ** 2 / (1.0 - s))
    flag_or_raise(mu_eff == 0.0, None, EffectiveError,
                  lambda: "closed-form effective permeability vanished")
    beta_eff = bg.mu_m * bg.beta_m * (1.0 - s * u) / (mu_eff * (1.0 - s))
    return EffectiveParams(eps_eff=_unwrap(eps_eff), mu_eff=_unwrap(mu_eff),
                           beta_eff=_unwrap(beta_eff))


def tilde_leading_order(bg: ChiralBackground, eps_c: complex, cfg: DiluteConfig,
                        lambda_n: float) -> TildeParams:
    """Leading divergent term of each tilde parameter near the resonance."""
    star = resonant_eps(bg, lambda_n)
    if eps_c == star:
        raise EffectiveError(f"eps_c equals the resonant permittivity {star}")
    u = 0.5 - lambda_n
    fac = 1.0 - bg.k ** 2 * bg.beta_m ** 2 * u
    lead = -cfg.dilution_factor * cfg.moment_scale / (eps_c - star)
    base = bg.eps_m / (u * fac ** 2)
    return TildeParams(
        eps_t=lead * base / u ** 2,
        mu_t=lead * base * bg.k ** 2 * bg.beta_m ** 2,
        eps_tt=lead * base * bg.eps_m * bg.beta_m / u,
        mu_tt=lead * base * bg.mu_m * bg.beta_m / u,
    )


def shifted_resonances(bg: ChiralBackground, lambda_n: float,
                       cfg: DiluteConfig) -> tuple[complex, complex]:
    """Permittivities where the effective permittivity / permeability diverge.

    The lattice correction moves each divergence slightly off the single
    -particle resonance; both shifts are linear in the dilution factor.
    """
    star = resonant_eps(bg, lambda_n)
    u = 0.5 - lambda_n
    fac = 1.0 - bg.k ** 2 * bg.beta_m ** 2 * u
    scale = cfg.dilution_factor * cfg.moment_scale * bg.eps_m / (fac ** 2 * bg.dbf_factor)
    shift_eps = scale * bg.k ** 2 * bg.beta_m ** 2 / u
    shift_mu = scale / u ** 3
    return star + shift_eps, star + shift_mu


def epsc_from_s(bg: ChiralBackground, lambda_n: float, s: float, cfg: DiluteConfig) -> complex:
    """Particle permittivity tracking the resonance at parameter ``s``."""
    if s == 0.0:
        raise EffectiveError("s = 0 places the permittivity at infinity")
    star = resonant_eps(bg, lambda_n)
    u = 0.5 - lambda_n
    fac = 1.0 - bg.beta_m ** 2 * bg.k ** 2 * u
    shift = (cfg.dilution_factor * cfg.moment_scale * bg.eps_m
             / (u ** 3 * fac ** 2 * bg.dbf_factor))
    return star + shift / s


@dataclass(frozen=True)
class SweepRow:
    eps_c: complex
    eps_eff: complex
    mu_eff: complex
    beta_eff: complex
    double_negative: bool
    out_of_assumption: bool
    nudged: bool
    failed: bool


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """A sweep as read-only columns, one entry per grid point.

    Indexing and iteration build :class:`SweepRow` views with Python
    ``complex`` and ``bool`` fields; the columns themselves are what the
    CLI writes and :func:`sweep_summary` reduces.
    """

    eps_c: np.ndarray
    eps_eff: np.ndarray
    mu_eff: np.ndarray
    beta_eff: np.ndarray
    double_negative: np.ndarray
    nudged: np.ndarray
    failed: np.ndarray
    out_of_assumption: bool

    def __post_init__(self) -> None:
        for col in self._columns():
            col.flags.writeable = False

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The per-point columns in :class:`SweepRow` order, less the
        constant ``out_of_assumption``."""
        return (self.eps_c, self.eps_eff, self.mu_eff, self.beta_eff, self.double_negative,
                self.nudged, self.failed)

    def __len__(self) -> int:
        return len(self.eps_c)

    def __getitem__(self, i: int) -> SweepRow:
        e, a, m, b, dn, nu, f = (col[i].item() for col in self._columns())
        return SweepRow(e, a, m, b, dn, self.out_of_assumption, nu, f)

    def __iter__(self):
        e, a, m, b, dn, nu, f = (col.tolist() for col in self._columns())
        return map(SweepRow, e, a, m, b, dn, repeat(self.out_of_assumption), nu, f)


def _sweep_pass(bg, cfg, spectrum, mode_index,
                eps_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tilde -> effective chain over all of ``eps_c`` at once.

    Returns the (3, n) stack of (eps_eff, mu_eff, beta_eff) and the mask
    of the points where the scalar chain would raise.
    """
    failed = np.zeros(eps_c.shape, dtype=bool)
    try:
        # failed points run on with inf/nan intermediates; the mask drops them
        with np.errstate(all="ignore"):
            tilde = tilde_from_definition(bg, eps_c, cfg, spectrum, mode_index=mode_index,
                                          failed=failed)
            eff = invert_effective(tilde, bg, failed=failed)
    except (SingularModeError, EffectiveError):
        # a failure shared by every point (mode_index out of range)
        return (np.full((3,) + eps_c.shape, complex(np.nan, np.nan)),
                np.ones(eps_c.shape, dtype=bool))
    return np.array([eff.eps_eff, eff.mu_eff, eff.beta_eff]), failed


def sweep_figure(bg: ChiralBackground, cfg: DiluteConfig, spectrum: NPSpectrum,
                 eps_c_grid, mode_index: int = 0) -> Sweep:
    """Effective parameters over a permittivity grid, with per-point flags.

    The chain runs elementwise over the whole grid.  Points that hit a
    singularity are nudged once by 1e-12 and rerun; persistent failures
    are flagged with NaN values, never fatal.  The columns follow the
    grid's order.
    """
    eps_c = np.array(eps_c_grid, dtype=complex)
    if eps_c.ndim != 1:
        raise EffectiveError(f"eps_c_grid must be one-dimensional, got shape {eps_c.shape}")
    values, failed = _sweep_pass(bg, cfg, spectrum, mode_index, eps_c)
    nudged = failed.copy()
    if nudged.any():
        eps_c[nudged] += 1e-12
        values[:, nudged], failed[nudged] = _sweep_pass(bg, cfg, spectrum, mode_index,
                                                        eps_c[nudged])
    values[:, failed] = complex(np.nan, np.nan)
    eps_eff, mu_eff, beta_eff = values
    double_negative = (eps_eff.real < 0) & (mu_eff.real < 0)
    return Sweep(eps_c, eps_eff, mu_eff, beta_eff, double_negative, nudged, failed,
                 bool(bg.out_of_assumption))


def sweep_summary(sweep: Sweep, reference_abscissa: float | None = None) -> dict:
    """Resonance abscissa (largest effective-permittivity magnitude, the
    first one on a tie), the double-negative interval endpoints and the
    nudged and failed grid points of a sweep, reduced over its columns."""
    x = sweep.eps_c.real
    # libm's hypot, as Python's abs(complex); np.abs rounds some points
    # one ulp differently
    mag = np.hypot(sweep.eps_eff.real, sweep.eps_eff.imag)
    usable = ~sweep.failed & np.isfinite(sweep.eps_eff)
    dn = x[sweep.double_negative]
    out: dict = {"points": len(sweep), "failed": int(np.count_nonzero(sweep.failed))}
    if usable.any():
        peak = np.argmax(np.where(usable, mag, -1.0))
        out["resonance_abscissa"] = float(x[peak])
        out["resonance_peak_magnitude"] = float(mag[peak])
    out["double_negative_count"] = len(dn)
    if len(dn):
        out["double_negative_min"] = float(dn.min())
        out["double_negative_max"] = float(dn.max())
    if reference_abscissa is not None and "resonance_abscissa" in out:
        out["reference_abscissa"] = reference_abscissa
        out["abscissa_deviation"] = out["resonance_abscissa"] - reference_abscissa
    out["nudged_points"] = x[sweep.nudged].tolist()
    out["failed_points"] = x[sweep.failed].tolist()
    return out
