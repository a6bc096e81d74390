"""Dense reference for the lattice-versus-volume error rows.

Builds the point-interaction system and the homogenized volume system
directly from the public kernel ``green_dyadic`` and the tilde coupling,
solves both with ``numpy.linalg.solve`` and returns the relative probe
errors.  Nothing here goes through ``chiralmeta.foldy``, so a later
rewrite of its solvers is still checked against this.
"""

from __future__ import annotations

import numpy as np

from chiralmeta.background import ChiralBackground, circular_wave, green_dyadic, incident_six
from chiralmeta.effective import DiluteConfig, coupling_from_tilde, tilde_from_definition
from chiralmeta.np_spectral import unit_ball_spectrum

_ROWS = 64  # block rows assembled at a time


def _grid(n: int) -> np.ndarray:
    """Integer cell indices, in the order of ``chiralmeta.foldy.cell_centers``."""
    r = np.arange(n)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def _scattered(bg, n_axis, T6, eta, wave, probes, zero_self) -> np.ndarray:
    """Solve (I - w omega G_eta(x_i - x_j) T6) u = incident on the n^3 cell
    centers (w = 1/n^3; the self block is zero when ``zero_self``) and
    return the scattered field at ``probes``.

    The kernel depends on x_i - x_j only, so it is evaluated once per
    distinct offset (2n-1)^3 and gathered into the dense matrix.
    """
    idx = _grid(n_axis)
    pts = (idx + 0.5) / n_axis
    n = len(idx)
    scale = bg.omega / n
    span = 2 * n_axis - 1
    offsets = _grid(span) - (n_axis - 1)
    rel = offsets / n_axis
    self_block = len(offsets) // 2
    if zero_self:
        rel[self_block] = 1.0
    GT = green_dyadic(bg, rel, eta=eta) @ T6
    if zero_self:
        GT[self_block] = 0.0
    A = np.eye(6 * n, dtype=complex)
    for lo in range(0, n, _ROWS):
        d = idx[lo:lo + _ROWS, None, :] - idx[None, :, :] + (n_axis - 1)
        blk = GT[(d[..., 0] * span + d[..., 1]) * span + d[..., 2]]
        A[6 * lo:6 * (lo + len(d))] -= scale * blk.transpose(0, 2, 1, 3).reshape(
            6 * len(d), 6 * n)
    u = np.linalg.solve(A, incident_six(bg, wave, pts).reshape(-1)).reshape(n, 6)
    Gp = green_dyadic(bg, probes[:, None, :] - pts[None, :, :], eta=eta)
    return scale * np.einsum("pcij,cj->pi", Gp, u @ T6.T)


def error_rows(cfg: dict, probes: np.ndarray, n_list, grid_m: int) -> dict[int, float]:
    """Relative L2 probe error of each lattice N against the m^3 volume
    solve, for the config keys the lattice workloads write."""
    bg = ChiralBackground(eps_m=1.0, mu_m=1.0, beta_m=float(cfg["beta_m"]), omega=1.0)
    spectrum = unit_ball_spectrum()
    dilute = DiluteConfig(volume_scale=float(cfg["volume_scale"]),
                          n_per_axis=int(cfg.get("n_per_axis", 125)),
                          dilution_exponent=0.965,
                          moment_scale=spectrum.clusters()[0].c_n)
    eps_c = complex(float(cfg["eps_c_re"]), float(cfg.get("eps_c_im", 0.0)))
    wave = circular_wave(np.array([float(v) for v in cfg["direction"].split(",")]),
                         cfg["handedness"])
    eta = float(cfg["eta"])
    tilde = tilde_from_definition(bg, eps_c, dilute, spectrum)
    T6 = np.kron(coupling_from_tilde(tilde, bg.omega), np.eye(3))
    ref = _scattered(bg, grid_m, T6, eta, wave, probes, zero_self=False)
    ref_norm = np.linalg.norm(ref)
    return {N: float(np.linalg.norm(
                _scattered(bg, N, T6, eta, wave, probes, zero_self=True)
                - ref) / ref_norm)
            for N in n_list}
