"""Leading-order scattered field of one small resonant particle.

The particle acts as a coupled electric/magnetic point dipole sitting
at its center; the scattered field is the fundamental dyadic applied to
the contrast-weighted dipole response times the incident field at the
center, scaled by the particle volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ChiralBackground, green_dyadic, k0_matrix, matmul2x2
from .np_spectral import NPSpectrum
from .polarization import mode_response


class FarFieldError(ValueError):
    """Evaluation point inside the near-field guard radius."""


@dataclass(frozen=True)
class ParticleInstance:
    """One small particle: geometry scale, material, and driving mode."""

    center: np.ndarray
    delta: float
    eps_c: complex
    spectrum: NPSpectrum
    cluster_index: int = 0
    far_field_factor: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.far_field_factor > 0:
            raise ValueError(f"far_field_factor must be positive, got {self.far_field_factor}")
        count = len(self.spectrum.clusters())
        if not 0 <= self.cluster_index < count:
            raise ValueError(
                f"cluster_index {self.cluster_index} out of range for {count} clusters")


def dipole_response_tensor(bg: ChiralBackground, particle: ParticleInstance) -> np.ndarray:
    """6x6 contrast-times-response tensor of the particle.

    Only the driving cluster contributes (its moment tensor is c_n*I for
    symmetric shapes); near its resonance the other modes and the volume
    term of the full polarization tensor are negligible.
    """
    cluster = particle.spectrum.clusters()[particle.cluster_index]
    M = mode_response(bg, particle.eps_c, cluster.eigenvalue)
    return np.kron(matmul2x2(k0_matrix(bg, particle.eps_c), M), cluster.moment_tensor)


def scattered_field_dipole(bg: ChiralBackground, particle: ParticleInstance,
                           incident_at_center, x) -> np.ndarray:
    """Scattered (E, H) 6-vector(s) at points ``x`` of shape (..., 3).

    The incident field enters only through its value at the particle
    center, so the same operation serves plane waves and the local
    fields of a many-particle solve.
    """
    inc = np.asarray(incident_at_center, dtype=complex).reshape(6)
    x = np.asarray(x, dtype=float)
    rel = x - particle.center
    dist = np.linalg.norm(rel, axis=-1)
    guard = particle.far_field_factor * particle.delta
    if np.any(dist < guard):
        raise FarFieldError(
            f"evaluation point at distance {float(np.min(dist)):.3e} inside the "
            f"far-field guard radius {guard:.3e}")
    T = dipole_response_tensor(bg, particle)
    G = green_dyadic(bg, rel)
    return particle.delta ** 3 * bg.omega * np.einsum("...ij,j->...i", G, T @ inc)

