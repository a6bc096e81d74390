"""A linearly polarized input wave for the field tests.

The program drives every field with one circular wave; the tests also
need the equal-amplitude circular pair, which at beta_m = 0 is an
ordinary linearly polarized plane wave.
"""

import numpy as np

from chiralmeta.background import BackgroundError, PlaneWaveSpec, make_circular_basis


def linear_wave(direction, polarization, amplitude: complex = 1.0) -> PlaneWaveSpec:
    """Equal-amplitude circular pair; reduces to a linearly polarized
    plane wave when beta_m = 0 (e.g. E = x_hat e^{ikz} for direction z,
    polarization x)."""
    d, ql = make_circular_basis(direction, "left")
    _, qr = make_circular_basis(direction, "right")
    e = np.asarray(polarization, dtype=float)
    e = e - np.dot(e, d) * d
    nrm = np.linalg.norm(e)
    if nrm < 1e-300:
        raise BackgroundError("polarization must have a transverse component")
    e /= nrm
    # project the desired linear polarization on the two circular states
    a1 = amplitude * np.vdot(ql, e)
    a2 = amplitude * np.vdot(qr, e)
    return PlaneWaveSpec(p=d, q1=a1 * ql, q2=a2 * qr)
