import time

import numpy as np
import pytest

from chiralmeta.mesh import icosphere
from chiralmeta.np_spectral import mesh_spectrum, unit_ball_spectrum

# one (criterion, passed, detail) tuple per acceptance check, printed as a
# summary block at the end of the run
ACCEPTANCE_RESULTS = []


def record_acceptance(tag, passed, detail=""):
    ACCEPTANCE_RESULTS.append((tag, bool(passed), detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for tag, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        line = f"[acceptance {tag}] {verdict}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ico3():
    return icosphere(3)


@pytest.fixture(scope="session")
def sphere_spec3_timed(ico3):
    """Subdivision-3 sphere spectrum plus its wall-clock build time."""
    t0 = time.perf_counter()
    spec = mesh_spectrum(ico3, 15)
    return spec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sphere_spec3(sphere_spec3_timed):
    return sphere_spec3_timed[0]


@pytest.fixture(scope="session")
def sphere_spec4():
    mesh = icosphere(4)
    return mesh_spectrum(mesh, 15), mesh


@pytest.fixture(scope="session")
def ball_spectrum():
    return unit_ball_spectrum()


@pytest.fixture(scope="session")
def ball_cn(ball_spectrum):
    return ball_spectrum.clusters()[0].c_n


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
