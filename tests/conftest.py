"""Shared media and expensive session-scoped artifacts for the test suite."""

import numpy as np
import pytest

import lorentzmodes as lm
from lorentzmodes import dispersion as dsp
from lorentzmodes import energy as en


@pytest.fixture(scope="session")
def reference_medium():
    """Strongly dissipative, non-critical; N = 6."""
    return lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.1)], [(1.0, 2.0, 0.2)])


@pytest.fixture(scope="session")
def asymmetric_medium():
    """Strong, non-critical, N = 10; eps0 != mu0 and unlike families expose swaps."""
    return lm.new_medium(
        2.3,
        0.7,
        [(1.0, 1.0, 0.1), (0.6, 2.5, 0.3)],
        [(0.8, 1.7, 0.2), (0.5, 3.1, 0.05)],
    )


@pytest.fixture(scope="session")
def critical_medium():
    """Weakly dissipative, critical (condition 1); N = 8."""
    return lm.new_medium(
        1.0, 1.0, [(1.0, 1.0, 0.0), (1.0, 1.5, 0.3)], [(1.0, 2.0, 0.0)]
    )


@pytest.fixture(scope="session")
def double_pole_medium():
    """Shared undamped resonance at 1 in both families; N = 8."""
    return lm.new_medium(
        1.0, 1.0, [(1.0, 1.0, 0.0), (1.0, 1.5, 0.4)], [(1.0, 1.0, 0.0)]
    )


@pytest.fixture(scope="session")
def ps_noncritical_medium():
    """Weak, non-critical, with simple real poles at +-1."""
    return lm.new_medium(
        1.0, 1.0, [(1.0, 1.0, 0.0), (1.0, 1.5, 0.2)], [(1.0, 2.0, 0.1)]
    )


@pytest.fixture(scope="session")
def electric_only_medium():
    """No magnetic oscillator (n_magnetic = 0), eps0 != mu0; N = 6."""
    return lm.new_medium(1.5, 0.8, [(1.0, 1.0, 0.1), (0.7, 2.2, 0.3)], [])


@pytest.fixture(scope="session")
def undamped_medium():
    """No dissipation at all: the conservative negative control."""
    return lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.0)], [(1.0, 2.0, 0.0)])


@pytest.fixture(scope="session")
def h1_violation_medium():
    # both oscillators have a root at -4i while their (damping, resonance) differ
    return lm.new_medium(1.0, 1.0, [(1.0, 2.0, 5.0), (1.0, 1.0, 4.25)], [])


@pytest.fixture(scope="session")
def h2_violation_medium():
    # zeros of the permittivity at +-sqrt(2) coincide with the permeability poles
    return lm.new_medium(1.0, 1.0, [(1.0, 1.0, 0.0)], [(1.0, np.sqrt(2.0), 0.0)])


def _classified(medium):
    grid = dsp.default_k_grid(medium)
    return dsp.classify_branches(dsp.track_branches(medium, grid), medium)


@pytest.fixture(scope="session")
def reference_branches(reference_medium):
    return _classified(reference_medium)


@pytest.fixture(scope="session")
def critical_branches(critical_medium):
    return _classified(critical_medium)


@pytest.fixture(scope="session")
def double_pole_branches(double_pole_medium):
    return _classified(double_pole_medium)


@pytest.fixture(scope="session")
def reference_bands(reference_medium, reference_branches):
    return dsp.diagnose_bands(
        reference_branches, reference_medium.asymptotic_coefficients()
    )


def _timed(fn, *args, **kwargs):
    import time

    t0 = time.monotonic()
    report = fn(*args, **kwargs)
    report.runtime = time.monotonic() - t0
    return report


@pytest.fixture(scope="session")
def lf_report_p0(reference_medium):
    return _timed(en.verify_gamma_lf, reference_medium, 0.0)


@pytest.fixture(scope="session")
def lf_report_p2(reference_medium):
    return _timed(en.verify_gamma_lf, reference_medium, 2.0)


@pytest.fixture(scope="session")
def hf_report_reference(reference_medium):
    return _timed(en.verify_gamma_hf, reference_medium, 2.0)


@pytest.fixture(scope="session")
def hf_report_critical(critical_medium):
    return _timed(en.verify_gamma_hf, critical_medium, 2.0)
