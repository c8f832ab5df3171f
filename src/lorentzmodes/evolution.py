"""Time propagation of per-wavenumber states and band-wise decay envelopes.

``propagate`` takes ``_ModalRecord.evolve`` of the record its operator keeps, the
one u_+/u_- evolution the random-direction energy traces take stacked; its fallback
stays the dense 2N x 2N expm (N x N on the two parts is barely faster, less exact).
The envelope checks read each k's envelope off the modal expansion
|exp(-i A(k) t)|_W <= sum_n |Pi_n(k)|_W exp(Im w_n(k) t), from one stacked u_+
eigendecomposition: no state is evolved and no rate is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dispersion import _log_points, _slowest_hf_branch, solve_dispersion
from .errors import BandViolation, DimensionMismatch, NonPositiveRate, NotDiagonalizable
from .medium import LorentzMedium
from .operators import PerpOperator, _ModalRecord


@dataclass
class PropagatorResult:
    t_grid: np.ndarray
    norms: np.ndarray  # weighted norms |U(k, t)|
    states: Optional[np.ndarray]  # (len(t_grid), dim) when kept
    method: str  # "Eigen" (u_+/u_- modal evolution) or "Oracle" (dense 2N x 2N expm)


def _time_grid(t_grid: Sequence[float]) -> np.ndarray:
    """t_grid as a float array; refuses one that is not finite, sorted and nonnegative."""
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be finite, sorted and nonnegative")
    return t_grid


def propagate(
    op: PerpOperator,
    initial: np.ndarray,
    t_grid: Sequence[float],
    keep_states: bool = True,
) -> PropagatorResult:
    """Evolve a flat state through exp(-i A t) on the sorted, finite, nonnegative grid.

    A state whose shape is not ``(op.dim,)`` raises DimensionMismatch.  It takes
    ``evolve``, the one u_+/u_- evolution, of the record the operator keeps (tag
    "Eigen"); where that record refuses its modes or residual, it applies the
    dense 2N x 2N ``scipy.linalg.expm(-i t A)`` per time sample (tag "Oracle", the
    tests' reference, exact at t = 0; N x N on the parts: barely faster, less exact).
    """
    t_grid = _time_grid(t_grid)
    u0 = np.asarray(initial, complex)
    if u0.shape != (op.dim,):
        raise DimensionMismatch(f"initial state has shape {u0.shape}, operator needs ({op.dim},)")

    rec = op._record
    try:
        rec.residual  # refuses what the modes refuse, then a residual above 1e-8
    except NotDiagonalizable:
        import scipy.linalg

        states = np.empty((len(t_grid), len(u0)), dtype=complex)
        for i, t in enumerate(t_grid):
            states[i] = scipy.linalg.expm(-1j * t * op.matrix) @ u0
        tag = "Oracle"
    else:
        states = rec.evolve(u0, t_grid)[0]
        tag = "Eigen"

    return PropagatorResult(
        t_grid=t_grid,
        norms=op.norm(states),
        states=states if keep_states else None,
        method=tag,
    )


@dataclass
class EnvelopeFit:
    exponent: float  # power of k in the rate law (0 for Mid)
    rate_constant: float  # C: every per-k rate >= C * k^(-exponent) (HF) or C * k^exponent (LF)
    prefactor: float  # max over k of sum_n |Pi_n(k)|_W: |exp(-i A t)|_W <= prefactor * exp(-rate t)
    per_k: list  # (k, rate = -max_n Im w_n(k)) samples
    residual: float  # HF, LF: std of log(rate / (C k^power)); Mid: gap to the abscissa


def _envelope(medium, side, power, k_list) -> EnvelopeFit:
    """The envelope |exp(-i A(k) t)|_W <= prefactor * exp(-C k^power t) on the sampled k.

    Each per-k rate is -max_n Im w_n over the modal record's certified spectrum.
    Refuses, in this order: an empty k_list (ValueError), what the record's
    dispersion rows refuse (InvalidWavenumber for a non-positive or non-finite k),
    what its modes refuse, a failed root certificate, and a nonpositive rate.
    """
    ks = np.asarray(k_list, dtype=float).reshape(-1)
    if not len(ks):
        raise ValueError("an envelope needs at least one wavenumber")
    rec = _ModalRecord(medium, ks)
    rec.rows  # the wavenumber refusals come before any eig
    pref = float(np.max(rec.norms.sum(axis=1)))
    rates = -rec.spectrum.imag.max(axis=1)
    if np.any(rates <= 0):
        raise BandViolation(f"nonpositive decay rate in the {side} band")
    c = float(np.min(rates / ks**power))
    resid = float(np.std(np.log(rates / (c * ks**power))))
    return EnvelopeFit(abs(power), c, pref, list(zip(ks.tolist(), rates.tolist())), resid)


def hf_envelope_check(medium: LorentzMedium, k_list: Sequence[float]) -> EnvelopeFit:
    """The high-band envelope |U| <= prefactor * exp(-C t / k^e).

    e = -p of the decay law of the slowest high-band branch (``_slowest_hf_branch``),
    the branch verify_gamma_hf runs on: 2, or 4 in the critical configuration.
    """
    return _envelope(medium, "high", _slowest_hf_branch(medium)[1][1], k_list)


def lf_envelope_check(medium: LorentzMedium, k_list: Sequence[float]) -> EnvelopeFit:
    """The low-band envelope |U| <= prefactor * exp(-C k^2 t)."""
    return _envelope(medium, "low", 2.0, k_list)


def midband_rate(
    medium: LorentzMedium,
    k_band: tuple[float, float],
    samples: int = 20,
) -> EnvelopeFit:
    """Uniform exponential rate over the compact band [k_minus, k_plus].

    The rate is the minimum per-k modal rate over ``samples`` log-spaced
    wavenumbers; it must be positive, and ``residual`` is its relative gap to the
    spectral abscissa of ``solve_dispersion`` at the same wavenumbers.  Unless
    0 < k_minus < k_plus < inf and samples is an integer >= 1, it raises ValueError.
    """
    k_lo, k_hi = k_band
    if not 0 < k_lo < k_hi < np.inf:
        raise ValueError("mid band must start at a positive wavenumber and end finite above it")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"mid band needs an integer samples >= 1, got samples={samples!r}")
    ks = _log_points(k_lo, k_hi, samples)
    # slowest modal rate over the sampled band: minus the spectral abscissa
    abscissa = -float(np.max(solve_dispersion(medium, ks).imag))
    if abscissa <= 0:
        raise NonPositiveRate("spectrum reaches the real axis inside the band")
    fit = _envelope(medium, "mid", 0.0, ks)
    return replace(fit, residual=abs(fit.rate_constant - abscissa) / abscissa)
