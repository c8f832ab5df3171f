"""Certified root finding for complex polynomials.

``certified_roots`` finds every root of a stack of same-degree polynomials:
the balanced companion matrix gives first guesses, then up to five Newton
steps on the original polynomial.  ``companion_roots`` deflates the exact
origin roots of one polynomial (the dispersion polynomial at k = 0 has two)
and hands the rest to the same core.  ``certified_root_near`` finds only the
root nearest a start point, by Newton from that point, and reports per row
whether a Rouché exclusion disk proves it is that root.  Every root must pass
a backward-error residual certificate before it is returned or settled.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import RootFindingFailure

#: relative backward error accepted for a root
RESIDUAL_TOL = 1e-10

NEWTON_STEPS = 5


def _backward_errors(roots: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """|p(r)| / sum |c_i||r|^i, with coefficients as (n+1, m[, 1]) columns; inf where it is 0/0."""
    scale = polyval(np.abs(roots), np.abs(coeffs), tensor=False)
    return np.divide(
        np.abs(polyval(roots, coeffs, tensor=False)),
        scale,
        out=np.full(roots.shape, np.inf),
        where=scale > 0,
    )


def certified_roots(rows: np.ndarray, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Roots of every row of an (m, n+1) stack of ascending coefficients.

    Each row must have degree n >= 1 (nonzero last entry).  Returns the (m, n)
    refined roots; raises RootFindingFailure when any root of any row fails
    the certificate |p(r)| / sum |c_i||r|^i < residual_tol.
    """
    rows = np.asarray(rows, dtype=complex)
    m, n = rows.shape[0], rows.shape[1] - 1
    comp = np.zeros((m, n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -(rows[:, :-1] / rows[:, -1:])
    roots = np.linalg.eigvals(comp)  # geev balances internally

    # coefficients as (n+1, m, 1): each Horner step broadcasts over a row's roots
    # (numpy's polyval takes (x, c); tensor=False pairs row i's roots with column i)
    coeffs = rows.T[:, :, None]
    deriv = coeffs[1:] * np.arange(1, n + 1)[:, None, None]
    for _ in range(NEWTON_STEPS):
        pv = polyval(roots, coeffs, tensor=False)
        dv = polyval(roots, deriv, tensor=False)
        ok = np.abs(dv) > 0
        step = np.zeros_like(roots)
        step[ok] = pv[ok] / dv[ok]
        # damp steps that would jump across the root spacing
        step = np.where(np.abs(step) < 1.0 + np.abs(roots), step, 0.0)
        roots = roots - step

    errs = _backward_errors(roots, coeffs)
    if np.any(errs > residual_tol):
        raise RootFindingFailure(
            f"root residual certificate failed: max backward error {errs.max():.3e}"
        )
    return roots


def certified_root_near(rows: np.ndarray, start):
    """(roots, settled): the root of each row of an (m, n+1) stack nearest its start point.

    Runs NEWTON_STEPS Newton steps on row i from start[i] (Horner for p and
    p').  Row i is settled when its root r passes the backward-error
    certificate (RESIDUAL_TOL) and a Rouché test proves r the only
    root in the disk D(a, R), a = start[i], R = 2|r - a|: with c_j the Taylor
    coefficients of the row at a, |c_1| R > |c_0| + sum_{j>=2} |c_j| R^j.
    Every other root then lies at least R from a, so r is the root nearest a.
    An unsettled row's root is unchecked and must not be used.
    """
    coeffs = np.ascontiguousarray(np.asarray(rows, dtype=complex).T)  # (n+1, m): c_j of every row
    a = np.asarray(start, dtype=complex).reshape(coeffs.shape[1])
    n = len(coeffs) - 1
    with np.errstate(all="ignore"):  # a diverging row ends non-finite and unsettled
        roots = a.copy()
        for _ in range(NEWTON_STEPS):
            p, dp = coeffs[n], np.zeros_like(roots)
            for j in range(n - 1, -1, -1):
                dp = dp * roots + p
                p = p * roots + coeffs[j]
            roots = roots - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)

        # Taylor coefficients at a by repeated synthetic division (Horner's shift)
        taylor = coeffs.copy()
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                taylor[j] += a * taylor[j + 1]
        radius = np.maximum(2.0 * np.abs(roots - a), 1e-12 * (1.0 + np.abs(a)))
        higher = radius**2 * polyval(radius, np.abs(taylor[2:]), tensor=False)
        alone = np.abs(taylor[1]) * radius > np.abs(taylor[0]) + higher
        errs = _backward_errors(roots, coeffs)
    return roots, alone & (errs <= RESIDUAL_TOL)


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of one polynomial (ascending coefficients, nonzero last entry).

    Exact origin roots (zero low-order coefficients), where a relative backward
    error is meaningless, are deflated; raises RootFindingFailure when any
    other root fails the certificate of ``certified_roots``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    origin = int(np.argmax(coeffs != 0))
    return np.concatenate([np.zeros(origin, complex), certified_roots(coeffs[None, origin:])[0]])
