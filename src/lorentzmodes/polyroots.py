"""Companion-matrix root finding for complex polynomials.

Roots come from the balanced companion matrix, then up to five Newton steps
on the original polynomial. Every root must pass a backward-error residual
certificate before it is returned. ``certified_roots`` does this for a stack
of same-degree polynomials at once; ``companion_roots`` deflates the exact
origin roots of one polynomial (the dispersion polynomial at k = 0 has two)
and hands the rest to the same core.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import RootFindingFailure

#: relative backward error accepted for a root
RESIDUAL_TOL = 1e-10

NEWTON_STEPS = 5


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

    scale = polyval(np.abs(roots), np.abs(coeffs), tensor=False)
    errs = np.divide(
        np.abs(polyval(roots, coeffs, tensor=False)),
        scale,
        out=np.full(roots.shape, np.inf),
        where=scale > 0,
    )
    if np.any(errs > residual_tol):
        raise RootFindingFailure(
            f"root residual certificate failed: max backward error {errs.max():.3e}"
        )
    return roots


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of one polynomial (ascending coefficients, nonzero last entry).

    Exact origin roots (zero low-order coefficients), where a relative backward
    error is meaningless, are deflated; raises RootFindingFailure when any
    other root fails the certificate of ``certified_roots``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    origin = int(np.argmax(coeffs != 0))
    return np.concatenate([np.zeros(origin, complex), certified_roots(coeffs[None, origin:])[0]])
