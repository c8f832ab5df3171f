"""Certified root finding for polynomials whose roots are closed under w -> -conj(w).

The dispersion and family polynomials are, being built from real oscillator
data.  ``certified_roots`` solves q(s) = p(i s), s = -i w, for each row of a
stack: q_j = i^j c_j / (i^n c_n) is exactly real (multiplying by 1, i, -1 or
-i only swaps and negates parts; a row left with an imaginary part lacks the
symmetry and raises RootFindingFailure).  The balanced real companion matrix
of q gives first guesses in exact conjugate pairs, then ``_newton`` runs five
damped Newton steps on q (a step longer than 1 + |root| is skipped), so the
roots w = i s are closed under w -> -conj(w) bit for bit.  That companion
solve is the only one.  ``_guessed_roots`` starts a given number of the same
Newton steps from guesses instead (mirror-closed roots of a nearby row, or a
prediction from them); a row keeps the result only when every root has
converged to rounding (backward error <= 16 u, and a last Newton step whose
quadratic remainder lies inside the root's rounding ball) and pairwise
disjoint Weierstrass disks prove it the whole root set.  It reports which
rows kept their guesses and sends the others through ``certified_roots``.
Every entry takes the (m, n+1) rows of ascending coefficients; the (n+1, m, 1)
coefficient columns that Newton and the certificates broadcast over are built
here alone.  ``companion_roots`` deflates the exact origin roots of one
polynomial (the dispersion polynomial at k = 0 has two) and hands the rest to
the same companion solve.  ``certified_root_near`` finds only the root
nearest a start point, by the same damped Newton steps from that point, and
reports per row whether a Rouché exclusion disk proves it is that root.
Every root must pass a backward-error residual certificate (the same in s as
in w) before it is returned or settled; ``certify`` is that gate for roots
found elsewhere (the eigenvalues of the u_+ operator).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DegenerateLeadingCoefficient, RootFindingFailure

#: relative backward error accepted for a root
RESIDUAL_TOL = 1e-10

#: u, the unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53

#: backward error of a root kept from a guess: Newton has converged to rounding
GUESS_TOL = 16 * UNIT_ROUNDOFF

NEWTON_STEPS = 5


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """(p(x), p'(x)) for ascending coefficients along the first axis, broadcast against x."""
    p, dp = coeffs[-1], np.zeros_like(x)
    for c in coeffs[-2::-1]:
        dp, p = dp * x + p, p * x + c
    return p, dp


def _backward_errors(roots: np.ndarray, coeffs: np.ndarray, scale=None) -> np.ndarray:
    """|p(r)| / sum |c_i||r|^i, with coefficients as (n+1, m[, 1]) columns; inf where it is 0/0.

    scale, if given, is the denominator sum |c_i||r|^i already computed.
    """
    if scale is None:
        scale = polyval(np.abs(roots), np.abs(coeffs), tensor=False)
    return np.divide(
        np.abs(polyval(roots, coeffs, tensor=False)),
        scale,
        out=np.full(roots.shape, np.inf),
        where=scale > 0,
    )


def _newton(coeffs: np.ndarray, roots: np.ndarray, steps: int = NEWTON_STEPS) -> np.ndarray:
    """Damped Newton steps on every root; coefficients along the first axis, as _horner."""
    for _ in range(steps):
        pv, dv = _horner(coeffs, roots)
        step = np.divide(pv, dv, out=np.zeros_like(pv), where=dv != 0)
        # damp steps that would jump across the root spacing
        roots = roots - np.where(np.abs(step) < 1.0 + np.abs(roots), step, 0.0)
    return roots


def _companion_newton(q: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Roots of the (m, n+1) monic real rows q: companion eigenvalues, then Newton on coeffs."""
    m, n = q.shape[0], q.shape[1] - 1
    comp = np.zeros((m, n, n))
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -q[:, :-1]
    return _newton(coeffs, np.linalg.eigvals(comp).astype(complex))  # geev balances internally


def _isolated(roots: np.ndarray, step: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per row of (m, n) roots of the monic columns coeffs: whether it is all n roots, converged.

    With ball_i = u sum |q_j||z_i|^j / prod_{j != i} |z_i - z_j| the
    rounding ball of root i (u = 2^-53), a row passes when
    - every root has a backward error of at most GUESS_TOL = 16 u;
    - the Weierstrass disks D(z_i, 16 n ball_i) are pairwise disjoint, so
      each holds exactly one root (Carstensen, Numer. Math. 59 (1991) 349);
    - each root's last Newton step delta_i leaves a quadratic remainder
      |delta_i|^2 sum_{j != i} 1 / |z_i - z_j| within ball_i.  A root can
      first reach 16 u at the last step still a dozen balls out (3e-13
      relative, N = 16, 20 points per decade); this refuses it.
    """
    n = roots.shape[1]
    dist = np.abs(roots[:, :, None] - roots[:, None, :])
    diagonal = np.arange(n)
    dist[:, diagonal, diagonal] = 1.0
    scale = polyval(np.abs(roots), np.abs(coeffs), tensor=False)
    ball = UNIT_ROUNDOFF * scale / np.prod(dist, axis=2)
    radius = 16 * n * ball
    apart = dist > radius[:, :, None] + radius[:, None, :]
    apart[:, diagonal, diagonal] = True
    dist[:, diagonal, diagonal] = np.inf
    settled = np.abs(step) ** 2 * np.sum(1.0 / dist, axis=2) <= ball
    converged = _backward_errors(roots, coeffs, scale) <= GUESS_TOL
    return np.all(converged & settled & np.all(apart, axis=2), axis=1)


def _monic(rows: np.ndarray) -> np.ndarray:
    """The monic q(s) = p(i s) / (i^n c_n) of each (m, n+1) row, complex but exactly real.

    Raises DegenerateLeadingCoefficient for a zero last entry, and
    RootFindingFailure when a row lacks the w -> -conj(w) symmetry.
    """
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[1] - 1
    degenerate = np.flatnonzero(rows[:, -1] == 0)
    if degenerate.size:
        raise DegenerateLeadingCoefficient(f"row {degenerate[0]} has a zero leading coefficient")
    q = rows * np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]
    q = q / q[:, -1:]
    if np.any(q.imag != 0):
        raise RootFindingFailure("w -> -conj(w) symmetry missing: p(i s) is not real")
    return q


def certified_roots(rows: np.ndarray) -> np.ndarray:
    """Roots of every row of an (m, n+1) stack of ascending coefficients.

    Each row must have degree n >= 1 (nonzero last entry) and roots closed
    under w -> -conj(w).  Returns the (m, n) roots of the companion solve,
    refined by Newton; raises DegenerateLeadingCoefficient for a zero last
    entry, and RootFindingFailure when a row lacks that symmetry or any root
    fails the certificate |p(r)| / sum |c_i||r|^i < RESIDUAL_TOL.
    """
    q = _monic(rows)
    # the mirror of i s: Re w > 0 first per pair, +0.0 on the axis
    return 1j * certify(_companion_newton(q.real, q.T[:, :, None]), q).conj()


def _guessed_roots(rows: np.ndarray, guesses: np.ndarray, steps: int):
    """(roots, kept): the roots of rows as ``certified_roots`` returns them, started from guesses.

    guesses, an (m, n) stack of rows closed under w -> -conj(w) (the roots
    of a nearby row, say), replaces the companion eigenvalues as the start of
    steps damped Newton steps.  A row keeps its guessed roots, each in its
    guess's position, only if ``_isolated`` proves them all n roots,
    converged to rounding; kept marks those rows, and every other row is
    solved by ``certified_roots``.  A kept row's certificate is
    ``_isolated``'s backward error <= GUESS_TOL = 16 u, the same quotient far
    below RESIDUAL_TOL, so it is not evaluated again.
    """
    q = _monic(rows)
    # (n+1, m, 1) columns, complex so Horner never casts; each broadcasts over a row's roots
    coeffs = q.T[:, :, None]
    roots = np.empty((len(q), q.shape[1] - 1), dtype=complex)
    w = np.asarray(guesses, dtype=complex)
    roots.real, roots.imag = w.imag, w.real  # s = i conj(w), the inverse of the output map
    with np.errstate(all="ignore"):  # a non-finite or duplicated guess fails _isolated
        before = _newton(coeffs, roots, steps - 1)
        roots = _newton(coeffs, before, 1)
        kept = _isolated(roots, roots - before, coeffs)
    roots = 1j * roots.conj()
    if not kept.all():
        roots[~kept] = certified_roots(rows[~kept])
    return roots, kept


def certify(roots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """roots if |p(r)| / sum |c_i||r|^i <= RESIDUAL_TOL for each root r of each (m, n+1) row."""
    errs = _backward_errors(roots, rows.T[..., None])
    if np.any(errs > RESIDUAL_TOL):
        raise RootFindingFailure(
            f"root residual certificate failed: max backward error {errs.max():.3e}"
        )
    return roots


def certified_root_near(rows: np.ndarray, start):
    """(roots, settled): the root of each row of an (m, n+1) stack nearest its start point.

    Runs the NEWTON_STEPS damped Newton steps of ``_newton`` on row i from
    start[i].  Row i is settled when its root r passes the backward-error
    certificate (RESIDUAL_TOL) and a Rouché test proves r the only
    root in the disk D(a, R), a = start[i], R = 2|r - a|: with c_j the Taylor
    coefficients of the row at a, |c_1| R > |c_0| + sum_{j>=2} |c_j| R^j.
    Every other root then lies at least R from a, so r is the root nearest a.
    An unsettled row's root is unchecked and must not be used.
    """
    coeffs = np.ascontiguousarray(np.asarray(rows, dtype=complex).T)  # (n+1, m): c_j of every row
    a = np.asarray(start, dtype=complex).reshape(coeffs.shape[1])
    n = len(coeffs) - 1
    with np.errstate(all="ignore"):  # a diverging row ends unsettled
        roots = _newton(coeffs, a)
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
    error is meaningless, are deflated; raises what ``certified_roots`` raises
    on the rest.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    origin = int(np.argmax(coeffs != 0))
    return np.concatenate([np.zeros(origin, complex), certified_roots(coeffs[None, origin:])[0]])
