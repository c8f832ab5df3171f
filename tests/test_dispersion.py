"""Dispersion polynomial, root branches, classification, branch-series engine."""

import cmath
import itertools
import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

import lorentzmodes as lm
from lorentzmodes import dispersion as dsp
from lorentzmodes import polyroots
from lorentzmodes.errors import (
    AsymptoticMismatch,
    AssumptionViolated,
    BranchCollision,
    DegenerateLeadingCoefficient,
    DuplicateOscillator,
    InvalidWavenumber,
    LorentzModesError,
    RootFindingFailure,
    UnclassifiableBranch,
)
from lorentzmodes.operators import build_perp_operator
from lorentzmodes.polyroots import (
    NEWTON_STEPS,
    _guessed_roots,
    certified_root_near,
    certified_roots,
    companion_roots,
)


class TestPolynomial:
    def test_degree_and_leading_coefficient(self, reference_medium):
        row = dsp.dispersion_polynomial(reference_medium, 1.0)
        assert len(row) - 1 == reference_medium.state_blocks
        assert row[-1] == pytest.approx(1.0)

    def test_leading_coefficient_scales_with_vacuum(self):
        m = lm.new_medium(2.0, 0.5, [(1, 1, 0.1)], [])
        row = dsp.dispersion_polynomial(m, 0.7)
        assert row[-1] == pytest.approx(1.0)  # eps0 * mu0

    def test_k0_roots_are_the_zero_catalog(self, reference_medium):
        roots = np.sort_complex(dsp.solve_dispersion(reference_medium, 0.0))
        expected = np.sort_complex(
            np.array(
                [
                    z.location
                    for z in reference_medium.catalog.zeros
                    for _ in range(z.multiplicity)
                ]
            )
        )
        np.testing.assert_allclose(roots, expected, atol=1e-10)

    def test_conjugation_symmetry_of_values(self, reference_medium):
        row = dsp.dispersion_polynomial(reference_medium, 2.3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = complex(rng.normal(), rng.normal())
            assert polyval(-np.conj(w), row) == pytest.approx(np.conj(polyval(w, row)), rel=1e-12)

    def test_residual_certificate(self, reference_medium):
        for k in (1e-3, 1.0, 1e3):
            row = dsp.dispersion_polynomial(reference_medium, k)
            roots = dsp.solve_dispersion(reference_medium, k)
            bound = 1e-8 * np.max(np.abs(row))
            assert all(abs(polyval(r, row)) <= bound * max(1.0, abs(r)) ** (len(row) - 1)
                       for r in roots)


class TestSolve:
    def test_undamped_roots_real(self, undamped_medium):
        for k in (0.01, 0.5, 3.0, 100.0):
            roots = dsp.solve_dispersion(undamped_medium, k)
            assert np.max(np.abs(roots.imag)) < 1e-9

    def test_weak_dissipation_strictly_below_axis(self, critical_medium):
        for k in (0.1, 1.0, 10.0):
            roots = dsp.solve_dispersion(critical_medium, k)
            assert np.all(roots.imag < 0)

    def test_multiset_conjugation_symmetry(self, reference_medium):
        roots = dsp.solve_dispersion(reference_medium, 0.37)
        mirrored = np.sort_complex(-np.conj(roots))
        np.testing.assert_allclose(np.sort_complex(roots), mirrored, atol=1e-9)

    def test_roots_match_operator_eigenvalues_doubled(self, reference_medium):
        roots = np.sort_complex(dsp.solve_dispersion(reference_medium, 1.0))
        op = build_perp_operator(reference_medium, 1.0)
        eigs = np.sort_complex(scipy.linalg.eigvals(op.matrix))
        np.testing.assert_allclose(np.repeat(roots, 2), eigs, atol=1e-8)

    def test_stacked_rows_equal_scalar_calls(self, reference_medium):
        grid = dsp.default_k_grid(reference_medium)
        stacked = dsp.solve_dispersion(reference_medium, grid)
        assert stacked.shape == (len(grid), reference_medium.state_blocks)
        for k, row in zip(grid, stacked):
            np.testing.assert_array_equal(row, dsp.solve_dispersion(reference_medium, k))

    def test_stacked_certificate_still_gates(self, monkeypatch, reference_medium):
        rows = dsp.dispersion_polynomial(reference_medium, np.array([0.1, 1.0, 10.0]))
        np.testing.assert_array_equal(rows[1], dsp.dispersion_polynomial(reference_medium, 1.0))
        assert certified_roots(rows).shape == (3, reference_medium.state_blocks)
        monkeypatch.setattr(polyroots, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(RootFindingFailure):
            certified_roots(rows)

    def test_stacked_solve_rejects_rows_the_scalar_path_reshapes(self, reference_medium):
        # k = 0 deflates two roots at the origin; at k = 1e7 and 1e8 the leading
        # coefficient vanishes against the k^2 terms, and a scalar k is a one-row stack
        with pytest.raises(ValueError):
            dsp.solve_dispersion(reference_medium, np.array([0.0, 1.0]))
        with pytest.raises(DegenerateLeadingCoefficient):
            dsp.solve_dispersion(reference_medium, np.array([1.0, 1e8]))
        with pytest.raises(DegenerateLeadingCoefficient):
            dsp.solve_dispersion(reference_medium, 1e7)

    def test_non_finite_wavenumber_refused_typed(self, reference_medium):
        # scalar and stacked alike, with the bad k in the message
        for k in (np.nan, np.array([1.0, np.nan]), np.array([1.0, np.inf])):
            with pytest.raises(InvalidWavenumber, match=r"k = (nan|inf)"):
                dsp.solve_dispersion(reference_medium, k)
        assert issubclass(InvalidWavenumber, LorentzModesError)
        assert issubclass(InvalidWavenumber, ValueError)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1, 1)])
    def test_wavenumber_of_more_than_one_dimension_refused_typed(self, reference_medium, shape):
        with pytest.raises(InvalidWavenumber, match=re.escape(f"a 1-D array, got shape {shape}")):
            dsp.solve_dispersion(reference_medium, np.ones(shape))

    @pytest.mark.parametrize("density", [0, 0.5, -1, np.nan])
    def test_grid_density_below_one_refused(self, reference_medium, density):
        with pytest.raises(ValueError, match="points_per_decade must be at least 1"):
            dsp.default_k_grid(reference_medium, density)

    def test_trim_threshold_is_the_whole_row_test(self, reference_medium):
        # grids ending at the last float k the whole-row modulus test passes, and at the next
        def trimmed(k):
            rows = dsp.dispersion_polynomial(reference_medium, np.atleast_1d(k))
            return np.any(np.abs(rows[:, -1]) <= dsp.TRIM_TOL * np.max(np.abs(rows), axis=1))

        below, past = 1e6, 1e8
        assert not trimmed(below) and trimmed(past)
        while np.nextafter(below, past) < past:
            mid = 0.5 * (below + past)
            below, past = (below, mid) if trimmed(mid) else (mid, past)
        assert 1e6 < below < 1e8
        message = "leading dispersion coefficient vanishes relative to the k\\^2 terms"
        for k in (np.geomspace(1e-3, below, 50), below):
            assert not trimmed(k)
            np.testing.assert_array_equal(dsp._solvable_rows(reference_medium, k),
                                          dsp.dispersion_polynomial(reference_medium,
                                                                    np.atleast_1d(k)))
        for k in (np.geomspace(1e-3, past, 50), past, np.array([past, below])):
            assert trimmed(k)
            with pytest.raises(DegenerateLeadingCoefficient, match=f"^{message}$"):
                dsp._solvable_rows(reference_medium, k)



def _log_point_cases(case, request):
    """(lo, hi, n) of every log-spaced grid the library builds for ``case``."""
    reference = request.getfixturevalue("reference_medium")
    k_minus, k_plus = reference.diagnosed_bands
    grid = dsp.default_k_grid(reference)
    if case == "default k grids":
        media = ("reference_medium", "critical_medium", "double_pole_medium", "wide_medium")
        grids = [dsp.default_k_grid(request.getfixturevalue(name)) for name in media]
        return [(g[0], g[-1], len(g)) for g in grids]
    if case == "exponent time grids":
        from lorentzmodes import energy as en

        critical, wide = (request.getfixturevalue(n) for n in ("critical_medium", "wide_medium"))
        runs = [en.verify_gamma_lf(reference, p) for p in (0.0, 1.0, 2.0)]
        runs += [en.verify_gamma_hf(m, 2.0) for m in (reference, critical, wide)]
        runs.append(en.verify_gamma_lf(wide, 0.0))
        return [(r.record.t_grid[0], r.record.t_grid[-1], len(r.record.t_grid)) for r in runs]
    if case == "panel edges":
        bands = [(k_minus / 1e3, k_minus), (k_plus, 1e3 * k_plus)]
        return [(lo, hi, n + 1) for lo, hi in bands for n in range(1, 17)]
    if case == "one point":
        return [(k_minus, k_plus, 1), (2.0, 2.0, 1)]
    if case == "projector sweeps":  # cli.cmd_projectors, default and one sample
        return [(lo, hi, n) for n in (12, 1) for lo, hi in (
            (k_plus, min(100 * k_plus, grid[-1])), (max(k_minus / 100, grid[0]), k_minus))]
    assert case == "midband samples"  # evolution.midband_rate
    return [(k_minus, k_plus, 16), (0.5, 5.0, 12), (0.5, 5.0, 20), (0.8, 2.0, 8)]


class TestLogPoints:
    @pytest.mark.parametrize("case", [
        "default k grids", "exponent time grids", "panel edges", "one point",
        "projector sweeps", "midband samples",
    ])
    def test_bit_identical_to_geomspace(self, case, request):
        cases = _log_point_cases(case, request)
        assert cases
        for lo, hi, n in cases:
            points = dsp._log_points(lo, hi, n)
            assert points.dtype == np.float64
            assert np.array_equal(points, np.geomspace(lo, hi, n)), (lo, hi, n)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, np.nan)])
    def test_non_positive_endpoint_refused(self, lo, hi):
        with pytest.raises(ValueError, match="log-spaced points need positive endpoints"):
            dsp._log_points(lo, hi, 5)


#: damping / resonance range of each oscillator regime; near-critical damping
#: (about twice the resonance) puts the two roots of its quadratic close together
_DAMPING_REGIMES = {
    "underdamped": (0.02, 1.5),
    "overdamped": (2.0, 4.0),
    "near_critical": (2.0 - 1e-3, 2.0 + 1e-3),
    "lossless": (0.0, 0.0),
}


@st.composite
def admissible_media(draw):
    """Media of 1-4 electric and 0-3 magnetic oscillators that pass H1 and H2."""

    def oscillator():
        coupling, resonance = draw(st.floats(0.3, 1.5)), draw(st.floats(0.5, 5.0))
        low, high = _DAMPING_REGIMES[draw(st.sampled_from(sorted(_DAMPING_REGIMES)))]
        return coupling, resonance, resonance * draw(st.floats(low, high))

    electric = [oscillator() for _ in range(draw(st.integers(1, 4)))]
    magnetic = [oscillator() for _ in range(draw(st.integers(0, 3)))]
    try:
        medium = lm.new_medium(1.0, 1.0, electric, magnetic)
        medium.require_assumptions()
    except (DuplicateOscillator, AssumptionViolated):
        assume(False)
    return medium


class TestCertifiedRootNear:
    # (z - 1)(z + 1)(z - 3i), ascending
    CUBIC = np.array([3j, -1.0, -3j, 1.0])

    def test_start_near_a_root_settles_to_it(self):
        roots, settled = certified_root_near(self.CUBIC[None], np.array([0.9]))
        assert settled.tolist() == [True]
        assert abs(roots[0] - 1.0) <= 1e-15

    def test_equidistant_start_is_unsettled(self):
        # 0 is as near to -1 as to +1: no disk about it holds one root alone
        _, settled = certified_root_near(self.CUBIC[None], np.array([0.0]))
        assert settled.tolist() == [False]

    def test_certificate_still_gates(self, monkeypatch):
        rows = np.stack([self.CUBIC, self.CUBIC])
        start = np.array([0.9, -1.1])
        roots, settled = certified_root_near(rows, start)
        np.testing.assert_allclose(roots, [1.0, -1.0], atol=1e-15)
        assert settled.all()
        monkeypatch.setattr(polyroots, "RESIDUAL_TOL", 1e-300)
        _, settled = certified_root_near(rows, start)
        assert not settled.any()

    def test_settled_roots_are_the_nearest_certified_roots(self, reference_medium):
        ks = np.geomspace(0.1, 100.0, 40)
        rows = dsp.dispersion_polynomial(reference_medium, ks)
        full = certified_roots(rows)
        rng = np.random.default_rng(3)
        start = full[:, 0] + 0.05 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        roots, settled = certified_root_near(rows, start)
        nearest = full[np.arange(40), np.argmin(np.abs(full - start[:, None]), axis=1)]
        assert settled.any()
        np.testing.assert_allclose(roots[settled], nearest[settled], rtol=1e-13)

    @pytest.mark.parametrize("name", ["reference_medium", "double_pole_medium"])
    def test_start_on_the_root_settles(self, request, name):
        # the disk about r shrinks to its rounding radius, where the disk about a vanished
        medium = request.getfixturevalue(name)
        k_minus, k_plus = medium.diagnosed_bands
        ks = np.concatenate([np.geomspace(k_minus / 1e4, k_minus, 60),
                             np.geomspace(k_plus, 1e3 * k_plus, 60)])
        full = certified_roots(dsp.dispersion_polynomial(medium, ks))
        n = full.shape[1]
        rows = np.repeat(dsp.dispersion_polynomial(medium, ks), n, axis=0)
        roots, settled = certified_root_near(rows, full.ravel())
        assert settled.all()
        nearest = np.argmin(np.abs(np.repeat(full, n, axis=0) - roots[:, None]), axis=1)
        np.testing.assert_array_equal(nearest, np.tile(np.arange(n), len(ks)))

    @given(admissible_media(), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_settled_root_is_nearest_the_start(self, medium, log_k, seed):
        k = 10.0**log_k
        try:
            full = dsp.solve_dispersion(medium, k)
        except LorentzModesError:
            assume(False)
        rng = np.random.default_rng(seed)
        n, draws = len(full), 32
        near = full[rng.integers(n, size=draws)]
        spread = 10.0 ** rng.uniform(-8, 0, draws) * (1.0 + np.abs(near))
        start = near + spread * (rng.uniform(-1, 1, draws) + 1j * rng.uniform(-1, 1, draws))
        rows = np.repeat(dsp.dispersion_polynomial(medium, np.array([k])), draws, axis=0)
        roots, settled = certified_root_near(rows, start)
        for r, a in zip(roots[settled], start[settled]):
            assert np.argmin(np.abs(full - a)) == np.argmin(np.abs(full - r))

    def test_zero_or_overflowing_root_is_unsettled(self):
        # z (z - 1)(z + 1) from 0; 1e280 (z - 1e10)(z - 1)(z + 1) from its root, whose
        # scaled coefficient c_3 r^3 overflows
        rows = np.array([[0.0, -1.0, 0.0, 1.0], [1e290, -1e280, -1e290, 1e280], self.CUBIC])
        roots, settled = certified_root_near(rows, np.array([0.0, 1e10, 0.9]))
        assert roots[0] == 0 and roots[1] == 1e10
        assert settled.tolist() == [False, False, True]


def _rotated_columns(rows):
    """The monic real q(s) = p(i s) of each row as polyroots' (n+1, m, 1) Newton columns."""
    n = rows.shape[1] - 1
    q = rows * np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]
    return (q / q[:, -1:]).T[:, :, None]


class TestGuessedRoots:
    """_guessed_roots keeps a certified row and solves any other row by certified_roots."""

    @pytest.fixture
    def rows(self, reference_medium):
        return dsp.dispersion_polynomial(reference_medium, np.array([1.0, 2.0]))

    def _assert_falls_back(self, rows, guesses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _guessed_roots(rows, guesses, NEWTON_STEPS)[0]
        np.testing.assert_array_equal(got, certified_roots(rows))

    def test_good_guesses_are_kept(self, monkeypatch, reference_medium, rows):
        guesses = dsp.solve_dispersion(reference_medium, np.array([1.01, 2.02]))

        def no_companion(_):
            raise AssertionError("a guessed row reached the companion solve")

        monkeypatch.setattr(polyroots.np.linalg, "eigvals", no_companion)
        got = _guessed_roots(rows, guesses, NEWTON_STEPS)[0]
        for row, r in zip(rows, got):
            np.testing.assert_array_equal(np.sort_complex(r), np.sort_complex(-np.conj(r)))
            backward = np.abs(polyval(r, row)) / polyval(np.abs(r), np.abs(row))
            assert backward.max() <= polyroots.GUESS_TOL
        monkeypatch.undo()
        np.testing.assert_allclose(
            np.sort_complex(got[0]), np.sort_complex(certified_roots(rows)[0]), rtol=1e-14
        )

    def test_duplicated_guesses_fall_back(self, rows):
        # two starts on each of the two roots of largest modulus: a duplicated root
        guesses = certified_roots(rows)
        order = np.argsort(-np.abs(guesses), axis=1)
        doubled = np.take_along_axis(guesses, order, axis=1)
        doubled[:, 2:4] = doubled[:, 0:2]
        self._assert_falls_back(rows, doubled)

    def test_nan_guesses_fall_back(self, rows):
        self._assert_falls_back(rows, np.full((2, rows.shape[1] - 1), np.nan + 0j))

    @pytest.mark.parametrize("k_far, above_16u", [(1.85, True), (1.65, False)])
    def test_far_guesses_short_of_rounding_fall_back(self, reference_medium, k_far, above_16u):
        # five Newton steps from the k_far roots reach the k = 1 roots within the
        # 1e-10 certificate; from 1.85 not within 16 u, and from 1.65 within 16 u
        # only at the last step, whose quadratic remainder leaves them outside
        # their rounding balls
        row = dsp.dispersion_polynomial(reference_medium, np.array([1.0]))
        far = dsp.solve_dispersion(reference_medium, np.array([k_far]))
        s = np.empty_like(far)
        s.real, s.imag = far.imag, far.real
        columns = _rotated_columns(row)
        errs = polyroots._backward_errors(polyroots._newton(columns, s), columns)
        assert errs.max() < polyroots.RESIDUAL_TOL
        assert (errs.max() > polyroots.GUESS_TOL) == above_16u
        self._assert_falls_back(row, far)

    @pytest.mark.parametrize("delta, kept", [(1e-2, True), (1.2e-7, False)])
    def test_overlapping_weierstrass_disks_fall_back(self, delta, kept):
        # s-roots 1, 1 + delta and -2 from exact guesses: at delta = 1.2e-7 every root
        # has converged to rounding and settled, but the disks D(z_i, 16 n ball_i) of
        # the close pair overlap; at 8 n they would not (the two radii stop overlapping
        # at about 1.45e-7 and 1.02e-7)
        s = np.array([1.0, 1.0 + delta, -2.0])
        q = np.polynomial.polynomial.polyfromroots(s)
        coeffs = q.astype(complex)[:, None, None]
        before = polyroots._newton(coeffs, s[None] + 0j, polyroots.NEWTON_STEPS - 1)
        z = polyroots._newton(coeffs, before, 1)
        assert polyroots._isolated(z, z - before, coeffs).tolist() == [kept]

        assert polyroots._backward_errors(z, coeffs).max() <= polyroots.GUESS_TOL
        dist = np.abs(z[0, :, None] - z[0]) + np.diag(np.full(3, np.inf))
        denominator = np.prod(dist, axis=1, where=np.isfinite(dist))
        ball = polyroots.UNIT_ROUNDOFF * polyval(np.abs(z[0]), np.abs(q)) / denominator
        assert np.all(np.abs(z[0] - before[0]) ** 2 * np.sum(1.0 / dist, axis=1) <= ball)
        assert (dist[0, 1] <= 16 * 3 * (ball[0] + ball[1])) == (not kept)
        assert dist[0, 1] > 8 * 3 * (ball[0] + ball[1])

        rows = (q * np.array([1, -1j, -1, 1j]))[None]  # p(w) with p(i s) = q(s)
        reported, _ = _kept_and_roots(rows, 1j * s[None])
        assert reported.tolist() == [kept]
        if not kept:
            self._assert_falls_back(rows, 1j * s[None])

    def test_only_the_uncertified_row_falls_back(self, reference_medium, rows):
        guesses = dsp.solve_dispersion(reference_medium, np.array([1.01, 2.02]))
        guesses[1] = np.nan
        got = _guessed_roots(rows, guesses, NEWTON_STEPS)[0]
        first = _guessed_roots(rows[:1], guesses[:1], NEWTON_STEPS)[0]
        np.testing.assert_array_equal(got[0], first[0])
        np.testing.assert_array_equal(got[1], certified_roots(rows)[1])


def _assert_mirror_closed(medium, ks, solve=dsp.solve_dispersion):
    """Each stacked solve row is its own -conj set bit for bit, roots near the
    imaginary axis lie exactly on it, and every root passes the backward-error
    contract on the unrotated w row."""
    roots = solve(medium, ks)
    for row, r in zip(dsp.dispersion_polynomial(medium, ks), roots):
        np.testing.assert_array_equal(np.sort_complex(r), np.sort_complex(-np.conj(r)))
        near_axis = np.abs(r.real) <= 1e-9 * (1.0 + np.abs(r))
        assert np.all(r.real[near_axis] == 0.0)
        backward = np.abs(polyval(r, row)) / polyval(np.abs(r), np.abs(row))
        assert backward.max() < 1e-10


def _first_form_isolated(roots, step, coeffs):
    """``polyroots._isolated`` as first written: |prod (z_i - z_j)| of the complex
    differences, and the backward error evaluated on its own."""
    n = roots.shape[1]
    diff = roots[:, :, None] - roots[:, None, :]
    diagonal = np.arange(n)
    diff[:, diagonal, diagonal] = 1.0
    scale = polyval(np.abs(roots), np.abs(coeffs), tensor=False)
    ball = polyroots.UNIT_ROUNDOFF * scale / np.abs(np.prod(diff, axis=2))
    radius = 16 * n * ball
    apart = np.abs(diff) > radius[:, :, None] + radius[:, None, :]
    apart[:, diagonal, diagonal] = True
    diff[:, diagonal, diagonal] = np.inf
    settled = np.abs(step) ** 2 * np.sum(1.0 / np.abs(diff), axis=2) <= ball
    converged = polyroots._backward_errors(roots, coeffs) <= polyroots.GUESS_TOL
    return np.all(converged & settled & np.all(apart, axis=2), axis=1)


def _first_form_guessed_roots(rows, guesses):
    """(roots, kept) of ``_guessed_roots`` with the first-form certificate
    and a ``certify`` pass over every row, kept or not."""
    coeffs = _rotated_columns(np.asarray(rows, dtype=complex))
    q = coeffs[:, :, 0].T
    roots = np.empty(q[:, 1:].shape, dtype=complex)
    w = np.asarray(guesses, dtype=complex)
    roots.real, roots.imag = w.imag, w.real
    with np.errstate(all="ignore"):
        before = polyroots._newton(coeffs, roots, polyroots.NEWTON_STEPS - 1)
        roots = polyroots._newton(coeffs, before, 1)
        kept = _first_form_isolated(roots, roots - before, coeffs)
    if not kept.all():
        roots[~kept] = polyroots._companion_newton(q.real[~kept], coeffs[:, ~kept])
    polyroots.certify(roots, q)
    return 1j * roots.conj(), kept


def _kept_and_roots(rows, guesses):
    """(kept, roots) of ``_guessed_roots``, kept as ``_isolated`` reported it."""
    reported = []
    isolated = polyroots._isolated

    def recording(*args):
        reported.append(isolated(*args))
        return reported[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyroots, "_isolated", recording)
        roots = _guessed_roots(rows, guesses, NEWTON_STEPS)[0]
    (kept,) = reported
    return kept, roots


def _consecutive_rows(medium, points_per_decade):
    """Each default-grid row after the first, with its predecessor's roots as guesses."""
    grid = dsp.default_k_grid(medium, points_per_decade)
    return dsp.dispersion_polynomial(medium, grid[1:]), dsp.solve_dispersion(medium, grid[:-1])


class TestCertificateAgainstFirstForm:
    """One pass over the real distances and the backward error keeps exactly the rows the
    first form kept, and certifying only the fallback rows returns the same roots."""

    def _assert_same(self, rows, guesses):
        kept, roots = _kept_and_roots(rows, guesses)
        expected, expected_kept = _first_form_guessed_roots(rows, guesses)
        np.testing.assert_array_equal(kept, expected_kept)
        np.testing.assert_array_equal(roots, expected)
        return kept

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium",
                                      "double_pole_medium", "wide_medium"])
    def test_fixture_grids(self, request, name):
        medium = request.getfixturevalue(name)
        kept = [self._assert_same(*_consecutive_rows(medium, ppd)) for ppd in (5, 20, 200)]
        assert all(k.any() for k in kept)
        assert not kept[0].all()  # 5 points per decade: some rows fall back

    @given(admissible_media())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_media(self, medium):
        try:
            rows, guesses = _consecutive_rows(medium, 20)
        except LorentzModesError:
            assume(False)
        self._assert_same(rows, guesses)

    def test_failing_fallback_row_raises_the_same_message(self, monkeypatch, reference_medium):
        rows = dsp.dispersion_polynomial(reference_medium, np.array([1.0, 2.0, 3.0]))
        guesses = dsp.solve_dispersion(reference_medium, np.array([1.01, 2.02, 3.03]))
        guesses[1] = np.nan  # row 1 falls back; rows 0 and 2 are kept
        companion = polyroots._companion_newton
        monkeypatch.setattr(
            polyroots, "_companion_newton", lambda q, c: companion(q, c) * (1.0 + 1e-6)
        )
        with pytest.raises(RootFindingFailure) as expected:
            _first_form_guessed_roots(rows, guesses)
        with pytest.raises(RootFindingFailure) as got:
            _guessed_roots(rows, guesses, NEWTON_STEPS)
        assert str(got.value) == str(expected.value)
        assert "max backward error" in str(got.value)


class TestRootSymmetry:
    @pytest.mark.parametrize(
        "name",
        [
            "reference_medium",
            "asymmetric_medium",
            "critical_medium",
            "double_pole_medium",
            "ps_noncritical_medium",
            "wide_medium",
        ],
    )
    def test_fixture_roots_are_mirror_closed(self, request, name):
        medium = request.getfixturevalue(name)
        _assert_mirror_closed(medium, dsp.default_k_grid(medium))
        at_zero = dsp.solve_dispersion(medium, 0.0)
        np.testing.assert_array_equal(
            np.sort_complex(at_zero), np.sort_complex(-np.conj(at_zero))
        )

    @given(admissible_media())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_media_roots_are_mirror_closed(self, medium):
        _assert_mirror_closed(medium, np.geomspace(1e-2, 1e2, 41))

    @pytest.mark.parametrize(
        "row",
        [
            [1 + 1j, 1.0],
            [2.0, 1.0, 1.0],  # real coefficients: closed under conj, not under -conj
            [0.0, 0.0, 1 + 1j, 1.0],  # refused after the origin roots are deflated
        ],
    )
    def test_rows_without_the_symmetry_are_refused(self, row):
        row = np.array(row, dtype=complex)
        with pytest.raises(RootFindingFailure, match="symmetry"):
            companion_roots(row)
        if row[0] != 0:
            with pytest.raises(RootFindingFailure, match="symmetry"):
                certified_roots(row[None])

    @pytest.mark.parametrize(
        "solve, coeffs",
        [(certified_roots, np.array([[1.0, 0.0]])), (companion_roots, np.zeros(3))],
    )
    def test_zero_leading_coefficient_is_refused_without_warnings(self, solve, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateLeadingCoefficient, match="row 0"):
                solve(coeffs)

    def test_cubic_with_the_symmetry_is_solved(self):
        roots = np.sort_complex(certified_roots(TestCertifiedRootNear.CUBIC[None])[0])
        np.testing.assert_allclose(roots, [-1.0, 3j, 1.0], atol=1e-15)
        np.testing.assert_array_equal(roots, np.sort_complex(-np.conj(roots)))


def _reference_match(prev, new):
    """Greedy nearest-neighbour order, or the optimal assignment when it is contested or a near tie."""
    dist = np.abs(prev[:, None] - new[None, :])
    order = np.argmin(dist, axis=1)
    nearest_two = np.sort(dist, axis=1)[:, :2]
    if len(set(order)) < len(order) or np.any(nearest_two[:, 1] < 2.0 * nearest_two[:, 0]):
        order = scipy.optimize.linear_sum_assignment(dist)[1]
    return order


def _is_anchor(n):
    """Mask of the rows of an n-point grid that ``_solve_grid`` solves from their companion matrices."""
    rows = np.arange(n)
    return (rows % dsp._ANCHOR_STRIDE == 0) | (rows == n - 1)


def _chain_of(i, n):
    """(anchor, direction) of the chain that solves the non-anchor row i of an n-point grid.

    A gap between anchors a < b takes rows a+1 ... a+(b-a)//2 forward from a and
    the rest backward from b.
    """
    left = i // dsp._ANCHOR_STRIDE * dsp._ANCHOR_STRIDE
    right = min(left + dsp._ANCHOR_STRIDE, n - 1)
    return (left, 1) if i - left <= (right - left) // 2 else (right, -1)


def _assert_rows_match_the_companion_solve(medium, grid):
    """Anchor rows of ``_solve_grid`` are the companion solve's bit for bit, every other row
    its root set within 1e-12 relative."""
    rows = dsp._solve_grid(medium, grid)
    companion = dsp.solve_dispersion(medium, grid)
    anchors = _is_anchor(len(grid))
    np.testing.assert_array_equal(rows[anchors], companion[anchors])
    for row, solved in zip(rows[~anchors], companion[~anchors]):
        if np.array_equal(row, solved):  # a row that fell back to the companion solve
            continue
        # a guessed row keeps its guesses' order: match it to the solved row
        nearest = solved[np.argmin(np.abs(row[:, None] - solved[None, :]), axis=1)]
        np.testing.assert_array_equal(np.sort_complex(nearest), np.sort_complex(solved))
        assert np.all(np.abs(row - nearest) <= 1e-12 * np.abs(nearest))
    return rows


def _scalar_continuation(medium, k_grid, solved=None):
    """Reference continuation, one step at a time, of the grid's root rows.

    solved holds the roots at every grid point (default: the companion solve
    of each point, which a stacked solve gives bit for bit); a bisection
    midpoint is always solved by a scalar solve.
    """
    if solved is None:
        solved = dsp.solve_dispersion(medium, k_grid)

    def step(k0, roots0, k1, roots1, depth=0):
        d = np.abs(roots1[:, None] - roots1[None, :])
        np.fill_diagonal(d, np.inf)
        pair_scale = 1.0 + np.maximum(np.abs(roots1)[:, None], np.abs(roots1)[None, :])
        if np.any(d < dsp.MATCH_TOL * pair_scale):
            raise BranchCollision(f"roots indistinguishable at k={k1:g}")
        new = roots1[_reference_match(roots0, roots1)]
        gaps = np.abs(new[:, None] - new[None, :])
        np.fill_diagonal(gaps, np.inf)
        if np.all(np.abs(new - roots0) <= 0.2 * gaps.min(axis=1)):
            return new
        if depth >= dsp.MAX_REFINEMENTS:
            raise BranchCollision(
                f"continuation step k={k0:g}->{k1:g} still ambiguous after "
                f"{dsp.MAX_REFINEMENTS} refinements"
            )
        mid = math.sqrt(k0 * k1)
        at_mid = step(k0, roots0, mid, dsp.solve_dispersion(medium, mid), depth + 1)
        return step(mid, at_mid, k1, roots1, depth + 1)

    roots = solved[0]
    path = [roots[np.lexsort((roots.imag, roots.real))]]
    for i in range(1, len(k_grid)):
        path.append(step(k_grid[i - 1], path[-1], k_grid[i], solved[i]))
    return np.stack(path, axis=1)


class TestTracking:
    def test_branch_count(self, reference_branches, reference_medium):
        assert len(reference_branches) == reference_medium.state_blocks

    @pytest.mark.parametrize(
        "name, points_per_decade",
        [
            ("reference_medium", 200),
            ("critical_medium", 200),
            ("double_pole_medium", 200),
            ("wide_medium", 200),
            ("reference_medium", 5),  # 43 bisections
            ("wide_medium", 20),  # 12 unsafe steps, all in the second of two row blocks
            ("critical_medium", 5),  # 16 unsafe steps
        ],
    )
    def test_equals_scalar_continuation(self, request, name, points_per_decade):
        # both continue the same grid rows; 1201 default grid points span several row blocks
        medium = request.getfixturevalue(name)
        grid = dsp.default_k_grid(medium, points_per_decade)
        tracked = np.stack([b.omega for b in dsp.track_branches(medium, grid)])
        expected = _scalar_continuation(medium, grid, dsp._solve_grid(medium, grid))
        np.testing.assert_array_equal(tracked, expected)

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "double_pole_medium",
                                      "wide_medium"])
    @pytest.mark.parametrize("points_per_decade", [200, 5, 20])
    def test_grid_rows_match_the_companion_solve(self, request, name, points_per_decade):
        medium = request.getfixturevalue(name)
        _assert_rows_match_the_companion_solve(medium, dsp.default_k_grid(medium, points_per_decade))

    @pytest.mark.parametrize("name", ["reference_medium", "wide_medium"])
    @pytest.mark.parametrize("points", [1, 2, 3, 17, 18])
    def test_short_grids(self, request, name, points):
        # one anchor; two anchors; one chained row; one full gap; a full gap, then the last row
        medium = request.getfixturevalue(name)
        grid = np.geomspace(0.5, 2.0, points)
        rows = _assert_rows_match_the_companion_solve(medium, grid)
        tracked = np.stack([b.omega for b in dsp.track_branches(medium, grid)])
        np.testing.assert_array_equal(tracked, _scalar_continuation(medium, grid, rows))

    def test_grid_of_several_anchor_blocks(self, reference_medium):
        grid = dsp.default_k_grid(reference_medium, 2000)
        assert _is_anchor(len(grid)).sum() > 2 * dsp._SOLVE_BLOCK
        rows = _assert_rows_match_the_companion_solve(reference_medium, grid)
        tracked = np.stack([b.omega for b in dsp.track_branches(reference_medium, grid)])
        np.testing.assert_array_equal(tracked, _scalar_continuation(reference_medium, grid, rows))

    def test_companion_solve_takes_every_sixteenth_row(self, monkeypatch, reference_medium):
        # the anchors' companion solve, and no guessed row falls back to it
        stacked_rows = []
        solve = certified_roots

        def counting(rows):
            stacked_rows.append(len(rows))
            return solve(rows)

        monkeypatch.setattr(dsp, "certified_roots", counting)
        monkeypatch.setattr(polyroots, "certified_roots", counting)
        grid = dsp.default_k_grid(reference_medium)
        dsp.track_branches(reference_medium, grid)
        assert len(grid) == 1201
        assert stacked_rows == [76]

    @pytest.mark.parametrize("grid", [[], np.ones((2, 3)), np.geomspace(1, 10, 6).reshape(2, 3)])
    def test_empty_or_two_dimensional_grid_refused(self, reference_medium, grid):
        with pytest.raises(ValueError, match="strictly increasing and positive"):
            dsp.track_branches(reference_medium, grid)

    @given(admissible_media())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_media_track_like_the_scalar_continuation(self, medium):
        grid = dsp.default_k_grid(medium, points_per_decade=20)

        def outcome(continue_branches):
            try:
                branches = continue_branches()
            except BranchCollision as exc:
                return str(exc)
            try:
                return [b.label_text() for b in dsp.classify_branches(branches, medium)]
            except UnclassifiableBranch as exc:
                return repr(exc)

        def scalar():
            path = _scalar_continuation(medium, grid)
            return [dsp.BranchFamily(k=grid, omega=omega) for omega in path]

        tracked = outcome(lambda: dsp.track_branches(medium, grid))
        assert tracked == outcome(scalar)
        if not isinstance(tracked, str):
            _assert_mirror_closed(medium, grid, solve=dsp._solve_grid)

    def test_coarse_grid_refines_to_the_same_branches(
        self, monkeypatch, reference_medium, reference_branches
    ):
        scalar_solves = []
        solve = dsp.solve_dispersion

        def counting(medium, k):
            if np.ndim(k) == 0:
                scalar_solves.append(k)
            return solve(medium, k)

        monkeypatch.setattr(dsp, "solve_dispersion", counting)
        grid = dsp.default_k_grid(reference_medium, points_per_decade=5)
        coarse = dsp.classify_branches(dsp.track_branches(reference_medium, grid), reference_medium)
        assert len(grid) == 31
        assert len(scalar_solves) == 43  # one per refinement midpoint
        assert [b.label_text() for b in coarse] == [b.label_text() for b in reference_branches]
        for c, f in zip(coarse, reference_branches):
            np.testing.assert_array_equal(c.omega[[0, -1]], f.omega[[0, -1]])

    def test_batched_order_is_clear_only_without_contest_or_near_tie(self):
        prev = np.array([[0.0, 1.0, 5.0], [0.0, 0.1, 5.0], [0.0, 1.0, 5.0]], dtype=complex)
        new = np.array([[0.01, 1.01, 5.01], [0.05, 4.9, 9.0], [0.52, 1.01, 5.01]], dtype=complex)
        order, unique = dsp._nearest(prev, new)
        # row 1: two roots claim the same neighbour; row 2: 0 lies almost midway, a
        # near tie that only the step control refuses
        assert unique.tolist() == [True, False, True]
        np.testing.assert_array_equal(order[0], _reference_match(prev[0], new[0]))
        _, collides, safe = dsp._step(prev, new)
        assert not collides.any()
        assert safe.tolist() == [True, False, False]

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_contested_match_never_passes_step_control(self, data):
        # distinct lattice roots; each previous root sits near a drawn (possibly
        # shared) new root, so contests, near ties and near-passing steps all occur
        n = data.draw(st.integers(2, 5))
        lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        new = np.array([complex(*p) for p in data.draw(
            st.lists(lattice, min_size=n, max_size=n, unique=True))])
        near = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        offset = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
        prev = new[near] + np.array([complex(*o) for o in data.draw(
            st.lists(offset, min_size=n, max_size=n))])
        _, unique = dsp._nearest(prev, new)
        nearest_two = np.sort(np.abs(prev[:, None] - new[None, :]), axis=1)[:, :2]
        assume(not unique or np.any(nearest_two[:, 1] < 2.0 * nearest_two[:, 0]))
        _, collides, safe = dsp._step(prev, new)
        assert not collides and not safe
        optimal = scipy.optimize.linear_sum_assignment(np.abs(prev[:, None] - new[None, :]))[1]
        assert not dsp._steady(prev, new, optimal, dsp._pairwise(new).min(axis=-1))

    def test_grid_past_the_trim_threshold_raises_typed(self, reference_medium):
        with pytest.raises(DegenerateLeadingCoefficient):
            dsp.track_branches(reference_medium, np.geomspace(1e6, 1e8, 50))

    def test_planted_duplicate_root_is_indistinguishable(self, reference_medium, monkeypatch):
        # the step into a row holding one root twice collides before any refinement
        grid = np.geomspace(0.1, 10.0, 50)
        solve = dsp._solve_grid

        def planted(medium, k_grid):
            solved = solve(medium, k_grid)
            solved[20, 1] = solved[20, 0]
            return solved

        monkeypatch.setattr(dsp, "_solve_grid", planted)
        with pytest.raises(BranchCollision, match=f"^roots indistinguishable at k={grid[20]:g}$"):
            dsp.track_branches(reference_medium, grid)

    def test_exceptional_point_still_collides(self):
        # two roots meet on the negative imaginary axis near k = 1.28151
        medium = lm.new_medium(1.0, 1.0, [(2.3615, 0.26657, 1.1135)], [])
        with pytest.raises(BranchCollision, match=r"k=1\.28149->1\.2815 still ambiguous"):
            dsp.track_branches(medium, dsp.default_k_grid(medium))

    def test_overdamped_start_order_is_the_exact_lexsort(self):
        # four branches start on the negative imaginary axis with Re w = 0.0
        # exactly, so the start order breaks those ties by Im w
        medium = lm.new_medium(
            1.0,
            1.0,
            [(0.7462571390513869, 1.0167794497347014, 3.5898624887196307)],
            [(1.2407022731460715, 1.5637593265975254, 4.7422581950841485)],
        )
        grid = dsp.default_k_grid(medium)
        branches = dsp.classify_branches(dsp.track_branches(medium, grid), medium)
        first = dsp.solve_dispersion(medium, grid[0])
        np.testing.assert_array_equal(
            [b.omega[0] for b in branches], first[np.lexsort((first.imag, first.real))]
        )
        assert [b.label_text() for b in branches] == [
            "MinusInf|Zero0(r=1)",
            "Pole(0-4.15352j,n=1)|ZeroMinus(0-3.6508j,n=1)",
            "Pole(0-3.2741j,n=1)|ZeroMinus(0-3.07205j,n=1)",
            "Pole(0-0.58874j,n=1)|ZeroMinus(0-1.09145j,n=1)",
            "Pole(0-0.315763j,n=1)|ZeroMinus(0-0.51781j,n=1)",
            "PlusInf|Zero0(r=2)",
        ]
        rerun = dsp.classify_branches(dsp.track_branches(medium, grid), medium)
        assert [b.label_text() for b in rerun] == [b.label_text() for b in branches]
        np.testing.assert_array_equal(
            np.stack([b.omega for b in rerun]), np.stack([b.omega for b in branches])
        )

    def test_light_cone_branches(self, reference_branches, reference_medium):
        c = reference_medium.asymptotic_coefficients().vacuum_speed
        plus = next(
            b for b in reference_branches if isinstance(b.hf_label, dsp.PlusInf)
        )
        minus = next(
            b for b in reference_branches if isinstance(b.hf_label, dsp.MinusInf)
        )
        k_end = plus.k[-1]
        assert plus.omega[-1].real == pytest.approx(c * k_end, rel=1e-4)
        assert minus.omega[-1].real == pytest.approx(-c * k_end, rel=1e-4)

    def test_origin_branch_slopes(self, reference_branches, reference_medium):
        c0 = reference_medium.asymptotic_coefficients().static_speed
        for r, sign in ((1, -1.0), (2, 1.0)):
            b = next(
                bb
                for bb in reference_branches
                if isinstance(bb.lf_label, dsp.Zero0) and bb.lf_label.index == r
            )
            k0 = b.k[0]
            assert b.omega[0] == pytest.approx(sign * c0 * k0, rel=1e-2)

    def test_pole_branch_counts_match_multiplicity(self, double_pole_branches):
        fans = {}
        for b in double_pole_branches:
            if isinstance(b.hf_label, dsp.Pole):
                fans.setdefault(b.hf_label.location, []).append(b.hf_label)
        for loc, labels in fans.items():
            mult = labels[0].multiplicity
            assert len(labels) == mult
            assert sorted(l.index for l in labels) == list(range(1, mult + 1))

    def test_branch_union_equals_solver_multiset(self, reference_branches, reference_medium):
        k_grid = reference_branches[0].k
        for idx in (0, len(k_grid) // 2, -1):
            k = k_grid[idx]
            union = np.sort_complex(np.array([b.omega[idx] for b in reference_branches]))
            solved = np.sort_complex(dsp.solve_dispersion(reference_medium, k))
            np.testing.assert_allclose(union, solved, atol=1e-8)

    def test_samples_satisfy_dispersion(self, reference_branches, reference_medium):
        for b in reference_branches:
            for idx in range(0, len(b.k), 97):
                k, w = b.k[idx], b.omega[idx]
                val = reference_medium.dispersion_value(w)
                assert abs(val - k * k) <= 1e-8 * (1.0 + k * k)

    def test_simplicity_in_asymptotic_bands(self, reference_branches, reference_bands):
        k_minus, k_plus = reference_bands
        k_grid = reference_branches[0].k
        roots = np.stack([b.omega for b in reference_branches], axis=1)
        for sel in (k_grid >= k_plus, k_grid <= k_minus):
            for row in roots[sel][:: max(1, sel.sum() // 20)]:
                d = np.abs(row[:, None] - row[None, :])
                np.fill_diagonal(d, np.inf)
                scale = 1.0 + np.maximum(np.abs(row)[:, None], np.abs(row)[None, :])
                assert np.all(d > 10 * 1e-7 * scale)

    def test_branch_set_conjugation_symmetry(self, reference_branches):
        # for every branch there is a mirror branch with omega -> -conj(omega)
        mid = len(reference_branches[0].k) // 2
        values = [b.omega[mid] for b in reference_branches]
        for b in reference_branches:
            target = -np.conj(b.omega[mid])
            assert min(abs(v - target) for v in values) < 1e-8
            if isinstance(b.hf_label, dsp.PlusInf):
                assert any(
                    isinstance(bb.hf_label, dsp.MinusInf) for bb in reference_branches
                )
            if isinstance(b.hf_label, dsp.Pole):
                mirror = -np.conj(b.hf_label.location)
                assert any(
                    isinstance(bb.hf_label, dsp.Pole)
                    and abs(bb.hf_label.location - mirror) < 1e-9
                    for bb in reference_branches
                )


def _collides(roots):
    """The all-pairs collision test: some pair a, b with |a - b| < MATCH_TOL (1 + max(|a|, |b|))."""
    size = np.abs(roots)
    scale = 1.0 + np.maximum(size[..., :, None], size[..., None, :])
    return np.any(dsp._pairwise(roots) < dsp.MATCH_TOL * scale, axis=(-2, -1))


def _greedy_step(prev, new):
    """``dsp._step`` as the full greedy test: ``_nearest`` on every row, the all-pairs
    collision test, and a near tie (second distance below twice the first) refused
    before the step control."""
    d = dsp._pairwise(new)
    collides = _collides(new)
    order, unique = dsp._nearest(prev, new)
    part = np.partition(np.abs(prev[..., :, None] - new[..., None, :]), 1, axis=-1)
    clear = unique & ~np.any(part[..., 1] < 2.0 * part[..., 0], axis=-1)
    return order, collides, clear & ~collides & dsp._steady(prev, new, order, d.min(axis=-1))


def _assert_same_step(got, prev, new):
    """got, the (order, collides, safe) of prev -> new, is the full greedy test's bit for bit."""
    for g, e in zip(got, _greedy_step(prev, new), strict=True):
        assert np.shape(g) == np.shape(e)
        np.testing.assert_array_equal(g, e)


@st.composite
def _step_row(draw, n):
    """(prev, new) of n roots: a small or large move, a swap, a near tie or a collision."""
    lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    new = np.array([complex(*p) for p in draw(
        st.lists(lattice, min_size=n, max_size=n, unique=True))])
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["move", "swap", "near_tie", "collision"]))
    if kind == "collision":
        new[j] = new[i] + draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    unit = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
    offsets = np.array([complex(*o) for o in draw(st.lists(unit, min_size=n, max_size=n))])
    prev = new + draw(st.sampled_from([0.0, 1e-13, 1e-3, 0.05, 0.15, 0.3, 1.0])) * offsets
    if kind == "swap":
        prev[[i, j]] = prev[[j, i]]
    elif kind == "near_tie":  # the second distance below twice the first
        prev[i] = new[i] + (new[j] - new[i]) * draw(st.floats(0.34, 0.5))
    return prev, new


class TestIdentityFirstStep:
    """The raw order tested first gives the greedy test's (order, collides, safe) bit for bit."""

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_random_rows(self, data):
        n = data.draw(st.integers(2, 6))
        rows = data.draw(st.integers(0, 5))  # 0: one 1-D call, as a refinement makes
        pairs = [data.draw(_step_row(n)) for _ in range(max(rows, 1))]
        prev, new = (np.stack(side) for side in zip(*pairs))
        if rows == 0:
            prev, new = prev[0], new[0]
        _assert_same_step(dsp._step(prev, new), prev, new)

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_gaps_give_every_collision(self, data):
        # roots of moduli 1e-3 to 1e6, one pair planted at a multiple of MATCH_TOL (1 + |r|)
        # just inside, at or just outside the collision threshold, far from it, or at 0
        # (an exact duplicate).  The planted root steps towards the origin, so r stays
        # the pair's larger root and its threshold the pair's, unless r is that close to 0
        n = data.draw(st.integers(2, 6))
        rows = data.draw(st.integers(0, 4))  # 0: one 1-D call, as a refinement makes
        pairs, duplicate = [], []
        for _ in range(max(rows, 1)):
            unit = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
            new = np.array([complex(*u) for u in data.draw(
                st.lists(unit, min_size=n, max_size=n))]) * 10.0 ** data.draw(st.integers(-3, 6))
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            factor = data.draw(st.sampled_from([0.0, 0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0]))
            direction = -cmath.exp(1j * (cmath.phase(new[i]) + data.draw(st.floats(-1, 1))))
            new[j] = new[i] + factor * dsp.MATCH_TOL * (1.0 + abs(new[i])) * direction
            pairs.append((new + 1e-3 * np.abs(new), new))
            duplicate.append(factor == 0.0)
        prev, new = (np.stack(side) for side in zip(*pairs))
        if rows == 0:
            prev, new = prev[0], new[0]
        order, collides, safe = dsp._step(prev, new)
        np.testing.assert_array_equal(collides, _collides(new))
        assert np.all(np.reshape(collides, -1)[duplicate])
        assert not np.any(np.reshape(safe, -1)[duplicate])
        _assert_same_step((order, collides, safe), prev, new)

    @pytest.mark.parametrize("name, points_per_decade", [
        ("reference_medium", 5), ("critical_medium", 5), ("wide_medium", 20),
        ("double_pole_medium", 200),
    ])
    def test_tracking_calls(self, monkeypatch, request, name, points_per_decade):
        # every block of grid rows and every refinement step of a tracking run
        medium = request.getfixturevalue(name)
        calls = []
        step = dsp._step

        def checked(prev, new):
            calls.append(np.ndim(new))
            got = step(prev, new)
            _assert_same_step(got, prev, new)
            return got

        monkeypatch.setattr(dsp, "_step", checked)
        dsp.track_branches(medium, dsp.default_k_grid(medium, points_per_decade))
        assert 2 in calls
        assert (1 in calls) == (points_per_decade < 200)


def _recorded_grid(monkeypatch, medium, grid):
    """(solved, calls) of ``_solve_grid``; calls maps a Newton row's index to (guesses, steps, kept)."""
    rows = dsp.dispersion_polynomial(medium, grid)
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    calls = {}
    guessed = dsp._guessed_roots

    def recording(block, guesses, steps):
        roots, kept = guessed(block, guesses, steps)
        for row, guess, keep in zip(block, guesses, kept):
            calls[index[row.tobytes()]] = (guess, steps, keep)
        return roots, kept

    monkeypatch.setattr(dsp, "_guessed_roots", recording)
    return dsp._solve_grid(medium, grid), calls


class TestSecantStart:
    """A chained row starts from the secant through the two rows before it in its chain only
    where both hold their roots in the same positions; chains run forward and backward."""

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "double_pole_medium",
                                      "wide_medium"])
    def test_no_guessed_row_falls_back_at_200_per_decade(self, monkeypatch, request, name):
        medium = request.getfixturevalue(name)
        grid = dsp.default_k_grid(medium)
        solved, calls = _recorded_grid(monkeypatch, medium, grid)
        assert all(keep for _, _, keep in calls.values())
        assert sorted(calls) == list(np.flatnonzero(~_is_anchor(len(grid))))
        log_k = np.log(grid)
        links = {1: 0, -1: 0}
        for i, (guess, steps, _) in calls.items():
            anchor, ahead = _chain_of(i, len(grid))
            links[ahead] += 1
            if i - ahead == anchor:  # the first link starts from its anchor
                np.testing.assert_array_equal(guess, solved[anchor])
                assert steps == polyroots.NEWTON_STEPS
                continue
            back, back2 = i - ahead, i - 2 * ahead
            t = (log_k[i] - log_k[back]) / (log_k[back] - log_k[back2])
            np.testing.assert_array_equal(guess, solved[back] + t * (solved[back] - solved[back2]))
            assert steps == polyroots.NEWTON_STEPS - 2
        # 75 gaps of 16 rows: 8 forward links and 7 backward links each
        assert links == {1: 600, -1: 525}

    @staticmethod
    def _refusing(monkeypatch, medium, grid, refused):
        """_recorded_grid with ``_isolated`` refusing grid row refused."""
        target = _rotated_columns(dsp.dispersion_polynomial(medium, grid[[refused]]))
        isolated = polyroots._isolated

        def refusing(roots, step, coeffs):
            return isolated(roots, step, coeffs) & ~np.all(coeffs == target, axis=0)[:, 0]

        monkeypatch.setattr(polyroots, "_isolated", refusing)
        return _recorded_grid(monkeypatch, medium, grid)

    @pytest.mark.parametrize("refused, ahead, chain_end", [
        (19, 1, 24),  # the third row of the forward chain from anchor 16
        (29, -1, 25),  # the third row of the backward chain from anchor 32
    ])
    def test_row_after_a_fallback_starts_from_its_predecessor(self, monkeypatch, reference_medium,
                                                              refused, ahead, chain_end):
        grid = dsp.default_k_grid(reference_medium)
        solved, calls = self._refusing(monkeypatch, reference_medium, grid, refused)
        companion = dsp.solve_dispersion(reference_medium, grid)
        np.testing.assert_array_equal(solved[refused], companion[refused])
        assert [i for i, (_, _, keep) in calls.items() if not keep] == [refused]
        # a secant row fell back: the rest of its chain starts from predecessors
        after = range(refused + ahead, chain_end + ahead, ahead)
        for i in after:
            guess, steps, _ = calls[i]
            np.testing.assert_array_equal(guess, solved[i - ahead])
            assert steps == polyroots.NEWTON_STEPS
        # the secant rows before it, the other chain of its gap and both chains of the next
        # gap (rows 34-40 forward, 46-41 backward) keep their secant starts
        other = range(25, 31) if ahead == 1 else range(18, 25)
        secant = [refused - ahead, *other, *range(34, 47)]
        assert [calls[i][1] for i in secant] == [polyroots.NEWTON_STEPS - 2] * len(secant)
        _assert_mirror_closed(reference_medium, grid, solve=lambda m, k: solved)
        i = refused + ahead
        nearest = companion[i][np.argmin(np.abs(solved[i][:, None] - companion[i][None, :]), axis=1)]
        assert np.all(np.abs(solved[i] - nearest) <= 1e-12 * np.abs(nearest))

    @pytest.mark.parametrize("refused, ahead, chain_end", [
        (17, 1, 24),  # the first row of the forward chain from anchor 16, started from the anchor
        (31, -1, 25),  # the first row of the backward chain from anchor 32
    ])
    def test_first_link_fallback_keeps_the_secant(self, monkeypatch, reference_medium, refused,
                                                  ahead, chain_end):
        grid = dsp.default_k_grid(reference_medium)
        solved, calls = self._refusing(monkeypatch, reference_medium, grid, refused)
        assert [i for i, (_, _, keep) in calls.items() if not keep] == [refused]
        np.testing.assert_array_equal(calls[refused + ahead][0], solved[refused])
        assert calls[refused + ahead][1] == polyroots.NEWTON_STEPS
        # only a secant row that falls back ends the chain's secant starts
        rest = range(refused + 2 * ahead, chain_end + ahead, ahead)
        assert [calls[i][1] for i in rest] == [polyroots.NEWTON_STEPS - 2] * len(rest)

    @pytest.mark.parametrize("points_per_decade, companion_rows", [
        (5, {"reference": 18, "critical": 19, "double_pole": 20, "wide": 18}),
        (20, {"reference": 61, "critical": 62, "double_pole": 62, "wide": 60}),
    ])
    def test_companion_rows_on_coarse_grids(self, monkeypatch, request, points_per_decade,
                                            companion_rows):
        count = []
        companion = polyroots._companion_newton

        def counted(q, coeffs):
            count.append(len(q))
            return companion(q, coeffs)

        monkeypatch.setattr(polyroots, "_companion_newton", counted)
        for name, rows in companion_rows.items():
            medium = request.getfixturevalue(f"{name}_medium")
            grid = dsp.default_k_grid(medium, points_per_decade)
            count.clear()
            dsp._solve_grid(medium, grid)
            assert sum(count) == rows, name

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "double_pole_medium",
                                      "wide_medium"])
    @pytest.mark.parametrize("points_per_decade", [5, 20, 200])
    def test_grid_rows_are_mirror_closed(self, request, name, points_per_decade):
        medium = request.getfixturevalue(name)
        _assert_mirror_closed(medium, dsp.default_k_grid(medium, points_per_decade),
                              solve=dsp._solve_grid)


class TestPairBlocks:
    """Tracking and band diagnosis do not depend on where their pair blocks end."""

    def test_rows_per_block(self):
        assert [dsp._pair_rows(n) for n in (2, 6, 16, 24)] == [4096, 455, 64, 64]

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium",
                                      "double_pole_medium", "wide_medium"])
    @pytest.mark.parametrize("points_per_decade", [200, 5])
    def test_small_blocks_change_nothing(self, monkeypatch, request, name, points_per_decade):
        medium = request.getfixturevalue(name)
        grid = dsp.default_k_grid(medium, points_per_decade)
        table = medium.asymptotic_coefficients()

        def outcome():
            branches = dsp.classify_branches(dsp.track_branches(medium, grid), medium)
            try:
                bands = dsp.diagnose_bands(branches, table)
            except UnclassifiableBranch as exc:
                bands = str(exc)
            return np.stack([b.omega for b in branches]), [b.label_text() for b in branches], bands

        omega, labels, bands = outcome()
        for budget, rows in ((300, {6: 8, 8: 4, 16: 1}), (1000, {6: 27, 8: 15, 16: 3})):
            monkeypatch.setattr(dsp, "_PAIR_BUDGET", budget)
            assert dsp._pair_rows(medium.state_blocks) == rows[medium.state_blocks]
            small_omega, small_labels, small_bands = outcome()
            np.testing.assert_array_equal(small_omega, omega)
            assert (small_labels, small_bands) == (labels, bands)


class TestClassification:
    def test_strong_dissipation_has_no_real_pole_labels(self, reference_branches):
        for b in reference_branches:
            if isinstance(b.hf_label, dsp.Pole):
                assert b.hf_label.location.imag < 0

    def test_zs_labels_only_for_undamped_family(
        self, critical_branches, reference_branches
    ):
        crit_zs = [
            b for b in critical_branches if isinstance(b.lf_label, dsp.ZeroSimple)
        ]
        ref_zs = [
            b for b in reference_branches if isinstance(b.lf_label, dsp.ZeroSimple)
        ]
        assert len(crit_zs) == 2  # the two real permeability zeros
        assert not ref_zs

    def test_double_pole_split_law(self, double_pole_branches, double_pole_medium):
        # the two fan branches differ by coupling_e*coupling_m/c per 1/k
        table = double_pole_medium.asymptotic_coefficients()
        fans = {}
        for b in double_pole_branches:
            if isinstance(b.hf_label, dsp.Pole) and b.hf_label.multiplicity == 2:
                fans.setdefault(b.hf_label.location, []).append(b)
        assert fans
        k_end = double_pole_branches[0].k[-1]
        for loc, pair in fans.items():
            split = table.for_pole(loc).split
            gap = abs(pair[0].omega[-1] - pair[1].omega[-1])
            assert gap == pytest.approx(2.0 * split / k_end, rel=0.1)


    @staticmethod
    def _moved(branches, pick, index, value):
        """branches with omega[index] of the first branch that pick accepts replaced by value(that omega)."""
        j = next(i for i, b in enumerate(branches) if pick(b))
        omega = branches[j].omega.copy()
        omega[index] = value(omega)
        return branches[:j] + [replace(branches[j], omega=omega)] + branches[j + 1 :]

    def test_unbounded_ends_on_one_side_refused(self, reference_branches, reference_medium):
        moved = self._moved(
            reference_branches,
            lambda b: isinstance(b.hf_label, dsp.MinusInf),
            -1,
            lambda w: -np.conj(w[-1]),
        )
        with pytest.raises(UnclassifiableBranch, match="^could not identify the two unbounded branches$"):
            dsp.classify_branches(moved, reference_medium)

    def test_origin_starts_on_one_side_refused(self, reference_branches, reference_medium):
        moved = self._moved(
            reference_branches,
            lambda b: b.lf_label == dsp.Zero0(1),
            0,
            lambda w: -np.conj(w[0]),
        )
        with pytest.raises(UnclassifiableBranch, match="^could not identify the two branches through 0$"):
            dsp.classify_branches(moved, reference_medium)

    def test_pole_fan_with_the_wrong_count_refused(self, reference_branches, reference_medium):
        poles = [b for b in reference_branches if isinstance(b.hf_label, dsp.Pole)]
        target = poles[1].hf_label.location
        moved = self._moved(reference_branches, lambda b: b is poles[0], -1, lambda w: poles[1].omega[-1])
        with pytest.raises(
            UnclassifiableBranch,
            match=rf"^2 branches converge to pole {re.escape(str(target))} of multiplicity 1$",
        ):
            dsp.classify_branches(moved, reference_medium)

    def test_extra_branch_near_the_origin_refused(self, reference_branches, reference_medium):
        origin = next(b for b in reference_branches if b.lf_label == dsp.Zero0(2))
        moved = self._moved(
            reference_branches,
            lambda b: isinstance(b.lf_label, dsp.ZeroMinus),
            0,
            lambda w: 3.0 * origin.omega[0],
        )
        with pytest.raises(
            UnclassifiableBranch,
            match=rf"^extra branch near the origin: {re.escape(str(3.0 * origin.omega[0]))}$",
        ):
            dsp.classify_branches(moved, reference_medium)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_fan_indices_reach_the_optimal_assignment(self, m):
        rng = np.random.default_rng(m)
        unique = 0
        for _ in range(200):
            directions = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
            base = rng.uniform(-np.pi, np.pi)
            targets = base + 2.0 * np.pi * np.arange(1, m + 1) / m
            cost = np.abs((np.angle(directions)[:, None] - targets + np.pi) % (2 * np.pi) - np.pi)
            optimal = scipy.optimize.linear_sum_assignment(cost)[1]
            got = dsp._fan_indices(list(directions), m, base) - 1
            assert cost[range(m), got].sum() == pytest.approx(cost[range(m), optimal].sum(), abs=1e-12)
            sums = sorted(cost[range(m), p].sum() for p in itertools.permutations(range(m)))
            if len(sums) == 1 or sums[1] > sums[0] + 1e-9:
                unique += 1
                np.testing.assert_array_equal(got, optimal)
        assert unique >= 100


class TestAsymptoticVerification:
    def test_plus_inf_expansion(self, reference_branches, reference_medium):
        table = reference_medium.asymptotic_coefficients()
        b = next(x for x in reference_branches if isinstance(x.hf_label, dsp.PlusInf))
        grid = b.k
        probes = grid[(grid >= 20) & (grid <= 1000)][::40]
        report = dsp.verify_asymptotics(b, table, probes, regime="hf")
        assert report.ok
        # imaginary part at the far end
        k_end = grid[-1]
        w_end = b.omega[-1]
        assert w_end.imag * k_end**2 == pytest.approx(
            -table.damped_coupling / (2 * table.vacuum_speed**2), rel=0.05
        )
        assert w_end.real - table.vacuum_speed * k_end == pytest.approx(
            table.total_coupling / (2 * table.vacuum_speed * k_end), rel=0.05
        )

    def test_simple_pole_expansion_noncritical(self, ps_noncritical_medium):
        table = ps_noncritical_medium.asymptotic_coefficients()
        coef = next(p for p in table.simple_poles if p.pole.real > 0)
        for k in (200.0, 400.0):
            roots = dsp.solve_dispersion(ps_noncritical_medium, k)
            w = roots[np.argmin(np.abs(roots - coef.pole))]
            measured = (w - coef.pole) * k**2
            assert measured == pytest.approx(coef.second_order, rel=1e-3)
        assert coef.second_order.imag < 0

    def test_double_pole_second_order(self, double_pole_medium):
        table = double_pole_medium.asymptotic_coefficients()
        coef = table.for_pole(1.0 + 0j)
        for k in (200.0, 400.0):
            roots = dsp.solve_dispersion(double_pole_medium, k)
            near = np.sort_complex(roots[np.abs(roots - 1.0) < 0.1])
            for r, w in enumerate(near, start=1):
                sign = -1.0 if r == 1 else 1.0
                measured = (w - 1.0 - sign * coef.split / k) * k**2
                assert measured == pytest.approx(coef.second_order, rel=5e-3)

    def test_critical_pole_fourth_order(self, critical_medium):
        table = critical_medium.asymptotic_coefficients()
        coef = next(p for p in table.simple_poles if abs(p.pole - 1.0) < 1e-9)
        for k in (100.0, 300.0):
            roots = dsp.solve_dispersion(critical_medium, k)
            w = roots[np.argmin(np.abs(roots - 1.0))]
            measured = (w - coef.pole - coef.second_order / k**2) * k**4
            assert measured == pytest.approx(coef.fourth_order, rel=1e-2)

    def test_origin_branch_second_order(self, reference_branches, reference_medium):
        table = reference_medium.asymptotic_coefficients()
        for b in reference_branches:
            if not isinstance(b.lf_label, dsp.Zero0):
                continue
            sign = -1.0 if b.lf_label.index == 1 else 1.0
            k = b.k[5]
            w = b.omega[5]
            measured = (w - sign * table.static_speed * k) / k**2
            assert measured == pytest.approx(table.lf_second_order, rel=0.05)
        assert (-table.epsmu_prime0).imag < 0

    def test_zero_residuals_report_the_expected_order(self, reference_medium):
        # a branch equal to its series at every probe has no residual slope to fit
        table = reference_medium.asymptotic_coefficients()
        series, expected = dsp.expansion(dsp.PlusInf(), table)
        ks = np.geomspace(10.0, 1000.0, 5)
        branch = dsp.BranchFamily(k=ks, omega=np.array([series(k) for k in ks]),
                                  hf_label=dsp.PlusInf())
        report = dsp.verify_asymptotics(branch, table, ks, regime="hf")
        assert np.all(report.residuals == 0)
        assert report.fitted_order == report.expected_order == expected
        assert report.ok

    def test_lf_asymptotics_reports(self, reference_branches, reference_medium):
        table = reference_medium.asymptotic_coefficients()
        grid = reference_branches[0].k
        probes = grid[(grid >= 0.02) & (grid <= 0.2)][::20]
        for b in reference_branches:
            report = dsp.verify_asymptotics(b, table, probes, regime="lf")
            assert report.ok

    def test_all_families_of_double_pole_medium(
        self, double_pole_branches, double_pole_medium
    ):
        # the richest label set: light cone, double fans, complex poles,
        # origin pair, real and complex zeros
        table = double_pole_medium.asymptotic_coefficients()
        grid = double_pole_branches[0].k
        k_minus, k_plus = dsp.diagnose_bands(double_pole_branches, table)
        hf = grid[(grid >= k_plus) & (grid <= 10 * k_plus)][::12]
        lf = grid[(grid <= k_minus) & (grid >= k_minus / 10)][::12]
        for b in double_pole_branches:
            assert dsp.verify_asymptotics(b, table, hf, regime="hf").ok
            assert dsp.verify_asymptotics(b, table, lf, regime="lf").ok

    def test_wrong_label_is_a_mismatch(self, reference_branches, reference_medium):
        table = reference_medium.asymptotic_coefficients()
        b = next(x for x in reference_branches if isinstance(x.hf_label, dsp.PlusInf))
        probes = b.k[(b.k >= 20) & (b.k <= 1000)][::40]
        with pytest.raises(
            AsymptoticMismatch, match=r"^MinusInf: fitted residual order 1\.000, expected -3\.000$"
        ):
            dsp.verify_asymptotics(replace(b, hf_label=dsp.MinusInf()), table, probes, regime="hf")

    def test_unknown_regime_refused(self, reference_branches, reference_medium):
        # on these probes the branch's low-band ZeroMinus label also passes the
        # order check (3.92 against 4), so a regime read as "lf" would go unseen
        table = reference_medium.asymptotic_coefficients()
        b = next(x for x in reference_branches if isinstance(x.hf_label, dsp.PlusInf))
        probes = b.k[b.k >= 20][::5][:12]
        for regime in ("HF", "low", ""):
            with pytest.raises(ValueError, match=f"regime must be 'hf' or 'lf', got '{regime}'"):
                dsp.verify_asymptotics(b, table, probes, regime=regime)
            with pytest.raises(ValueError, match="regime must be"):
                dsp._within_leading(b, table, regime)
            # nor is a regime a branch label
            with pytest.raises(ValueError, match=f"not a branch label: '{regime}'"):
                dsp.expansion(regime, table)

    @pytest.mark.parametrize("regime, pick", [
        ("hf", [-1]), ("hf", [-1, -1]), ("hf", [600, -1, -1, -1]), ("lf", [0, 0, 0, 600]),
    ])
    def test_fewer_than_two_distinct_fitted_probes_refused(
        self, reference_branches, reference_medium, regime, pick
    ):
        # one probe, or a repeated one, among the 3 fitted extremes leaves no slope to fit
        table = reference_medium.asymptotic_coefficients()
        b = next(x for x in reference_branches if isinstance(x.hf_label, dsp.PlusInf))
        with pytest.raises(ValueError, match="needs two distinct probe wavenumbers"):
            dsp.verify_asymptotics(b, table, b.k[pick], regime=regime)

    def test_probe_off_the_grid_refused(self, reference_branches, reference_medium):
        b = next(x for x in reference_branches if isinstance(x.hf_label, dsp.PlusInf))
        assert b.omega_at(b.k[700]) == b.omega[700]
        off = 0.5 * (b.k[700] + b.k[701])
        with pytest.raises(KeyError, match="not a grid point of this branch"):
            b.omega_at(off)
        table = reference_medium.asymptotic_coefficients()
        probes = np.append(b.k[(b.k >= 20) & (b.k <= 1000)][::40], off)
        with pytest.raises(KeyError, match="not a grid point"):
            dsp.verify_asymptotics(b, table, probes, regime="hf")


def _origin_fans(medium, terms=1):
    """Engine series of the two origin fans, the -static_speed fan first."""
    fans = [medium._branch_series(0.0 + 0.0j, 2, n=n, terms=terms)[0] for n in (1, 2)]
    return sorted(fans, key=lambda x: x[0].real)


def _catalog_centers(medium):
    """(location, m, spacing) of every catalog pole (m < 0) and zero (m > 0), with
    the distance to the nearest other catalog point."""
    cat = medium.catalog
    entries = [(p.location, -p.multiplicity) for p in cat.poles]
    entries += [(z.location, z.multiplicity) for z in cat.zeros]
    return [
        (center, m, min(abs(loc - center) for loc, _ in entries if loc != center))
        for center, m in entries
    ]


def _mp_dispersion(medium, w):
    """R(w) = w^2 eps(w) mu(w) from the oscillator sums at the working mpmath precision."""

    def material(base, oscillators):
        return base * (1 - sum(
            mpmath.mpf(o.coupling) ** 2 / (w * w + 1j * o.damping * w - mpmath.mpf(o.resonance) ** 2)
            for o in oscillators
        ))

    return w * w * material(medium.eps0, medium.electric) * material(medium.mu0, medium.magnetic)


def _assert_series_solve_the_dispersion_relation(medium, terms=3):
    """Every fan series of every catalog pole and zero solves R(omega) = k^2 to the
    order it claims.

    With omega = center + x_1 zeta + ... + x_terms zeta^terms and k^2 = zeta^m,
    the relative residual |R(omega)/k^2 - 1| (40 digits) must equal, to 5 %,
    m * sum_{j > terms} x_j zeta^(j-1) / x_1 from the engine's own next terms,
    at zeta and at zeta/2; so it falls like zeta^terms as zeta halves.  zeta
    is 1/100 of a convergence radius estimated from the distance to the nearest
    other catalog point and from 2*terms coefficients.  A pole is measured
    from the exact root of its oscillator and a zero from its catalog location
    with R(center) subtracted, so the rounding of the center does not count.
    """
    with mpmath.workdps(40):
        for center, m, spacing in _catalog_centers(medium):
            dropped, base = 0, mpmath.mpc(center)
            if m > 0:
                dropped = _mp_dispersion(medium, base)
            else:
                roots = [
                    (-1j * o.damping + s * mpmath.sqrt(4 * mpmath.mpf(o.resonance) ** 2 - o.damping**2)) / 2
                    for o in medium.electric + medium.magnetic
                    for s in (1, -1)
                ]
                base = min(roots, key=lambda r: abs(r - center))
            for n in range(1, abs(m) + 1):
                x, _ = medium._branch_series(center, m, n=n, terms=2 * terms)
                radius = min(
                    [spacing / abs(x[0])]
                    + [abs(x[0] / x[j]) ** (1.0 / j) for j in range(1, 2 * terms) if x[j] != 0]
                )
                for zeta in (1e-2 * radius, 5e-3 * radius):
                    z = mpmath.mpf(zeta)
                    omega = base + sum(c * z**j for j, c in enumerate(x[:terms], start=1))
                    measured = abs((_mp_dispersion(medium, omega) - dropped) / z**m - 1)
                    tail = sum(c * zeta ** (j - 1) for j, c in enumerate(x[terms:], start=terms + 1))
                    predicted = abs(m * tail / x[0])
                    assert abs(measured / predicted - 1) <= 0.05, (center, m, n, zeta, measured, predicted)


class TestPuiseux:
    """The series-reversion engine behind the catalog residues and the coefficient table."""

    def test_roots_are_mth_roots_of_leading(self, reference_medium):
        a = reference_medium.catalog.origin.residue
        for x in _origin_fans(reference_medium):
            assert abs((1.0 / x[0]) ** 2 - a) < 1e-10 * abs(a)

    def test_dispersion_zero_fan(self, reference_medium):
        table = reference_medium.asymptotic_coefficients()
        minus, plus = _origin_fans(reference_medium, terms=2)
        assert minus[0] == pytest.approx(-table.static_speed, abs=1e-6)
        assert plus[0] == pytest.approx(table.static_speed, abs=1e-6)
        for x in (minus, plus):
            assert x[1] == pytest.approx(table.lf_second_order, rel=1e-6)

    def test_inverse_dispersion_at_simple_pole(self, ps_noncritical_medium):
        coef = next(
            p
            for p in ps_noncritical_medium.asymptotic_coefficients().simple_poles
            if p.pole.real > 0
        )
        x, _ = ps_noncritical_medium._branch_series(coef.pole, -1)
        assert x[0] == pytest.approx(coef.second_order, rel=1e-8)

    def test_branch_leading_behavior_reproduced(
        self, reference_branches, reference_medium
    ):
        slopes = [x[0] for x in _origin_fans(reference_medium)]
        for b in reference_branches:
            if not isinstance(b.lf_label, dsp.Zero0):
                continue
            k0 = b.k[0]
            slope = next(a for a in slopes if np.sign(a.real) == np.sign(b.omega[0].real))
            assert abs(b.omega[0] - slope * k0) < 0.05 * abs(slope) * k0

    def test_degenerate_leading_coefficient(self, reference_medium):
        for m in (1, 3):  # claimed order of the origin's double zero wrong
            with pytest.raises(DegenerateLeadingCoefficient):
                reference_medium._branch_series(0.0 + 0.0j, m)

    @pytest.mark.parametrize(
        "name",
        [
            "reference_medium",
            "asymmetric_medium",
            "critical_medium",
            "double_pole_medium",
            "ps_noncritical_medium",
            "electric_only_medium",
            "wide_medium",
        ],
    )
    def test_fixture_series_solve_the_dispersion_relation(self, name, request):
        _assert_series_solve_the_dispersion_relation(request.getfixturevalue(name))

    @given(admissible_media())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_media_series_solve_the_dispersion_relation(self, medium):
        # a damping ratio one ulp off 2 splits a pole pair by ~1e-8, and q(center)
        # of that pair, so every double series coefficient there, is rounding
        # noise; such draws are left out
        try:
            assume(min(spacing for *_, spacing in _catalog_centers(medium)) >= 1e-3)
        except LorentzModesError:
            assume(False)
        _assert_series_solve_the_dispersion_relation(medium)


def _within_leading_at(branch, table, idx, regime):
    """Reference asymptopia test at one grid point."""
    k = branch.k[idx]
    w = branch.omega[idx]
    if regime == "hf":
        label = branch.hf_label
        c = table.vacuum_speed
        if isinstance(label, (dsp.PlusInf, dsp.MinusInf)):
            lead = c * k if isinstance(label, dsp.PlusInf) else -c * k
            return abs(w - lead) <= 0.25 * abs(lead)
        lead = label.leading * k ** (-2.0 / label.multiplicity)
        return abs(w - label.location - lead) <= 0.25 * abs(lead)
    label = branch.lf_label
    if isinstance(label, dsp.Zero0):
        lead = (-1.0 if label.index == 1 else 1.0) * table.static_speed * k
        return abs(w - lead) <= 0.25 * abs(lead)
    if isinstance(label, dsp.ZeroSimple):
        lead = table.for_zero(label.location).curvature * k**2
        return abs(w - label.location - lead) <= 0.25 * abs(lead)
    lead = label.leading * k ** (2.0 / label.multiplicity)
    return abs(w - label.location - lead) <= 0.25 * abs(lead)


def _scan_bands(branches, table):
    """Reference band diagnosis: scans point by point inward from each end of the grid."""
    k = branches[0].k
    roots = np.stack([b.omega for b in branches], axis=1)

    def simple(i):
        r = roots[i]
        d = np.abs(r[:, None] - r[None, :])
        np.fill_diagonal(d, np.inf)
        scale = 1.0 + np.maximum(np.abs(r)[:, None], np.abs(r)[None, :])
        return bool(np.all(d > 1e-6 * scale))

    def inside(i, regime):
        return simple(i) and all(_within_leading_at(b, table, i, regime) for b in branches)

    k_plus = k_minus = None
    for i in range(len(k) - 1, -1, -1):
        if not inside(i, "hf"):
            break
        k_plus = k[i]
    for i in range(len(k)):
        if not inside(i, "lf"):
            break
        k_minus = k[i]
    if k_plus is None or k_minus is None:
        raise UnclassifiableBranch("no grid point reaches the asymptotic regime")
    return float(k_minus), float(k_plus)


class TestBands:
    @pytest.mark.parametrize(
        "name",
        [
            "reference_medium",
            "critical_medium",
            "double_pole_medium",
            "wide_medium",
            "asymmetric_medium",
            "ps_noncritical_medium",
        ],
    )
    def test_equals_point_by_point_scan(self, request, name):
        medium = request.getfixturevalue(name)
        grid = dsp.default_k_grid(medium)
        branches = dsp.classify_branches(dsp.track_branches(medium, grid), medium)
        table = medium.asymptotic_coefficients()
        assert dsp.diagnose_bands(branches, table) == _scan_bands(branches, table)

    def test_band_stops_at_a_failing_point(self, reference_medium, reference_branches):
        table = reference_medium.asymptotic_coefficients()
        k = reference_branches[0].k
        # one branch leaves its leading term at one point deep inside each band
        omega = reference_branches[0].omega.copy()
        omega[[5, -10]] *= 3.0
        branches = [replace(reference_branches[0], omega=omega)] + reference_branches[1:]
        bands = dsp.diagnose_bands(branches, table)
        assert bands == (k[4], k[-9])
        assert bands == _scan_bands(branches, table)

    def test_no_qualifying_point_raises(self, reference_medium, reference_branches):
        # two coinciding branches leave no grid point with simple roots
        twin = replace(reference_branches[1], omega=reference_branches[0].omega)
        branches = [reference_branches[0], twin] + reference_branches[2:]
        table = reference_medium.asymptotic_coefficients()
        with pytest.raises(UnclassifiableBranch):
            _scan_bands(branches, table)
        with pytest.raises(UnclassifiableBranch):
            dsp.diagnose_bands(branches, table)

    def test_reference_bands_ordering(self, reference_bands):
        k_minus, k_plus = reference_bands
        assert 0 < k_minus <= k_plus

    def test_grid_covers_spec_margins(self, reference_medium):
        grid = dsp.default_k_grid(reference_medium)
        cat = reference_medium.catalog
        assert grid[-1] >= 10 * max(abs(p.location) for p in cat.poles)
        nonzero = [abs(z.location) for z in cat.zeros if abs(z.location) > 0]
        assert grid[0] <= 0.01 * min(nonzero)

    def test_simple_roots_are_the_all_pairs_test(self, survey_media, monkeypatch):
        # with every branch inside its leading term, a one-row grid keeps its band
        # exactly where its roots are simple.  Each survey row also gets a planted pair
        # at (1 -+ 2^-40) times its larger root's threshold, stepped towards the origin
        tol = 10 * lm.medium.CLUSTER_TOL
        monkeypatch.setattr(dsp, "_within_leading", lambda b, table, regime: np.ones(1, bool))
        rng = np.random.default_rng(0)

        def diagnosed(roots):
            try:
                branches = [dsp.BranchFamily(np.ones(1), np.array([w])) for w in roots]
                dsp.diagnose_bands(branches, None)
            except UnclassifiableBranch:
                return False
            return True

        def pairs_apart(roots, bigger):
            size = np.abs(roots)
            scale = 1.0 + bigger(size[:, None], size[None, :])
            return bool(np.all(dsp._pairwise(roots) > tol * scale))

        separated = []
        for medium in survey_media:
            for r in dsp._solve_grid(medium, np.geomspace(1e-2, 1e2, 5)):
                i, j = rng.choice(len(r), 2, replace=False)
                direction = -cmath.exp(1j * (cmath.phase(r[i]) + rng.uniform(-1, 1)))
                for factor in (None, 1 - 2**-40, 1 + 2**-40):
                    roots = r.copy()
                    if factor is not None:
                        roots[j] = r[i] + factor * tol * (1.0 + abs(r[i])) * direction
                    assert diagnosed(roots) == pairs_apart(roots, np.maximum)
                    separated.append(
                        (pairs_apart(roots, np.maximum), pairs_apart(roots, np.minimum))
                    )
        # the planted pairs tell the pair's larger scale from its smaller one
        assert (False, True) in separated
        assert (True, True) in separated


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0))
@settings(max_examples=20, deadline=None)
def test_roots_certificate_random_media(omega_e, omega_m):
    m = lm.new_medium(1, 1, [(1.0, omega_e, 0.05)], [(1.0, omega_m, 0.15)])
    roots = dsp.solve_dispersion(m, 1.3)
    assert len(roots) == m.state_blocks
    row = dsp.dispersion_polynomial(m, 1.3)
    assert all(abs(polyval(r, row)) < 1e-8 * np.max(np.abs(row)) for r in roots)
