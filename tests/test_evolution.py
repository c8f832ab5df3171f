"""Propagation, contraction, and band-wise decay envelopes."""

import mpmath
import numpy as np
import pytest
import scipy.linalg

import lorentzmodes
from lorentzmodes import cli
from lorentzmodes import dispersion as dsp
from lorentzmodes import energy as en
from lorentzmodes import evolution as evo
from lorentzmodes import operators as ops
from lorentzmodes.errors import (
    BandViolation,
    DimensionMismatch,
    InvalidWavenumber,
    LorentzModesError,
    NonPositiveRate,
    NotDiagonalizable,
    RootFindingFailure,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(17)


def unit_state(op, rng):
    u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    return u / op.norm(u)


class TestPropagate:
    def test_initial_state_returned_exactly(self, reference_medium, rng):
        op = ops.build_perp_operator(reference_medium, 1.0)
        u0 = unit_state(op, rng)
        res = evo.propagate(op, u0, [0.0, 1.0])
        np.testing.assert_allclose(res.states[0], u0, atol=1e-12)

    def test_undamped_norm_constant(self, undamped_medium, rng):
        op = ops.build_perp_operator(undamped_medium, 0.7)
        u0 = unit_state(op, rng)
        res = evo.propagate(op, u0, np.linspace(0, 100, 40))
        assert np.max(np.abs(res.norms - 1.0)) < 1e-9

    def test_eigen_vs_oracle(self, request, rng):
        # the projector expansion against the dense exponential, state by state,
        # on every medium of conftest.py
        t = np.array([0.0, 1.0, 10.0, 100.0])
        media = ("reference", "asymmetric", "critical", "wide", "double_pole", "ps_noncritical",
                 "electric_only", "undamped", "h1_violation", "h2_violation")
        for name in media:
            medium = request.getfixturevalue(f"{name}_medium")
            for k in (0.05, 0.3, 1.0, 1.3, 5.0, 40.0):
                op = ops.build_perp_operator(medium, k)
                u0 = unit_state(op, rng)
                eig = evo.propagate(op, u0, t)
                assert eig.method == "Eigen"
                ref = np.array([scipy.linalg.expm(-1j * s * op.matrix) @ u0 for s in t])
                err = np.linalg.norm(eig.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
                assert np.max(err) < 1e-11, (name, k, err)
                per_state = [op.norm(s) for s in eig.states]
                np.testing.assert_allclose(eig.norms, per_state, rtol=1e-13)

    def test_eigen_vs_oracle_at_the_worked_exceptional_point(self, rng):
        medium = lorentzmodes.new_medium(1.0, 1.0, [(2.3615, 0.26657, 1.1135)], [])
        t = np.array([0.0, 1.0, 10.0, 100.0])
        for k in np.append(np.linspace(1.2815078, 1.2815080, 41), 1.2815079012):
            op = ops.build_perp_operator(medium, k)
            u0 = unit_state(op, rng)
            eig = evo.propagate(op, u0, t)
            assert eig.method == "Eigen"
            ref = np.array([scipy.linalg.expm(-1j * s * op.matrix) @ u0 for s in t])
            err = np.linalg.norm(eig.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
            assert np.max(err) < 1e-9, (k, err)

    @staticmethod
    def _check_fallback(refused, u0, t):
        """The "Oracle" result on a refused operator, checked against mpmath's expm."""
        res = evo.propagate(refused, u0, t)
        assert res.method == "Oracle"
        a = refused.matrix
        # the fallback is per-sample expm, bit for bit
        expm = np.array([scipy.linalg.expm(-1j * s * a) @ u0 for s in t])
        np.testing.assert_array_equal(res.states, expm)
        # independent reference: exp(-i A t) u0 at 40 digits (a dense eig of this
        # ill-conditioned matrix is off by 7e-9)
        with mpmath.workdps(40):
            a_mp, u_mp = mpmath.matrix(a.tolist()), mpmath.matrix(u0.tolist())
            ref = np.array([[complex(x) for x in mpmath.expm(-1j * mpmath.mpf(s) * a_mp) * u_mp]
                            for s in t])
        err = np.linalg.norm(res.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(err) < 1e-11, err
        assert t[0] == 0.0
        np.testing.assert_array_equal(res.states[0], u0)
        per_state = [refused.norm(s) for s in res.states]
        np.testing.assert_allclose(res.norms, per_state, rtol=1e-13)
        lean = evo.propagate(refused, u0, t, keep_states=False)
        assert lean.method == "Oracle" and lean.states is None
        np.testing.assert_array_equal(lean.norms, res.norms)
        empty = evo.propagate(refused, u0, [])
        assert empty.method == "Oracle" and empty.states.shape == (0, refused.dim)
        return res

    def test_oracle_fallback_when_eigenvalues_split(self, rng):
        # the medium's own operator has two roots at a scaled gap of 1.4e-8, so the
        # eigen path refuses and propagate falls back to the dense matrix exponential
        medium = lorentzmodes.new_medium(1, 1, [(1, 1, 2.0)], [])
        op = ops.build_perp_operator(medium, 1.0)
        with pytest.raises(NotDiagonalizable, match="k=1: scaled gap 1.4"):
            op.eigen
        u0 = unit_state(op, rng)
        t = np.array([0.0, 1.0, 10.0, 100.0])
        res = self._check_fallback(op, u0, t)
        expected = [op.norm(scipy.linalg.expm(-1j * op.matrix * s) @ u0) for s in t]
        np.testing.assert_allclose(res.norms, expected, rtol=0, atol=1e-8)

    def test_eigen_path_reads_only_the_modal_record(self, reference_medium, rng):
        # neither the lifted projectors (op.eigen) nor the 2N x 2N matrix are built
        op = ops.build_perp_operator(reference_medium, 0.8)
        assert evo.propagate(op, unit_state(op, rng), [0.0, 1.0]).method == "Eigen"
        assert "eigen" not in vars(op) and "matrix" not in vars(op)

    def test_residual_only_refusal_falls_back(self, monkeypatch, reference_medium, rng):
        # eigenvalues off by 1e-6 relative: modes accepts them, the residual refuses
        eig = np.linalg.eig

        def shifted(a):
            vals, vecs = eig(a)
            return vals * (1 + 1e-6), vecs

        op = ops.build_perp_operator(reference_medium, 1.0)
        u0 = unit_state(op, rng)
        ops._modal_record.cache_clear()
        monkeypatch.setattr(np.linalg, "eig", shifted)
        try:
            rec = ops._modal_record(reference_medium, 1.0)
            rec.modes
            with pytest.raises(NotDiagonalizable, match="reconstruction residual 1.00e-06"):
                rec.residual
            res = evo.propagate(op, u0, [0.0, 1.0])
            assert res.method == "Oracle"
            np.testing.assert_array_equal(res.states[0], u0)
        finally:
            ops._modal_record.cache_clear()

    @pytest.mark.parametrize("t", [[0.0, np.nan], [0.0, np.inf], [np.nan], [1.0, 0.0], [-1.0, 0.0]])
    def test_bad_time_grid_refused(self, reference_medium, rng, t):
        op = ops.build_perp_operator(reference_medium, 1.0)
        with pytest.raises(ValueError, match="finite, sorted and nonnegative"):
            evo.propagate(op, unit_state(op, rng), t)

    @pytest.mark.parametrize("shape", [(5,), (2, 12), (13,), ()])
    def test_wrong_initial_shape_refused(self, reference_medium, shape):
        op = ops.build_perp_operator(reference_medium, 1.0)
        assert op.dim == 12
        with pytest.raises(DimensionMismatch, match=r"operator needs \(12,\)"):
            evo.propagate(op, np.ones(shape), [0.0, 1.0])

    def test_norms_nonincreasing(self, reference_medium, rng):
        op = ops.build_perp_operator(reference_medium, 2.0)
        u0 = unit_state(op, rng)
        res = evo.propagate(op, u0, np.linspace(0, 50, 200))
        assert np.all(np.diff(res.norms) <= 1e-10)

    def test_semigroup_property(self, reference_medium, rng):
        op = ops.build_perp_operator(reference_medium, 0.9)
        u0 = unit_state(op, rng)
        t1, t2 = 3.0, 4.5
        once = evo.propagate(op, u0, [t1 + t2]).states[-1]
        part = evo.propagate(op, u0, [t1]).states[-1]
        twice = evo.propagate(op, part, [t2]).states[-1]
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_contraction_of_matrix_exponential(self, reference_medium, asymmetric_medium):
        # independent route: dense expm, measured in the weighted norm
        for medium in (reference_medium, asymmetric_medium):
            op = ops.build_perp_operator(medium, 1.3)
            for t in (0.1, 1.0, 5.0, 25.0):
                e = scipy.linalg.expm(-1j * op.matrix * t)
                assert op.operator_norm(e) <= 1.0 + 1e-10

    def test_long_time_rate_is_spectral_abscissa(self, reference_medium, rng):
        # probe where rate*t ~ 30..60: deep in the modal regime but still
        # far above the double-precision underflow floor
        op = ops.build_perp_operator(reference_medium, 1.0)
        u0 = unit_state(op, rng)
        abscissa = float(np.max(op.eigen.eigenvalues.imag))
        t_ref = 30.0 / abs(abscissa)
        res = evo.propagate(op, u0, np.linspace(t_ref, 2 * t_ref, 20), keep_states=False)
        slope = np.polyfit(res.t_grid, np.log(res.norms), 1)[0]
        assert slope == pytest.approx(abscissa, rel=0.02)


ORACLE_KS = (0.01, 0.3, 1.0, 7.0, 50.0)


class TestEnvelopes:
    def test_hf_rate_ratio_noncritical(self, reference_medium):
        fit = evo.hf_envelope_check(reference_medium, [50.0, 100.0])
        rates = dict(fit.per_k)
        assert rates[50.0] / rates[100.0] == pytest.approx(4.0, rel=0.2)
        assert fit.rate_constant > 0
        assert fit.exponent == 2.0

    def test_hf_rate_ratio_weak_noncritical(self, ps_noncritical_medium):
        # the bound's per-k rate is the decay of the branch the hf exponent run measures
        fit = evo.hf_envelope_check(ps_noncritical_medium, [50.0, 100.0])
        rates = dict(fit.per_k)
        assert rates[50.0] / rates[100.0] == pytest.approx(4.0, rel=0.2)
        assert fit.exponent == 2.0
        label, _ = dsp._slowest_hf_branch(ps_noncritical_medium)
        for k, rate in fit.per_k:
            omega = en.branch_eigenvalue(ps_noncritical_medium, label, k)
            assert rate == pytest.approx(-omega.imag, rel=1e-9)

    def test_hf_rate_ratio_critical(self, critical_medium):
        fit = evo.hf_envelope_check(critical_medium, [10.0, 20.0])
        rates = dict(fit.per_k)
        assert rates[10.0] / rates[20.0] == pytest.approx(16.0, rel=0.2)
        assert fit.exponent == 4.0

    def test_lf_rate_ratio(self, reference_medium):
        fit = evo.lf_envelope_check(reference_medium, [0.01, 0.02])
        rates = dict(fit.per_k)
        assert rates[0.01] / rates[0.02] == pytest.approx(0.25, rel=0.2)

    def test_envelope_holds_on_samples(self, reference_medium, rng):
        t_grid = np.linspace(0, 2e5, 300)
        fit = evo.hf_envelope_check(reference_medium, [30.0, 60.0])
        op = ops.build_perp_operator(reference_medium, 30.0)
        u0 = unit_state(op, rng)
        res = evo.propagate(op, u0, t_grid, keep_states=False)
        bound = fit.prefactor * np.exp(-fit.rate_constant * t_grid / 30.0**2)
        assert np.all(res.norms <= bound * (1 + 1e-9))

    def test_optimal_data_saturates_bound(self, reference_medium):
        # the slowest eigenvector decays at exactly the envelope's rate -Im w
        k = 100.0
        roots = dsp.solve_dispersion(reference_medium, k)
        w = roots[np.argmax(roots.real)]
        op = ops.build_perp_operator(reference_medium, k)
        v = ops.eigenvector_columns(reference_medium, k, w)[:, 0]
        state = v / op.norm(v)
        t_grid = np.linspace(0, 5e5, 100)
        res = evo.propagate(op, state, t_grid, keep_states=False)
        rate = -w.imag
        assert dict(evo.hf_envelope_check(reference_medium, [k]).per_k)[k] == pytest.approx(
            rate, rel=1e-9
        )
        ratio = res.norms / np.exp(-rate * t_grid)
        assert 0.5 < ratio.min() and ratio.max() < 2.0

    @pytest.mark.parametrize(
        "check, ks, side",
        [
            (evo.hf_envelope_check, np.geomspace(10.0, 100.0, 8), "high"),
            (evo.lf_envelope_check, np.geomspace(0.01, 0.1, 8), "low"),
        ],
    )
    def test_undamped_envelope_refused(self, undamped_medium, check, ks, side):
        # the spectrum is real, so each rate -max_n Im w_n is rounding noise, the
        # largest of N noisy values; eight wavenumbers make a nonpositive one certain
        with pytest.raises(BandViolation, match=f"nonpositive decay rate in the {side} band"):
            check(undamped_medium, ks)

    @pytest.mark.parametrize(
        "ks, error, match",
        [
            ([], ValueError, "at least one wavenumber"),
            ([1.0, np.nan], InvalidWavenumber, "k = nan"),
            ([np.inf], InvalidWavenumber, "k = inf"),
            ([-5.0, 1.0], InvalidWavenumber, "k = -5.0"),
            ([0.0], InvalidWavenumber, "k = 0.0"),
        ],
    )
    @pytest.mark.parametrize("check", [evo.hf_envelope_check, evo.lf_envelope_check])
    def test_bad_wavenumbers_refused(self, reference_medium, check, ks, error, match):
        with pytest.raises(error, match=match):
            check(reference_medium, ks)

    def test_refusal_order(self, monkeypatch, reference_medium, undamped_medium):
        # a bad wavenumber, then a refused decomposition, then a failed root
        # certificate, then a nonpositive rate
        eig = np.linalg.eig

        def defective(a):  # eigenvector columns 0 and 1 made parallel
            vals, vecs = eig(a)
            vecs[..., 1] = vecs[..., 0]
            return vals, vecs

        def uncertified(roots, coeffs):
            raise RootFindingFailure("root residual certificate failed")

        monkeypatch.setattr(ops, "certify", uncertified)
        with pytest.raises(RootFindingFailure):
            evo.lf_envelope_check(undamped_medium, np.geomspace(0.01, 0.1, 8))
        monkeypatch.setattr(np.linalg, "eig", defective)
        with pytest.raises(NotDiagonalizable, match="k=1:"):
            evo.lf_envelope_check(reference_medium, [1.0, 2.0])
        for ks, match in (([1.0, np.nan], "needs positive finite wavenumbers, got k = nan"),
                          ([1e9], "leading dispersion coefficient vanishes")):
            with pytest.raises(LorentzModesError, match=match) as info:
                evo.lf_envelope_check(reference_medium, ks)
            assert not isinstance(info.value, NotDiagonalizable)

    @pytest.mark.parametrize(
        "name", ["reference_medium", "critical_medium", "electric_only_medium"]
    )
    def test_rate_samples_match_per_k_propagation(self, name, request):
        # the stacked evolution convergence_to_zero takes, against per-k propagate
        medium = request.getfixturevalue(name)
        ks = np.array([0.01, 0.3, 1.0, 7.0, 50.0])
        t = np.linspace(0.0, 3e4, 200)
        draws = np.random.default_rng(5).standard_normal((len(ks), 2, 2 * medium.state_blocks))
        states = draws[:, 0] + 1j * draws[:, 1]
        gram = ops._medium_record(medium).gram
        evolved = np.sum(gram * np.abs(ops._ModalRecord(medium, ks).evolve(states, t)) ** 2, axis=-1)
        norms = np.sqrt(evolved / np.sum(gram * np.abs(states) ** 2, axis=-1)[:, None])
        rng = np.random.default_rng(5)  # the same stream, drawn state by state
        for k, trace in zip(ks, norms):
            op = ops.build_perp_operator(medium, k)
            ref = evo.propagate(op, unit_state(op, rng), t, keep_states=False).norms
            above = ref > np.sqrt(np.finfo(float).tiny)
            np.testing.assert_allclose(trace[above], ref[above], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", ["reference_medium", "electric_only_medium"])
    def test_an_empty_stack_evolves_to_an_empty_stack(self, name, request):
        # a node set sliced empty, as a later panel doubling's coarse rule is
        medium = request.getfixturevalue(name)
        dim, t = 2 * medium.state_blocks, np.array([0.0, 1.0, 2.0])
        record = ops._ModalRecord(medium, np.empty(0))
        for states in (np.ones(dim, dtype=complex), np.ones((0, dim), dtype=complex)):
            assert record.evolve(states, t).shape == (0, len(t), dim)

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "asymmetric_medium"])
    def test_dense_semigroup_norm_under_the_envelope(self, name, request):
        # oracle: the weighted norm of the dense expm, never above the computed bound
        medium = request.getfixturevalue(name)
        fit = evo.lf_envelope_check(medium, ORACLE_KS)
        for k, rate in fit.per_k:
            op = ops.build_perp_operator(medium, k)
            for t in np.linspace(0.0, 10.0 / rate, 13):
                dense = op.operator_norm(scipy.linalg.expm(-1j * t * op.matrix))
                assert dense <= fit.prefactor * np.exp(-rate * t) * (1 + 1e-9), (k, t)

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "asymmetric_medium"])
    def test_fitted_dense_decay_matches_the_computed_rate(self, name, request, rng):
        # independent oracle: the log-slope of a random state under the dense
        # expm, fitted deep in the modal regime (rate * t in [30, 60])
        medium = request.getfixturevalue(name)
        for k, rate in evo.hf_envelope_check(medium, ORACLE_KS).per_k:
            op = ops.build_perp_operator(medium, k)
            u0 = unit_state(op, rng)
            t = np.linspace(30.0 / rate, 60.0 / rate, 20)
            norms = [op.norm(scipy.linalg.expm(-1j * s * op.matrix) @ u0) for s in t]
            assert -np.polyfit(t, np.log(norms), 1)[0] == pytest.approx(rate, rel=0.02), k


class TestMidBand:
    def test_positive_uniform_rate(self, reference_medium):
        fit = evo.midband_rate(reference_medium, (0.5, 5.0), samples=12)
        assert fit.rate_constant > 0
        assert fit.residual <= 0.10  # against the sampled spectral abscissa
        for samples in (0, 2.5, 12.0, "12"):
            with pytest.raises(ValueError, match="samples"):
                evo.midband_rate(reference_medium, (0.5, 5.0), samples=samples)
        for k_lo in (0.0, -0.5):
            with pytest.raises(ValueError, match="must start at a positive wavenumber"):
                evo.midband_rate(reference_medium, (k_lo, 5.0))
        for band in ((0.5, 0.5), (5.0, 0.5), (0.5, np.inf), (0.5, np.nan)):
            with pytest.raises(ValueError, match="end finite above it"):
                evo.midband_rate(reference_medium, band)

    def test_nested_band_monotonicity(self, reference_medium):
        wide = evo.midband_rate(reference_medium, (0.5, 5.0), samples=12)
        narrow = evo.midband_rate(reference_medium, (1.0, 3.0), samples=12)
        assert narrow.rate_constant >= wide.rate_constant - 1e-12

    def test_beta_close_to_abscissa(self, reference_medium):
        fit = evo.midband_rate(reference_medium, (0.8, 2.0), samples=8)
        abscissa = min(
            -float(np.max(dsp.solve_dispersion(reference_medium, k).imag))
            for k, _ in fit.per_k
        )
        assert fit.rate_constant == pytest.approx(abscissa, rel=0.10)

    def test_real_spectrum_refused_with_a_given_time_grid(self, undamped_medium):
        with pytest.raises(NonPositiveRate, match="spectrum reaches the real axis"):
            evo.midband_rate(undamped_medium, (0.1, 10.0), samples=5)


def test_stacked_paths_build_nothing_per_k(monkeypatch, reference_medium, reference_bands):
    def per_k(*args, **kwargs):
        raise AssertionError("a per-k operator path ran")

    for original in (ops.build_perp_operator, ops.spectral_decomposition, evo.propagate):
        for module in (lorentzmodes, ops, evo, en, cli):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, per_k)
    _, k_plus = reference_bands
    ops.projector_norm_sweep(reference_medium, lambda k: 0j, np.geomspace(k_plus, 10 * k_plus, 4))
    evo.hf_envelope_check(reference_medium, [50.0, 100.0])
    evo.lf_envelope_check(reference_medium, [0.01, 0.02])
    evo.midband_rate(reference_medium, (0.5, 5.0), samples=6)
    en.convergence_to_zero(reference_medium, np.geomspace(1.0, 1e3, 5))
