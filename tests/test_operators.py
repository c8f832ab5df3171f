"""Reduced operator, inner product, resolvent, projectors, the rotation reduction."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.spatial.transform import Rotation
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzmodes as lm
from lorentzmodes import dispersion as dsp
from lorentzmodes import evolution as evo
from lorentzmodes import operators as ops
from lorentzmodes import polyroots as pr
from lorentzmodes.errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    EvaluationAtPole,
    InvalidWavenumber,
    LorentzModesError,
    NearSingularEvaluation,
    NotDiagonalizable,
)

from conftest import seeded_draws


def random_state(op, rng):
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    return v


class TestOperatorAssembly:
    def test_k0_block_decoupling(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 0.0)
        lay = op.layout
        # electric chain must not see magnetic blocks and vice versa
        assert np.all(op.matrix[lay.e, lay.h] == 0)
        assert np.all(op.matrix[lay.h, lay.e] == 0)
        assert np.all(op.matrix[lay.pdot(0), lay.h] == 0)
        assert np.all(op.matrix[lay.mdot(0), lay.e] == 0)

    def test_eigenvalues_are_doubled_dispersion_roots(self, reference_medium, asymmetric_medium):
        for medium in (reference_medium, asymmetric_medium):
            roots = np.sort_complex(dsp.solve_dispersion(medium, 1.0))
            op = ops.build_perp_operator(medium, 1.0)
            eigs = np.sort_complex(scipy.linalg.eigvals(op.matrix))
            np.testing.assert_allclose(np.repeat(roots, 2), eigs, atol=1e-8)

    def test_undamped_operator_is_gram_selfadjoint(self, undamped_medium):
        op = ops.build_perp_operator(undamped_medium, 1.3)
        g = op.gram_diag
        adj = np.conj(op.matrix.T) * g[None, :] / g[:, None]
        assert np.linalg.norm(op.matrix - adj, 2) < 1e-12

    def test_perp_matches_full_operator_restriction(self, reference_medium, asymmetric_medium):
        k = 0.8
        for medium in (reference_medium, asymmetric_medium):
            full = full_operator(medium, [0.0, 0.0, k])
            perp = ops.build_perp_operator(medium, k)
            nb = medium.state_blocks
            idx = [3 * b + c for b in range(nb) for c in (0, 1)]
            np.testing.assert_allclose(full[np.ix_(idx, idx)], perp.matrix, atol=1e-14)

    def test_nonfinite_k_is_refused(self, reference_medium):
        for k in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidWavenumber, match=r"k = (nan|-?inf)"):
                ops.build_perp_operator(reference_medium, k)
        # a negative k stays accepted: the curl block only changes sign
        neg, pos = (ops.build_perp_operator(reference_medium, k) for k in (-0.8, 0.8))
        lay = pos.layout
        np.testing.assert_array_equal(neg.matrix[lay.e, lay.h], -pos.matrix[lay.e, lay.h])
        assert neg.k == -0.8 and np.all(np.isfinite(neg.matrix))

    def test_operator_is_its_medium_and_k(self, reference_medium):
        # nothing but (medium, k) is stored, and the matrix built from them is read-only
        op = ops.build_perp_operator(reference_medium, 1.0)
        assert [f.name for f in dataclasses.fields(op)] == ["medium", "k"]
        assert op == ops.PerpOperator(reference_medium, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] += 1e-3
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.matrix = np.zeros((op.dim, op.dim))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.k = 2.0
        assert op.matrix.tobytes() == ops._assemble(reference_medium, 1.0 * ops.J2).tobytes()
        with pytest.raises(InvalidWavenumber, match="got k = nan"):
            ops.PerpOperator(reference_medium, float("nan"))


class TestRotation:
    def test_unitary_equivalence_random_wave_vectors(self, reference_medium, asymmetric_medium):
        # the reduction to the transverse operator: a rotation R with R k-hat = e3, applied
        # blockwise, takes the full operator at k to the one at |k| e3
        rng = np.random.default_rng(5)
        e3 = np.array([0.0, 0.0, 1.0])
        for medium in (reference_medium, asymmetric_medium):
            nb = medium.state_blocks
            kvecs = [rng.standard_normal(3) for _ in range(50)] + [2.5 * e3, -e3]
            for kvec in kvecs:
                if np.linalg.norm(kvec) < 1e-3:
                    continue
                khat = kvec / np.linalg.norm(kvec)
                rot = Rotation.align_vectors([e3], [khat])[0].as_matrix()
                big = np.kron(np.eye(nb), rot)
                a_k = full_operator(medium, kvec)
                a_mod = full_operator(medium, np.linalg.norm(kvec) * e3)
                resid = np.linalg.norm(big @ a_k @ big.T.conj() - a_mod, 2)
                assert resid < 1e-12 * np.linalg.norm(a_mod, 2)
                # rotation maps k-hat to e3
                np.testing.assert_allclose(rot @ khat, e3, atol=1e-12)


class TestInnerProduct:
    def test_unit_e_state(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        u = np.zeros(op.dim)
        u[op.layout.e] = (1.0, 0.0)
        assert op.inner(u, u) == pytest.approx(reference_medium.eps0 / 2)

    def test_positive_definite(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = random_state(op, rng)
            val = op.inner(u, u)
            assert val.real > 0
            assert abs(val.imag) < 1e-14 * val.real

    def test_dimension_mismatch(self, reference_medium, critical_medium):
        u = np.zeros(2 * critical_medium.state_blocks, dtype=complex)
        with pytest.raises(DimensionMismatch):
            ops.build_perp_operator(reference_medium, 1.0).inner(u, u)

    @pytest.mark.parametrize("shape", [(14,), (3, 10), ()])
    def test_norm_refuses_a_wrong_last_axis(self, reference_medium, shape):
        op = ops.build_perp_operator(reference_medium, 1.0)
        assert op.dim == 12
        with pytest.raises(DimensionMismatch, match=r"operator needs \(12,\)"):
            op.norm(np.ones(shape))

    @pytest.mark.parametrize("shape", [(12,), (14, 14), (3, 12, 12), (12, 14), ()])
    def test_operator_norm_refuses_all_but_a_square_dim_matrix(self, reference_medium, shape):
        op = ops.build_perp_operator(reference_medium, 1.0)
        with pytest.raises(DimensionMismatch, match=r"operator needs \(12, 12\)"):
            op.operator_norm(np.ones(shape))

    def test_dissipation_identity_exact(self, reference_medium, asymmetric_medium):
        rng = np.random.default_rng(4)
        for medium in (reference_medium, asymmetric_medium):
            op = ops.build_perp_operator(medium, 1.7)
            lay = op.layout
            for _ in range(100):
                u = random_state(op, rng)
                lhs = op.inner(op.matrix @ u, u).imag
                rhs = 0.0
                for j, osc in enumerate(medium.electric):
                    rhs -= (
                        medium.eps0
                        / 2
                        * osc.damping
                        * osc.coupling**2
                        * np.sum(np.abs(u[lay.pdot(j)]) ** 2)
                    )
                for l, osc in enumerate(medium.magnetic):
                    rhs -= (
                        medium.mu0
                        / 2
                        * osc.damping
                        * osc.coupling**2
                        * np.sum(np.abs(u[lay.mdot(l)]) ** 2)
                    )
                assert lhs == pytest.approx(rhs, abs=1e-12 * np.sum(np.abs(u) ** 2))
                assert lhs <= 1e-12 * np.sum(np.abs(u) ** 2)

    def test_operator_norm_is_the_weighted_2_norm_bit_for_bit(self, reference_medium,
                                                              wide_medium):
        # a matrix that is no lift takes the weighted 2N x 2N norm; a projector, a lift,
        # the weighted N x N norm of its u_+ part
        rng = np.random.default_rng(6)
        for medium in (reference_medium, wide_medium):
            op = ops.build_perp_operator(medium, 2.1)
            mat = rng.standard_normal((op.dim, op.dim)) + 1j * rng.standard_normal((op.dim, op.dim))
            assert op.operator_norm(mat) == weighted_2_norm(op, mat)
            _, vecs, left = (x[0] for x in op._record.modes)
            for n, projector in enumerate(op.eigen.projectors):
                assert_lift_norm(op, projector, np.outer(vecs[:, n], left[n]))

    def test_dissipation_vanishes_iff_damped_blocks_vanish(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        lay = op.layout
        u = np.zeros(op.dim, dtype=complex)
        u[lay.e], u[lay.h], u[lay.p(0)], u[lay.m(0)] = (1.0, 2.0), (0.5, -1.0), (0.3, 0.1j), (1j, 0.2)
        assert op.inner(op.matrix @ u, u).imag == pytest.approx(0.0, abs=1e-15)


class TestResolvent:
    def test_formula_matches_dense_inverse(self, reference_medium, asymmetric_medium):
        rng = np.random.default_rng(9)
        for medium in (reference_medium, asymmetric_medium):
            checked = 0
            for _ in range(200):  # attempt cap: a regression that keeps refusing fails, not hangs
                if checked == 100:
                    break
                k = float(rng.uniform(0.1, 10.0))
                w = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
                op = ops.build_perp_operator(medium, k)
                try:
                    r = ops.resolvent_formula(medium, k, w)
                except NearSingularEvaluation:
                    continue
                dense = np.linalg.inv(op.matrix - w * np.eye(op.dim))
                assert np.linalg.norm(r - dense, 2) <= 1e-9 * np.linalg.norm(dense, 2)
                checked += 1
            assert checked == 100

    def test_defining_identity(self, critical_medium):
        k, w = 0.6, 1.1 + 0.9j
        op = ops.build_perp_operator(critical_medium, k)
        r = ops.resolvent_formula(critical_medium, k, w)
        resid = np.linalg.norm((op.matrix - w * np.eye(op.dim)) @ r - np.eye(op.dim), 2)
        assert resid < 1e-9 * np.linalg.norm(op.matrix, 2)

    def test_upper_half_plane_bound(self, reference_medium):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = float(rng.uniform(0.05, 20.0))
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
            op = ops.build_perp_operator(reference_medium, k)
            r = ops.resolvent_formula(reference_medium, k, w)
            assert op.operator_norm(r) <= 1.0 / w.imag + 1e-9

    def test_removable_singularity_guard(self, reference_medium):
        # a permeability zero is regular for the true resolvent but the
        # formula path refuses to evaluate there
        from lorentzmodes.polyroots import companion_roots

        p_m = reference_medium.family_polynomials[2]
        z_m = companion_roots(p_m)[0]
        k = 1.0
        op = ops.build_perp_operator(reference_medium, k)
        dense = np.linalg.inv(op.matrix - z_m * np.eye(op.dim))
        assert np.isfinite(dense).all()
        with pytest.raises(NearSingularEvaluation):
            ops.resolvent_formula(reference_medium, k, z_m)

    @pytest.mark.parametrize("call", [ops.resolvent_formula, ops.projector_contour])
    @pytest.mark.parametrize("omega", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_non_finite_frequency_refused_before_any_evaluation(
        self, reference_medium, monkeypatch, call, omega
    ):
        def evaluated(*args):
            raise AssertionError("evaluated at a non-finite frequency")

        monkeypatch.setattr(ops, "singular_set", evaluated)
        monkeypatch.setattr(ops, "_resolvent_plus", evaluated)
        with pytest.raises(NearSingularEvaluation, match=re.escape(f"omega={complex(omega)} ")):
            call(reference_medium, 1.0, omega)


class TestSingularSetMemo:
    def test_one_solve_per_medium_and_k(self, monkeypatch, reference_medium):
        # the spectrum of the singular set is one certified u_+ spectrum per (medium, k):
        # the modal record builds its dispersion row once
        solve = ops._solvable_rows
        calls = []

        def counting(medium, k, *args, **kwargs):
            calls.append(k)
            return solve(medium, k, *args, **kwargs)

        monkeypatch.setattr(ops, "_solvable_rows", counting)
        ops._modal_record.cache_clear()
        k = 1.2345
        w = ops.build_perp_operator(reference_medium, k).eigen.eigenvalues[0]
        ops.resolvent_formula(reference_medium, k, 0.3 + 0.7j)
        ops.projector_contour(reference_medium, k, w)
        assert calls == [k]
        ops.resolvent_formula(reference_medium, 2 * k, 0.3 + 0.7j)
        assert calls == [k, 2 * k]

    def test_returned_points_are_read_only(self, reference_medium):
        pts = ops.singular_set(reference_medium, 0.75)
        with pytest.raises(ValueError):
            pts[0] = 1.0
        assert ops.singular_set(reference_medium, 0.75) is pts

    def test_one_eig_per_medium_and_k(self, monkeypatch, reference_medium, wide_medium):
        # the modes sequence at a fresh k: op.eigen, propagate, the guarded resolvent,
        # the contour
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        calls = []

        def counting(name, fn):
            def wrapped(a):
                calls.append(name)
                return fn(a)
            return wrapped

        monkeypatch.setattr(np.linalg, "eig", counting("eig", eig))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", eigvals))
        for medium in (reference_medium, wide_medium):
            ops.singular_set(medium, 0.5)  # the per-medium constants (poles, zeros) are built
            ops._modal_record.cache_clear()
            calls.clear()
            k = 0.8765
            op = ops.build_perp_operator(medium, k)
            dec = op.eigen
            evo.propagate(op, np.ones(op.dim), [0.0, 1.0])
            ops.resolvent_formula(medium, k, (0.3 + 0.7j) * (1.0 + np.abs(dec.eigenvalues).max()))
            ops.projector_contour(medium, k, dec.eigenvalues[len(dec.eigenvalues) // 2])
            assert calls == ["eig"]
            # a stacked caller keeps one eig per stack
            ops._ModalRecord(medium, np.array([0.5, k, 2.0])).modes
            assert calls == ["eig", "eig"]

    def test_operator_keeps_its_record(self, monkeypatch, reference_medium):
        # 16 other wavenumbers evict k's record from the bounded cache; the operator
        # still holds it, so propagate runs no second eig
        eig = np.linalg.eig
        calls = []

        def counting(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        k = 0.7531
        op = ops.build_perp_operator(reference_medium, k)
        dec = op.eigen
        for other in np.geomspace(0.01, 100.0, 16):
            ops.singular_set(reference_medium, other)
        assert ops._modal_record.cache_info().currsize == 16
        calls.clear()
        res = evo.propagate(op, np.ones(op.dim), [0.0, 1.0])
        assert res.method == "Eigen" and calls == []
        assert op.eigen is dec

    def test_nonfinite_k_is_refused_before_any_eig(self, monkeypatch, reference_medium):
        ops.singular_set(reference_medium, 0.5)  # the per-medium constants are built

        def no_eig(a):
            raise AssertionError("eig ran")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        for k in (float("nan"), float("inf")):
            with pytest.raises(InvalidWavenumber):
                ops.singular_set(reference_medium, k)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_sweep_k_is_refused_before_any_assembly(self, monkeypatch, k,
                                                              reference_medium):
        def never(*args):
            raise AssertionError("an operator was assembled or decomposed")

        monkeypatch.setattr(ops, "_assemble", never)
        monkeypatch.setattr(np.linalg, "eig", never)
        with pytest.raises(InvalidWavenumber, match=f"finite wavenumbers, got k = {k}$"):
            ops.projector_norm_sweep(reference_medium, lambda k: 0j, [0.5, k, 2.0])

    @pytest.mark.parametrize("k_grid", [[], np.ones((2, 3)), 1.0])
    def test_empty_or_non_1d_sweep_grid_is_refused(self, k_grid, reference_medium):
        # an empty grid used to return [], and a 2-D one to fail formatting its own refusal
        shape = re.escape(str(np.shape(k_grid)))
        with pytest.raises(ValueError, match=f"non-empty 1-D k_grid, got shape {shape}$"):
            ops.projector_norm_sweep(reference_medium, lambda k: 0j, k_grid)

    def test_memoised_eig_is_read_only(self, reference_medium):
        record = ops._modal_record(reference_medium, 0.625)
        got = (record.u_plus, *record.eig)
        assert len(got) == 3  # (A_+, eigenvalues, eigenvectors)
        fields = (record.residual, record.norms, record.rows, record.spectrum, record.singular_set)
        for x in got + record.modes + fields:
            with pytest.raises(ValueError):
                x.flat[0] = 1.0
        again = ops._modal_record(reference_medium, 0.625)
        assert again is record
        assert all(a is b for a, b in zip((again.u_plus, *again.eig), got))


def oscillator_blocks(medium, lay):
    """(field block, eps0 or mu0, oscillators, position, velocity) per family of lay."""
    yield lay.e, medium.eps0, medium.electric, lay.p, lay.pdot
    yield lay.h, medium.mu0, medium.magnetic, lay.m, lay.mdot


STACK_MEDIA = [
    "reference_medium",
    "critical_medium",
    "double_pole_medium",
    "asymmetric_medium",
    "ps_noncritical_medium",
]


def _omega_grid(seed):
    """A 3 x 4 array of points off the real axis, where the formula path is regular."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-4, 4, (3, 4)) + 1j * rng.choice([-1, 1], (3, 4)) * rng.uniform(
        0.1, 2.0, (3, 4)
    )


class TestStackedResolvent:
    @pytest.mark.parametrize("name", STACK_MEDIA)
    def test_resolvent_stack_equals_scalar_calls(self, name, request):
        medium = request.getfixturevalue(name)
        for k in (0.05, 1.0, 20.0):
            omegas = _omega_grid(int(100 * k))
            stacked = ops.resolvent_formula(medium, k, omegas)
            assert stacked.shape == omegas.shape + (2 * medium.state_blocks,) * 2
            for idx, w in np.ndenumerate(omegas):
                r = ops.resolvent_formula(medium, k, w)
                assert np.linalg.norm(stacked[idx] - r) <= 1e-13 * np.linalg.norm(r)

    @pytest.mark.parametrize("name", STACK_MEDIA)
    def test_eigenvector_stack_equals_scalar_calls(self, name, request):
        medium = request.getfixturevalue(name)
        for k in (0.05, 1.0, 20.0):
            omegas = _omega_grid(int(100 * k) + 1)
            stacked = ops.eigenvector_columns(medium, k, omegas)
            assert stacked.shape == omegas.shape + (2 * medium.state_blocks, 2)
            for idx, w in np.ndenumerate(omegas):
                v = ops.eigenvector_columns(medium, k, w)
                assert np.linalg.norm(stacked[idx] - v) <= 1e-13 * np.linalg.norm(v)

    @pytest.mark.parametrize("name", STACK_MEDIA + ["electric_only_medium"])
    def test_eigenvector_columns_match_the_oscillator_loop(self, name, request):
        medium = request.getfixturevalue(name)
        k, omegas = 1.3, _omega_grid(7)
        w = omegas[..., None, None]
        lay = ops.StateLayout(medium.n_electric, medium.n_magnetic, 2)
        expected = np.zeros(omegas.shape + (lay.dim, 2), dtype=complex)
        field_maps = (np.eye(2), k / (w * medium.permeability(w)) * ops.J2)
        for f, (field, _, oscillators, pos, vel) in zip(field_maps, oscillator_blocks(medium, lay)):
            expected[..., field, :] = f
            for j, osc in enumerate(oscillators):
                expected[..., pos(j), :] = -f / osc.q(w)
                expected[..., vel(j), :] = 1j * w * f / osc.q(w)
        got = ops.eigenvector_columns(medium, k, omegas)
        # r**2 on an array may round apart from the scalar power by one unit
        np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(float).eps, atol=0)

    def test_scalar_omega_keeps_matrix_shape(self, reference_medium):
        dim = 2 * reference_medium.state_blocks
        w = 0.7 + 0.3j
        assert ops.resolvent_formula(reference_medium, 1.0, w).shape == (dim, dim)
        assert ops.eigenvector_columns(reference_medium, 1.0, w).shape == (dim, 2)

    def test_one_singular_entry_refuses_the_stack(self, reference_medium):
        z_m = reference_medium.family_zeros[1][0]
        omegas = np.array([0.7 + 0.3j, z_m, -1.2 + 0.5j])
        with pytest.raises(NearSingularEvaluation):
            ops.resolvent_formula(reference_medium, 1.0, omegas)
        with pytest.raises(NearSingularEvaluation, match=r"omega=\(nan\+0j\) is not finite"):
            ops.resolvent_formula(reference_medium, 1.0, np.append(omegas[[0, 2]], np.nan))
        # without the singular entry the same stack evaluates
        assert np.isfinite(ops.resolvent_formula(reference_medium, 1.0, omegas[[0, 2]])).all()


def assert_exact_blocks(lifted, p, s):
    """Every 2 x 2 block (a, b) of lifted is p_ab I2 where s_a s_b > 0, else p_ab (-i J2), exactly.

    -i J2 = [[0, i], [-i, 0]]: i p is (-Im p, Re p) and -i p is (Im p, -Re p), no rounding.
    """
    n = p.shape[-1]
    blocks = np.moveaxis(lifted.reshape(p.shape[:-2] + (n, 2, n, 2)), -3, -2)
    same = np.outer(s, s) > 0
    diagonal, upper, lower = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0]
    assert np.array_equal(diagonal, np.where(same, p, 0))
    assert np.array_equal(blocks[..., 1, 1], diagonal)
    assert np.array_equal(upper, np.where(same, 0, -p.imag + 1j * p.real))
    assert np.array_equal(lower, np.where(same, 0, p.imag - 1j * p.real))


class TestExactLift:
    """The u_+/u_- lift copies each u_+ entry into its 2 x 2 block with no rounding."""

    @pytest.mark.parametrize("name", STACK_MEDIA + ["electric_only_medium"])
    def test_lift_of_random_matrices(self, name, request):
        medium = request.getfixturevalue(name)
        record = ops._medium_record(medium)
        n = medium.state_blocks
        rng = np.random.default_rng(n)
        p = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        p[0, 0, :] = 0.0  # exact zeros stay zeros
        p *= 10.0 ** rng.integers(-8, 9, (3, n, n))
        assert_exact_blocks(ops._lift(p, record.lift_blocks), p, record.flip)

    @pytest.mark.parametrize("name", STACK_MEDIA + ["electric_only_medium"])
    def test_resolvent_and_projectors(self, name, request):
        medium = request.getfixturevalue(name)
        s = ops._medium_record(medium).flip
        for k in (0.05, 1.0, 20.0):
            omegas = _omega_grid(int(100 * k))
            assert_exact_blocks(ops.resolvent_formula(medium, k, omegas),
                                ops._resolvent_plus(medium, k, omegas), s)
            op = ops.build_perp_operator(medium, k)
            _, vecs, left = (x[0] for x in op._record.modes)
            assert_exact_blocks(op.eigen.projectors, vecs.T[:, :, None] * left[:, None, :], s)


def weighted_2_norm(op, mat):
    """|W^1/2 mat W^-1/2|_2 of a 2N x 2N matrix, or of an N x N u_+ matrix on W's blocks."""
    s = np.sqrt(op.gram_diag)[:: op.dim // len(mat)]
    return float(np.linalg.norm((mat * s[:, None]) / s[None, :], 2))


def u_plus_part(lifted, s):
    """The N x N p of a lift, read off the blocks ``assert_exact_blocks`` pins."""
    upper = lifted[..., 0::2, 1::2]  # i p where s_a s_b < 0
    return np.where(np.outer(s, s) > 0, lifted[..., 0::2, 0::2], upper.imag - 1j * upper.real)


def assert_lift_norm(op, lifted, p):
    """op.operator_norm of the lift of p: the weighted N x N norm of p bit for bit, and
    within 2e-15 relative of the weighted 2N x 2N norm."""
    norm = op.operator_norm(lifted)
    assert norm == weighted_2_norm(op, p)
    assert norm == pytest.approx(weighted_2_norm(op, lifted), rel=2e-15, abs=0)


class TestLiftNorm:
    """operator_norm takes one N x N SVD of a lift's u_+ part, and the 2N x 2N SVD otherwise."""

    @pytest.mark.parametrize("name", ["reference_medium", "critical_medium", "wide_medium"])
    def test_resolvents_and_contour_projectors(self, name, request):
        medium = request.getfixturevalue(name)
        s = ops._medium_record(medium).flip
        for k in (0.05, 1.0, 20.0):
            op = ops.build_perp_operator(medium, k)
            omegas = _omega_grid(int(100 * k)).ravel()
            for w, r in zip(omegas, ops.resolvent_formula(medium, k, omegas)):
                assert_lift_norm(op, r, ops._resolvent_plus(medium, k, w))
            for w in op.eigen.eigenvalues:
                contour = ops.projector_contour(medium, k, w)
                p = u_plus_part(contour, s)
                assert_exact_blocks(contour, p, s)
                assert_lift_norm(op, contour, p)

    @pytest.mark.parametrize("name", ["reference_medium", "wide_medium"])
    def test_a_lift_moved_by_one_ulp_takes_the_2n_path(self, name, request):
        # any entry, read for the u_+ part or not, structural zero or not: a loose
        # structure test would take the N x N path, which differs in the last bit here
        medium = request.getfixturevalue(name)
        op = ops.build_perp_operator(medium, 2.1)
        s = ops._medium_record(medium).flip
        rng = np.random.default_rng(11)
        differs = 0
        for projector in op.eigen.projectors:
            for a, b in rng.integers(op.dim, size=(8, 2)):
                mat = projector.copy()
                mat[a, b] = np.nextafter(mat[a, b].real, np.inf) + 1j * mat[a, b].imag
                assert op.operator_norm(mat) == weighted_2_norm(op, mat)
                differs += weighted_2_norm(op, u_plus_part(mat, s)) != weighted_2_norm(op, mat)
        assert differs

    def test_a_nan_fails_as_the_2n_svd_does(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 2.1)

        def outcome(norm, mat):
            try:
                return repr(norm(mat))
            except np.linalg.LinAlgError as err:
                return repr(err)

        # read for the u_+ part, its copy, the i p slot, and both: a lift of a NaN
        slots = ([(0, 0)], [(1, 1)], [(0, 3)], [(0, 0), (1, 1)])
        for lift in (op.eigen.projectors[0], np.eye(op.dim, dtype=complex)):
            for slot in slots:
                mat = lift.copy()
                mat[tuple(np.transpose(slot))] = np.nan
                assert outcome(op.operator_norm, mat) == outcome(
                    lambda m: weighted_2_norm(op, m), mat)


ALL_MEDIA = STACK_MEDIA + ["undamped_medium", "electric_only_medium"]
BAND_KS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


def per_block_template(medium, width):
    """The k-independent blocks of the width-wide operator, filled block by block."""
    lay = ops.StateLayout(medium.n_electric, medium.n_magnetic, width)
    a = np.zeros((lay.dim, lay.dim), dtype=complex)
    eye = np.eye(width)
    for field, _, oscillators, pos, vel in oscillator_blocks(medium, lay):
        for j, osc in enumerate(oscillators):
            a[field, vel(j)] = -1j * osc.coupling**2 * eye
            a[pos(j), vel(j)] = 1j * eye
            a[vel(j), field] = 1j * eye
            a[vel(j), pos(j)] = -1j * osc.resonance**2 * eye
            a[vel(j), vel(j)] = -1j * osc.damping * eye
    return a


def full_operator(medium, k_vector):
    """The 3N x 3N operator at a wave vector: the width-3 template and the curl blocks [k]x."""
    k = np.asarray(k_vector, dtype=float)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    a = per_block_template(medium, 3)
    a[0:3, 3:6] = -cross / medium.eps0
    a[3:6, 0:3] = cross / medium.mu0
    return a


class TestMediumRecord:
    def test_one_record_build_per_medium(self, monkeypatch, asymmetric_medium):
        build, builds = ops._MediumRecord.__init__, []

        def counting(record, medium):
            builds.append(medium)
            build(record, medium)

        monkeypatch.setattr(ops._MediumRecord, "__init__", counting)
        ops._medium_record.cache_clear()
        for k in (0.5, 2.0):
            ops.build_perp_operator(asymmetric_medium, k)
            ops.resolvent_formula(asymmetric_medium, k, 0.3 + 0.7j)
            ops.eigenvector_columns(asymmetric_medium, k, 0.3 + 0.7j)
            ops.build_perp_operator(asymmetric_medium, k).gram_diag
        assert builds == [asymmetric_medium]

    @pytest.mark.parametrize("name", ["reference_medium", "electric_only_medium", "wide_medium"])
    def test_every_array_is_read_only(self, name, request):
        record = ops._medium_record(request.getfixturevalue(name))
        record.fixed_points  # built on first use
        arrays = [x for x in vars(record).values() if isinstance(x, np.ndarray)]
        assert len(arrays) == 15  # with the polarisation split and join and the lift's blocks
        # coupling^2, resonance^2, i*damping and the poles live in the medium's family tables
        tables = [x for table in record.medium.family_tables for x in table[1:]]
        assert len(tables) == 8
        for x in arrays + tables:
            assert not x.flags.writeable

    def test_every_oscillator_constant_is_the_tables_square(self):
        # x**2 rounds apart from x * x on both values; every reader takes the table's x * x
        coupling, resonance = 1.2890429289947154, 0.6708612998243347
        assert coupling**2 != coupling * coupling and resonance**2 != resonance * resonance
        medium = lm.new_medium(1.3, 0.9, [(coupling, resonance, 0.3)], [(0.8, 1.7, 0.2)])
        e, m = medium.family_tables
        assert (e.c2[0], e.r2[0]) == (coupling * coupling, resonance * resonance)
        c2, r2, ig = (np.concatenate([x, y]) for x, y in zip(e[1:4], m[1:4]))
        record = ops._medium_record(medium)
        pos, vel, family, t = record.pos, record.vel, record.family, record.template
        assert t[family, vel].tobytes() == (-1j * c2).tobytes()
        assert t[vel, pos].tobytes() == (-1j * r2).tobytes()
        assert t[vel, vel].tobytes() == (0 - ig).tobytes()
        base, gram = np.array([e.base, m.base])[family], record.gram[::2]
        assert gram[pos].tobytes() == (base / 2 * r2 * c2).tobytes()
        assert gram[vel].tobytes() == (base / 2 * c2).tobytes()
        assert medium.family_polynomials[1][0] == -e.r2[0]  # Q_e's constant coefficient
        table = medium.asymptotic_coefficients()
        assert table.total_coupling == sum(c2.tolist())
        assert table.damped_coupling == sum((ig.imag * c2).tolist())

    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_templates_are_the_per_block_fill(self, name, request):
        medium = request.getfixturevalue(name)
        record = ops._medium_record(medium)
        t1, t2 = record.template, record.template2
        assert t1.tobytes() == per_block_template(medium, 1).tobytes()
        assert t2.tobytes() == per_block_template(medium, 2).tobytes()

    def test_a_stream_of_media_keeps_both_caches_bounded(self):
        for i in range(20):
            medium = lm.new_medium(1.0, 1.0, [(1.0, 1.0 + 0.01 * i, 0.1)], [(1.0, 2.0, 0.2)])
            ops.build_perp_operator(medium, 1.0).eigen
            ops.singular_set(medium, 1.0)
            assert ops._medium_record.cache_info().currsize <= 16
            assert ops._modal_record.cache_info().currsize <= 16


class TestResolventAcrossBands:
    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_formula_matches_dense_inverse(self, name, request):
        # covers a family without oscillators, the undamped medium and N = 16
        medium = request.getfixturevalue(name)
        rng = np.random.default_rng(19)
        for k in BAND_KS:
            op = ops.build_perp_operator(medium, k)
            checked = 0
            for _ in range(20):  # attempt cap: a regression that keeps refusing fails, not hangs
                if checked == 8:
                    break
                w = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
                try:
                    r = ops.resolvent_formula(medium, k, w)
                except NearSingularEvaluation:
                    continue
                dense = np.linalg.inv(op.matrix - w * np.eye(op.dim))
                assert np.linalg.norm(r - dense, 2) <= 1e-9 * np.linalg.norm(dense, 2)
                checked += 1
            assert checked == 8


def per_family_resolvent_plus(medium, k, omega):
    """The u_+ resolvent filled family by family, with eps and mu from the medium."""
    lay = ops.StateLayout(medium.n_electric, medium.n_magnetic, 1)
    w = omega[..., None]
    mu = medium.permeability(w)
    eps_mu_omega2 = w * w * medium.permittivity(w) * mu
    v = np.zeros(omega.shape + (lay.dim,), dtype=complex)
    t = np.zeros(omega.shape + (lay.dim, lay.dim), dtype=complex)
    a_rows = []
    field_maps = (1.0, 1j * k / (w * mu))
    families = zip(field_maps, oscillator_blocks(medium, lay), medium.family_tables)
    for f, (field, base, oscillators, pos, vel), (_, c2, r2, ig, _) in families:
        p_at = pos(0).start + np.arange(len(oscillators))
        v_at = vel(0).start + np.arange(len(oscillators))
        g = ig.imag
        q = w * w + 1j * g * w - r2
        dot_p, dot_v = 1j * r2 / q, -w / q
        v[..., field] = f
        v[..., p_at] = -f / q
        v[..., v_at] = 1j * w * f / q
        a = np.zeros(omega.shape + (lay.dim,), dtype=complex)
        a[..., field] = -base
        a[..., p_at] = -base * 1j * c2 * dot_p
        a[..., v_at] = -base * 1j * c2 * dot_v
        t[..., p_at, p_at] = (-1j * g - w) / q
        t[..., p_at, v_at] = -1j / q
        t[..., v_at, p_at] = dot_p
        t[..., v_at, v_at] = dot_v
        a_rows.append(a)
    a_e, a_m = a_rows
    s = (w * mu * a_e - k * (1j * a_m)) / (eps_mu_omega2 - k * k)
    a_m = a_m[..., None, :]
    t[..., lay.h, :] = a_m / (w * mu)[..., None]
    t[..., p_at, :] -= a_m / (w * mu * q)[..., None]
    t[..., v_at, :] += 1j * a_m / (mu * q)[..., None]
    return v[..., :, None] * s[..., None, :] + t


WORKED_EP = ((1.0, 1.0, [(2.3615, 0.26657, 1.1135)], []), 1.2815079)


class TestOnePassResolvent:
    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium", "worked_ep"])
    def test_matches_the_per_family_formula_bit_for_bit(self, name, request):
        medium = (lm.new_medium(*WORKED_EP[0]) if name == "worked_ep"
                  else request.getfixturevalue(name))
        ks = BAND_KS + ((WORKED_EP[1],) if name == "worked_ep" else ())
        rng = np.random.default_rng(23)
        for k in ks:
            ring = rng.uniform(0.5, 3.0) * np.exp(2j * np.pi * np.arange(64) / 64)
            for omega in (np.asarray(complex(rng.uniform(-4, 4), rng.uniform(-2, 2))),
                          rng.uniform(-2, 2) + 0.5j + ring):
                got = ops._resolvent_plus(medium, k, omega)
                expected = per_family_resolvent_plus(medium, k, omega)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family", [0, 1])
    def test_unguarded_evaluation_at_a_pole_names_it(self, family, reference_medium):
        # within 1e-13 of one electric or one magnetic pole; none of the other family is near
        pole = complex(reference_medium.family_tables[family].poles[0])
        others = reference_medium.family_tables[1 - family].poles
        assert np.abs(others - pole).min() > 0.1
        for omega in (pole + 1e-13, np.array([0.7 + 0.3j, pole - 1e-13j, -1.0 + 1.0j])):
            named = re.escape(f"too close to pole {pole}") + "$"
            with pytest.raises(EvaluationAtPole, match=named):
                ops._resolvent_plus(reference_medium, 1.0, np.asarray(omega, dtype=complex))
            with pytest.raises(EvaluationAtPole, match="too close to pole"):
                ops.eigenvector_columns(reference_medium, 1.0, omega)

    def test_pole_refusal_is_the_materials_text(self, reference_medium):
        # one electric pole, one magnetic pole, then a stack on both: the material of the
        # family hit (the permeability first) words the refusal, omega printed as given
        pole_e, pole_m = (complex(t.poles[0]) for t in reference_medium.family_tables)
        cases = ((reference_medium.permittivity, pole_e + 1e-13),
                 (reference_medium.permeability, pole_m + 1e-13),
                 (reference_medium.permittivity, [0.7 + 0.3j, pole_e - 1e-13j, -1.0 + 1.0j]),
                 (reference_medium.permeability, [0.7 + 0.3j, pole_m - 1e-13j, -1.0 + 1.0j]),
                 (reference_medium.permeability, [[pole_e, 0.5j], [pole_m, 2.0]]))
        for material, omega in cases:
            omega = np.asarray(omega, dtype=complex)
            with pytest.raises(EvaluationAtPole) as expected:
                material(omega)
            assert str(expected.value).startswith(f"omega={omega} too close to pole ")
            for refusing in (ops._resolvent_plus, ops.eigenvector_columns):
                with pytest.raises(EvaluationAtPole) as got:
                    refusing(reference_medium, 1.0, omega)
                assert str(got.value) == str(expected.value)


def dense_eig_projectors(matrix, eigenvalues):
    """Per eigenvalue, the projector on the two eigenvectors of a dense 2N eig nearest it."""
    vals, vecs = np.linalg.eig(matrix)
    inv = np.linalg.inv(vecs)
    pairs = [np.argsort(np.abs(vals - w))[:2] for w in eigenvalues]
    return np.stack([vecs[:, pair] @ inv[pair, :] for pair in pairs])


class TestSpectralDecomposition:
    @pytest.mark.parametrize("name", ALL_MEDIA)
    def test_matches_dense_eig_reference(self, name, request):
        medium = request.getfixturevalue(name)
        for k in BAND_KS:
            op = ops.build_perp_operator(medium, k)
            dec = op.eigen
            reference = dense_eig_projectors(op.matrix, dec.eigenvalues)
            for p, p_ref in zip(dec.projectors, reference):
                assert np.linalg.norm(p - p_ref, 2) <= 1e-10 * max(1.0, np.linalg.norm(p_ref, 2))
            roots = dsp.solve_dispersion(medium, k)
            np.testing.assert_allclose(np.sort_complex(dec.eigenvalues), np.sort_complex(roots),
                                       rtol=1e-10, atol=1e-10)

    def test_node_refused_at_double_root(self, reference_medium):
        # at k = 0 both families have the eigenvalue 0
        with pytest.raises(NotDiagonalizable, match="k=0"):
            ops.build_perp_operator(reference_medium, 0.0).eigen
        with pytest.raises(NotDiagonalizable, match="k=0"):
            ops._ModalRecord(reference_medium, np.array([1.0, 0.0, 2.0])).modes

    def test_reference_structure(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        dec = op.eigen
        assert len(dec.eigenvalues) == reference_medium.state_blocks
        assert dec.projectors.shape == (6, 12, 12)
        assert np.linalg.norm(dec.projectors.sum(axis=0) - np.eye(op.dim), 2) < 1e-8
        for p in dec.projectors:
            assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
            assert np.linalg.norm(p @ p - p, 2) < 1e-8

    def test_mutual_annihilation(self, critical_medium):
        op = ops.build_perp_operator(critical_medium, 0.9)
        dec = op.eigen
        n = len(dec.projectors)
        for i in range(n):
            for j in range(n):
                prod = dec.projectors[i] @ dec.projectors[j]
                target = dec.projectors[i] if i == j else 0.0 * prod
                assert np.linalg.norm(prod - target, 2) < 1e-8

    def test_reconstruction(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 3.7)
        dec = op.eigen
        assert dec.residual < 1e-8

    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium", "worked_ep"])
    def test_residual_is_the_sweep_residual_bit_for_bit(self, name, request):
        # and every field of row i of a stacked record is the single-k record's one row
        if name == "worked_ep":
            medium, ks = lm.new_medium(*WORKED_EP[0]), np.linspace(1.2815078, 1.2815080, 41)
        else:
            medium, ks = request.getfixturevalue(name), GRID_61
        sweep = ops.projector_norm_sweep(medium, lambda k: 0j, ks)
        for k, _, residual in sweep:
            assert ops.build_perp_operator(medium, k).eigen.residual == residual
        stack = ops._ModalRecord(medium, ks)
        fields = ("u_plus", "eig", "modes", "residual", "norms", "spectrum")

        def rows(record, i):
            arrays = [getattr(record, field) for field in fields]
            arrays = [x for a in arrays for x in (a if isinstance(a, tuple) else (a,))]
            return [(x.dtype, x[i].shape, x[i].tobytes()) for x in arrays]

        for i, k in enumerate(ks):
            assert rows(stack, i) == rows(ops._modal_record(medium, float(k)), 0), k

    def test_undamped_projectors_gram_orthogonal(self, undamped_medium):
        op = ops.build_perp_operator(undamped_medium, 0.8)
        dec = op.eigen
        g = op.gram_diag
        for p in dec.projectors:
            adj = np.conj(p.T) * g[None, :] / g[:, None]
            assert np.linalg.norm(p - adj, 2) < 1e-10


GRID_61 = np.geomspace(1e-3, 1e3, 61)


def signed_weights(medium):
    """G from the layout: the energy weight of each block, negated on H, Pdot and M."""
    lay = ops.StateLayout(medium.n_electric, medium.n_magnetic, 1)
    sign = np.ones(lay.dim)
    sign[lay.h] = -1.0
    for j in range(medium.n_electric):
        sign[lay.pdot(j)] = -1.0
    for j in range(medium.n_magnetic):
        sign[lay.m(j)] = -1.0
    return sign * ops._medium_record(medium).gram[::2]


@pytest.fixture(scope="module")
def drawn_media():
    """The benchmark's seeded draws (N 4-16, four damping regimes), seeds 1 and 2."""
    return seeded_draws((1, 2))


class TestGSymmetricCore:
    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_u_plus_operator_is_g_symmetric(self, name, request):
        medium = request.getfixturevalue(name)
        g = signed_weights(medium)
        a = ops._assemble(medium, 1j * GRID_61[:, None, None])
        ga = g[:, None] * a
        defect = np.abs(ga - np.swapaxes(a, -1, -2) * g)
        if medium.eps0 == medium.mu0 == 1.0:
            assert defect.max() == 0.0
        else:  # (k / eps0) (eps0 / 2) and (k / mu0) (mu0 / 2): two roundings each
            assert np.all(defect <= 2 * np.finfo(float).eps * np.abs(ga))

    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_left_vectors_match_the_g_symmetric_oracle(self, name, request):
        # as G A_+ = A_+^T G, row n of V^-1 is (G v_n)^T / (v_n^T G v_n)
        medium = request.getfixturevalue(name)
        record = ops._ModalRecord(medium, GRID_61)
        a_plus, (vals, vecs, left) = record.u_plus, record.modes
        assert a_plus.tobytes() == ops._assemble(medium, 1j * GRID_61[:, None, None]).tobytes()
        gv = signed_weights(medium)[:, None] * vecs
        oracle = np.swapaxes(gv / np.sum(vecs * gv, axis=-2)[..., None, :], -1, -2)
        err = np.linalg.norm(left - oracle, axis=(1, 2)) / np.linalg.norm(oracle, axis=(1, 2))
        assert err.max() <= 1e-12
        np.testing.assert_array_equal(left, np.linalg.inv(vecs))  # the dense eig + inv oracle
        # the refusal bound |V|_F |L|_F is never below cond_2(V)
        bound = np.linalg.norm(vecs, axis=(1, 2)) * np.linalg.norm(left, axis=(1, 2))
        assert np.all(bound >= np.linalg.cond(vecs))

    def test_worked_exceptional_point_is_not_refused(self):
        # across the README's worked EP (k ~ 1.2815079) the decomposition reconstructs
        # the operator; the bound stays far below the refusal threshold
        medium = lm.new_medium(1.0, 1.0, [(2.3615, 0.26657, 1.1135)], [])
        ks = np.linspace(1.2815078, 1.2815080, 41)
        for k in np.append(ks, 1.2815079012):
            op = ops.build_perp_operator(medium, k)
            assert op.eigen.residual <= 1e-10
        vals, vecs, left = ops._ModalRecord(medium, ks).modes
        bound = np.linalg.norm(vecs, axis=(1, 2)) * np.linalg.norm(left, axis=(1, 2))
        assert np.all(bound < 1e7)
        np.testing.assert_array_equal(left, np.linalg.inv(vecs))

    def test_exactly_singular_eigenvectors_are_refused(self, monkeypatch, reference_medium):
        # a zero eigenvector column makes V exactly singular: inv raises, |V||L| is inf
        eig = np.linalg.eig

        def singular(a):
            vals, vecs = eig(a)
            vecs[..., -1, :, 0] = 0.0
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", singular)
        # inv refuses the whole stack, so a stack reports its first k
        for k in (1.0, np.array([1.0, 2.0])):
            with pytest.raises(NotDiagonalizable, match=r"^k=1: scaled gap .*, \|V\|\|L\| inf$"):
                ops._ModalRecord(reference_medium, k).modes

    @pytest.mark.parametrize("tilt", [1e-13, 0.0])
    def test_near_defective_eigenvectors_are_refused(self, tilt, monkeypatch, reference_medium):
        # well separated eigenvalues, but two eigenvector columns parallel to within tilt
        eig = np.linalg.eig

        def near_defective(a):
            vals, vecs = eig(a)
            v = vecs[..., 0] + tilt * vecs[..., 1]
            vecs[..., 1] = v / np.linalg.norm(v, axis=-1, keepdims=True)
            return vals, vecs

        vecs = near_defective(ops._assemble(reference_medium, np.array([[1.0j]])))[1]
        assert np.linalg.cond(vecs) > 1e12
        # the single-k eig is memoised: start without it, and drop the doctored one after
        ops._modal_record.cache_clear()
        monkeypatch.setattr(np.linalg, "eig", near_defective)
        try:
            with pytest.raises(NotDiagonalizable, match=r"k=1: scaled gap .*, \|V\|\|L\| "):
                ops.build_perp_operator(reference_medium, 1.0).eigen
            with pytest.raises(NotDiagonalizable, match="k=1:"):
                ops._ModalRecord(reference_medium, np.array([1.0, 2.0])).modes
            # the guarded resolvent reads the same eig's values, never the refused modes
            assert np.isfinite(ops.resolvent_formula(reference_medium, 1.0, 0.3 + 0.7j)).all()
        finally:
            ops._modal_record.cache_clear()


class TestSingularSetSpectrum:
    @staticmethod
    def check_spectrum(medium, ks):
        for k in ks:
            spectrum = ops._modal_record(medium, float(k)).spectrum[0]
            row = dsp.dispersion_polynomial(medium, k)
            assert np.all(pr._backward_errors(spectrum, row) <= pr.RESIDUAL_TOL)
            roots = dsp.solve_dispersion(medium, k)
            gap = np.abs(spectrum[:, None] - roots) / (1.0 + np.abs(roots))
            rows, cols = scipy.optimize.linear_sum_assignment(gap)
            assert gap[rows, cols].max() <= 1e-7  # worst seen: 9.1e-9, N = 14 at k = 1e3

    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_fixture_spectra_are_certified_roots(self, name, request):
        self.check_spectrum(request.getfixturevalue(name), GRID_61)

    @pytest.mark.parametrize("name", ALL_MEDIA + ["wide_medium"])
    def test_spectrum_is_the_certified_eigvals_set_bit_for_bit(self, name, request):
        # without a prior op.eigen, the singular set is the set the u_+ eigvals gave
        medium = request.getfixturevalue(name)
        ops._modal_record.cache_clear()
        fixed = [[0j], [p.location for p in medium.catalog.poles], medium.family_zeros[1]]
        for k in GRID_61:
            u_plus = ops._assemble(medium, np.array([[1j * k]]))
            spectrum = pr.certify(np.linalg.eigvals(u_plus), dsp.dispersion_polynomial(medium, k))
            expected = np.sort_complex(np.concatenate(fixed + [spectrum]))
            got = np.sort_complex(ops.singular_set(medium, k))
            assert got.tobytes() == expected.tobytes()

    def test_drawn_spectra_are_certified_roots(self, drawn_media):
        for medium in drawn_media:
            self.check_spectrum(medium, GRID_61)

    def test_large_k_spectra_are_certified_until_the_root_solve_refuses(
        self, wide_medium, drawn_media
    ):
        # eig's error grows like u |A_+| ~ u k; up to the trim refusal (k ~ 1e4 to 1e7
        # here) every eigenvalue still passes the certificate without a Newton polish
        for medium in [wide_medium] + drawn_media:
            for k in np.geomspace(1e4, 1e6, 13):
                try:
                    dsp.solve_dispersion(medium, k)
                except DegenerateLeadingCoefficient:
                    with pytest.raises(DegenerateLeadingCoefficient):
                        ops._modal_record(medium, float(k)).spectrum
                else:
                    self.check_spectrum(medium, [k])

    def test_refusals_are_the_root_solve_refusals(self, reference_medium):
        for k in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidWavenumber):
                ops.singular_set(reference_medium, k)
            with pytest.raises(InvalidWavenumber):
                dsp.solve_dispersion(reference_medium, k)
        # past the trim threshold the leading coefficient is negligible
        with pytest.raises(DegenerateLeadingCoefficient):
            ops.singular_set(reference_medium, 1e9)
        with pytest.raises(DegenerateLeadingCoefficient):
            dsp.solve_dispersion(reference_medium, 1e9)

    @pytest.mark.parametrize("name", ALL_MEDIA)
    def test_k0_keeps_the_deflated_origin_roots(self, name, request):
        medium = request.getfixturevalue(name)
        pts = ops.singular_set(medium, 0.0)
        expected = np.concatenate([
            [0j],
            [p.location for p in medium.catalog.poles],
            medium.family_zeros[1],
            dsp.solve_dispersion(medium, 0.0),
        ])
        np.testing.assert_array_equal(pts, expected)
        assert np.count_nonzero(pts[-medium.state_blocks:] == 0) == 2


def ring_by_ring_contour(medium, k, eigenvalue):
    """The contour loop with each ring in calls of its own: 32 nodes, then each doubling's odd nodes."""
    pts = ops.singular_set(medium, k)
    dist = np.abs(pts - eigenvalue)
    rho = 0.5 * float(dist[dist > ops.SINGULAR_TOL * (1.0 + abs(eigenvalue))].min())
    prev = None
    acc = np.zeros((medium.state_blocks,) * 2, dtype=complex)
    nodes = 32
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    while nodes <= ops._CONTOUR_MAX_NODES:
        for start in range(0, len(theta), ops._CONTOUR_BLOCK):
            phase = np.exp(1j * theta[start : start + ops._CONTOUR_BLOCK])
            ring = ops._resolvent_plus(medium, k, eigenvalue + rho * phase)
            acc += np.einsum("n,nij->ij", phase, ring)
        est = -acc * rho / nodes
        if prev is not None and np.linalg.norm(est - prev, 2) < ops._CONTOUR_TOL * max(
            1.0, np.linalg.norm(est, 2)
        ):
            return ops._lift(est, ops._medium_record(medium).lift_blocks)
        prev = est
        theta = 2.0 * np.pi * (2 * np.arange(nodes) + 1) / (2 * nodes)
        nodes *= 2
    raise ops.QuadratureNonconvergent("no convergence")


class TestContourProjector:
    def test_matches_eigendecomposition(self, reference_medium, asymmetric_medium):
        for medium in (reference_medium, asymmetric_medium):
            op = ops.build_perp_operator(medium, 1.0)
            dec = op.eigen
            for w, p_eig in zip(dec.eigenvalues, dec.projectors):
                p_cont = ops.projector_contour(medium, 1.0, w)
                assert np.linalg.norm(p_cont - p_eig, 2) < 1e-8
                assert np.trace(p_cont).real == pytest.approx(2.0, abs=1e-8)
                assert np.linalg.norm(p_cont @ p_cont - p_cont, 2) < 1e-8

    def test_double_pole_medium_contour(self, double_pole_medium):
        op = ops.build_perp_operator(double_pole_medium, 2.4)
        dec = op.eigen
        w = dec.eigenvalues[0]
        p_cont = ops.projector_contour(double_pole_medium, 2.4, w)
        p_eig = dec.projectors[0]
        assert np.linalg.norm(p_cont - p_eig, 2) < 1e-8


    @pytest.mark.parametrize("name", ALL_MEDIA)
    def test_matches_eigendecomposition_across_bands(self, name, request):
        medium = request.getfixturevalue(name)
        for k in BAND_KS:
            dec = ops.build_perp_operator(medium, k).eigen
            assert dec.residual < 1e-8
            for w, p_eig in zip(dec.eigenvalues, dec.projectors):
                p_cont = ops.projector_contour(medium, k, w)
                assert np.linalg.norm(p_cont - p_eig, 2) < 1e-8

    def test_nested_rings_equal_a_fresh_ring(self, monkeypatch, reference_medium, critical_medium):
        resolvent = ops._resolvent_plus
        evaluated = []

        def recording(medium, k, omega):
            evaluated.extend(np.ravel(omega))
            return resolvent(medium, k, omega)

        monkeypatch.setattr(ops, "_resolvent_plus", recording)
        for medium, k in ((reference_medium, 1.0), (critical_medium, 0.1)):
            pts = ops.singular_set(medium, k)
            for w in ops.build_perp_operator(medium, k).eigen.eigenvalues:
                evaluated.clear()
                p_cont = ops.projector_contour(medium, k, w)
                # the evaluated points are the final ring, each node once
                nodes = len(evaluated)
                assert nodes >= 64 and nodes & (nodes - 1) == 0
                dist = np.abs(pts - w)
                rho = 0.5 * dist[dist > ops.SINGULAR_TOL * (1.0 + abs(w))].min()
                angles = np.sort(np.angle(np.asarray(evaluated) - w) % (2 * np.pi))
                np.testing.assert_allclose(
                    angles, 2 * np.pi * np.arange(nodes) / nodes, rtol=0, atol=1e-12
                )
                phase = np.exp(2j * np.pi * np.arange(nodes) / nodes)
                ring = ops._lift(ops._resolvent_plus(medium, k, w + rho * phase),
                                 ops._medium_record(medium).lift_blocks)
                fresh = -np.einsum("n,nij->ij", phase, ring) * rho / nodes
                assert np.linalg.norm(p_cont - fresh, 2) <= 1e-12 * np.linalg.norm(fresh, 2)

    def test_first_two_rings_take_one_stacked_call(self, monkeypatch, request):
        resolvent = ops._resolvent_plus
        sizes = []

        def counting(medium, k, omega):
            sizes.append(omega.size)
            return resolvent(medium, k, omega)

        def outcome(contour, medium, k, w):
            sizes.clear()
            try:
                return contour(medium, k, w), list(sizes)
            except LorentzModesError as err:
                return type(err), list(sizes)

        monkeypatch.setattr(ops, "_resolvent_plus", counting)
        cases = [(request.getfixturevalue(name), k)
                 for name in ALL_MEDIA + ["wide_medium"] for k in BAND_KS]
        worked_ep = lm.new_medium(1.0, 1.0, [(2.3615, 0.26657, 1.1135)], [])
        cases += [(worked_ep, k) for k in (1.2815078, 1.2815079, 1.2815079012, 2.0)]
        at_64 = 0
        for medium, k in cases:
            for w in ops._modal_record(medium, float(k)).spectrum[0]:
                got, calls = outcome(ops.projector_contour, medium, k, w)
                expected, rings = outcome(ring_by_ring_contour, medium, k, w)
                if isinstance(expected, type):
                    assert got is expected
                else:
                    np.testing.assert_array_equal(got, expected)
                # the 32-node ring and the 64-node ring's odd nodes go in one call;
                # every later doubling makes the calls it made before
                assert calls == ([sum(rings[:2])] + rings[2:] if rings else [])
                if sum(rings) == 64:
                    assert calls == [64]
                    at_64 += 1
        assert at_64 > 0

    def test_independent_of_the_public_resolvent(self, monkeypatch, reference_medium,
                                                 critical_medium):
        def refused(*args, **kwargs):
            raise AssertionError("the contour must not assemble 2N x 2N resolvents")

        monkeypatch.setattr(ops, "resolvent_formula", refused)
        for medium, k in ((reference_medium, 1.0), (critical_medium, 0.1)):
            dec = ops.build_perp_operator(medium, k).eigen
            for w, p_eig in zip(dec.eigenvalues, dec.projectors):
                p_cont = ops.projector_contour(medium, k, w)
                assert np.linalg.norm(p_cont - p_eig, 2) < 1e-8


def eigenvector_state(medium, k, w):
    """The first eigenspace column at the branch eigenvalue w, unit in the energy norm."""
    v = ops.eigenvector_columns(medium, k, w)[:, 0]
    return v / ops.build_perp_operator(medium, k).norm(v)


class TestOptimalData:
    def test_eigen_residuals(self, reference_medium, critical_medium, asymmetric_medium):
        rng = np.random.default_rng(21)
        media = [reference_medium, critical_medium, asymmetric_medium]
        for count in range(30):
            medium = media[count % 3]
            k = float(10 ** rng.uniform(-2, 2))
            roots = dsp.solve_dispersion(medium, k)
            w = roots[rng.integers(len(roots))]
            state = eigenvector_state(medium, k, w)
            op = ops.build_perp_operator(medium, k)
            resid = np.linalg.norm(op.matrix @ state - w * state)
            assert resid < 1e-8 * np.linalg.norm(state)
            assert op.norm(state) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_propagation_high_band(self, reference_medium):
        from lorentzmodes.evolution import propagate

        k = 1e3
        roots = dsp.solve_dispersion(reference_medium, k)
        w = roots[np.argmax(roots.real)]
        state = eigenvector_state(reference_medium, k, w)
        op = ops.build_perp_operator(reference_medium, k)
        t = np.linspace(0.0, 100.0, 11)
        res = propagate(op, state, t)
        np.testing.assert_allclose(res.norms, np.exp(w.imag * t), rtol=1e-8)

    def test_scalar_propagation_low_band(self, reference_medium):
        from lorentzmodes.evolution import propagate

        k = 1e-3
        c0 = reference_medium.asymptotic_coefficients().static_speed
        roots = dsp.solve_dispersion(reference_medium, k)
        w = roots[np.argmin(np.abs(roots - (-c0 * k)))]
        state = eigenvector_state(reference_medium, k, w)
        op = ops.build_perp_operator(reference_medium, k)
        t = np.linspace(0.0, 1e4, 9)
        res = propagate(op, state, t)
        np.testing.assert_allclose(res.norms, np.exp(w.imag * t), rtol=1e-8)


class TestProjectorSweeps:
    def test_light_cone_sweep_bounded(self, reference_medium, reference_bands):
        _, k_plus = reference_bands
        table = reference_medium.asymptotic_coefficients()
        c = table.vacuum_speed

        def eig_of(k):
            roots = dsp.solve_dispersion(reference_medium, k)
            return roots[np.argmax(roots.real)]

        grid = np.geomspace(k_plus, 100 * k_plus, 12)
        sweep = ops.projector_norm_sweep(reference_medium, eig_of, grid)
        norms = [v for _, v, _ in sweep]
        assert max(norms) / min(norms) < 10
        assert np.polyfit(np.log(grid), np.log(norms), 1)[0] <= 0.1

    def test_origin_sweep_bounded(self, reference_medium, reference_bands):
        k_minus, _ = reference_bands
        c0 = reference_medium.asymptotic_coefficients().static_speed

        def eig_of(k):
            roots = dsp.solve_dispersion(reference_medium, k)
            return roots[np.argmin(np.abs(roots - c0 * k))]

        grid = np.geomspace(k_minus / 100, k_minus, 12)
        sweep = ops.projector_norm_sweep(reference_medium, eig_of, grid)
        norms = [v for _, v, _ in sweep]
        assert max(norms) / min(norms) < 10
        assert np.polyfit(np.log(grid), np.log(norms), 1)[0] <= 0.1

    @pytest.mark.parametrize(
        "name",
        [
            "reference_medium",
            "critical_medium",
            "double_pole_medium",
            "asymmetric_medium",
            "electric_only_medium",
        ],
    )
    def test_stacked_sweep_matches_per_k_decomposition(self, name, request):
        medium = request.getfixturevalue(name)
        ks = np.geomspace(1e-3, 1e3, 13)
        tracked = dsp.track_branches(medium, dsp.default_k_grid(medium))
        drivers = [(b, lambda k, b=b: b.omega[np.argmin(abs(b.k - k))]) for b in tracked]
        roots = [
            lambda k, j=j: np.sort_complex(dsp.solve_dispersion(medium, k))[j]
            for j in range(medium.state_blocks)
        ]
        drivers += [(root, root) for root in roots]
        for branch, near_of in drivers:
            sweep = ops.projector_norm_sweep(medium, branch, ks)
            for (k, norm, residual), k_ref in zip(sweep, ks):
                op = ops.build_perp_operator(medium, k_ref)
                dec = op.eigen
                idx = np.argmin(np.abs(dec.eigenvalues - near_of(k_ref)))
                assert k == k_ref
                assert norm == pytest.approx(op.operator_norm(dec.projectors[idx]), rel=1e-12)
                assert residual < 1e-8 and dec.residual < 1e-8

    def test_refused_k_raises_typed_error(self, monkeypatch, reference_medium):
        monkeypatch.setattr(ops, "EIG_CLUSTER_TOL", 1e3)
        with pytest.raises(NotDiagonalizable, match="k=50"):
            ops.projector_norm_sweep(reference_medium, lambda k: 0j, [50.0, 100.0])
        with pytest.raises(NotDiagonalizable, match="k=50"):
            evo.hf_envelope_check(reference_medium, [50.0, 100.0])

    def test_one_assembly_and_one_eig_per_sweep(self, monkeypatch, wide_medium):
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(ops, "_assemble", counting("assemble", ops._assemble))
        monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
        ops._medium_record(wide_medium)  # the per-medium constants are built
        ops.projector_norm_sweep(wide_medium, lambda k: 0j, GRID_61)
        assert calls == ["assemble", "eig"]
        for envelope in (
            lambda: evo.hf_envelope_check(wide_medium, GRID_61),
            lambda: evo.lf_envelope_check(wide_medium, GRID_61),
            lambda: evo.midband_rate(wide_medium, (0.5, 5.0)),
        ):
            calls.clear()
            envelope()
            assert calls == ["assemble", "eig"]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_dissipativity_property(reference_medium, seed):
    rng = np.random.default_rng(seed)
    k = float(10 ** rng.uniform(-2, 2))
    op = ops.build_perp_operator(reference_medium, k)
    u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert op.inner(op.matrix @ u, u).imag <= 1e-12 * np.sum(np.abs(u) ** 2)
