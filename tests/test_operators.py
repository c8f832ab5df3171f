"""Reduced operator, inner product, resolvent, projectors, rotations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzmodes import dispersion as dsp
from lorentzmodes import operators as ops
from lorentzmodes.errors import (
    DimensionMismatch,
    NearSingularEvaluation,
    NotDiagonalizable,
    ZeroWaveVector,
)


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
            full = ops.build_full_operator(medium, [0.0, 0.0, k])
            perp = ops.build_perp_operator(medium, k)
            nb = medium.state_blocks
            idx = [3 * b + c for b in range(nb) for c in (0, 1)]
            np.testing.assert_allclose(full[np.ix_(idx, idx)], perp.matrix, atol=1e-14)


class TestRotation:
    def test_aligned_wave_vector_is_identity(self):
        rot = ops.build_rotation([0.0, 0.0, 2.5])
        np.testing.assert_allclose(rot.rotation, np.eye(3))

    def test_antialigned_wave_vector_mirror(self):
        rot = ops.build_rotation([0.0, 0.0, -1.0])
        np.testing.assert_allclose(rot.rotation @ [1, 0, 0], [0, -1, 0], atol=1e-15)
        np.testing.assert_allclose(rot.rotation @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(rot.rotation @ [0, 0, 1], [0, 0, -1], atol=1e-15)

    def test_zero_wave_vector_rejected(self):
        with pytest.raises(ZeroWaveVector):
            ops.build_rotation([0.0, 0.0, 0.0])

    def test_unitary_equivalence_random_wave_vectors(self, reference_medium, asymmetric_medium):
        rng = np.random.default_rng(5)
        for medium in (reference_medium, asymmetric_medium):
            nb = medium.state_blocks
            for _ in range(50):
                kvec = rng.standard_normal(3)
                if np.linalg.norm(kvec) < 1e-3:
                    continue
                rot = ops.build_rotation(kvec)
                big = rot.blockwise(nb)
                a_k = ops.build_full_operator(medium, kvec)
                a_mod = ops.build_full_operator(medium, [0, 0, np.linalg.norm(kvec)])
                resid = np.linalg.norm(big @ a_k @ big.T.conj() - a_mod, 2)
                assert resid < 1e-12 * np.linalg.norm(a_mod, 2)
                # rotation maps k-hat to e3
                np.testing.assert_allclose(
                    rot.rotation @ (kvec / np.linalg.norm(kvec)), [0, 0, 1], atol=1e-12
                )


class TestInnerProduct:
    def test_unit_e_state(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        u = ops.PerpState.from_blocks(op.layout, e=(1.0, 0.0))
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

    def test_dissipation_vanishes_iff_damped_blocks_vanish(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        u = ops.PerpState.from_blocks(
            op.layout, e=(1.0, 2.0), h=(0.5, -1.0), p=[(0.3, 0.1j)], m=[(1j, 0.2)]
        )
        assert op.inner(op.matrix @ u.data, u.data).imag == pytest.approx(0.0, abs=1e-15)


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
        # without the singular entry the same stack evaluates
        assert np.isfinite(ops.resolvent_formula(reference_medium, 1.0, omegas[[0, 2]])).all()


ALL_MEDIA = STACK_MEDIA + ["undamped_medium", "electric_only_medium"]
BAND_KS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


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
            ops._helicity_modes(reference_medium, np.array([1.0, 0.0, 2.0]))

    def test_reference_structure(self, reference_medium):
        op = ops.build_perp_operator(reference_medium, 1.0)
        dec = op.eigen
        assert len(dec.eigenvalues) == reference_medium.state_blocks
        assert dec.projectors.shape == (6, 12, 12)
        assert dec.identity_defect < 1e-8
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

    def test_undamped_projectors_gram_orthogonal(self, undamped_medium):
        op = ops.build_perp_operator(undamped_medium, 0.8)
        dec = op.eigen
        g = op.gram_diag
        for p in dec.projectors:
            adj = np.conj(p.T) * g[None, :] / g[:, None]
            assert np.linalg.norm(p - adj, 2) < 1e-10


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
        resolvent = ops.resolvent_formula
        evaluated = []

        def recording(medium, k, omega, guard=True):
            evaluated.extend(np.ravel(omega))
            return resolvent(medium, k, omega, guard)

        monkeypatch.setattr(ops, "resolvent_formula", recording)
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
                ring = resolvent(medium, k, w + rho * phase, guard=False)
                fresh = -np.einsum("n,nij->ij", phase, ring) * rho / nodes
                assert np.linalg.norm(p_cont - fresh, 2) <= 1e-12 * np.linalg.norm(fresh, 2)


class TestOptimalData:
    def test_eigen_residuals(self, reference_medium, critical_medium, asymmetric_medium):
        rng = np.random.default_rng(21)
        media = [reference_medium, critical_medium, asymmetric_medium]
        count = 0
        for _ in range(60):  # attempt cap: a regression that keeps refusing fails, not hangs
            if count == 30:
                break
            medium = media[count % 3]
            k = float(10 ** rng.uniform(-2, 2))
            roots = dsp.solve_dispersion(medium, k)
            w = roots[rng.integers(len(roots))]
            try:
                state = ops.optimal_initial_data(medium, k, w)
            except NearSingularEvaluation:
                continue
            op = ops.build_perp_operator(medium, k)
            resid = np.linalg.norm(op.matrix @ state.data - w * state.data)
            assert resid < 1e-8 * np.linalg.norm(state.data)
            assert op.norm(state.data) == pytest.approx(1.0, rel=1e-12)
            count += 1
        assert count == 30

    def test_scalar_propagation_high_band(self, reference_medium):
        from lorentzmodes.evolution import propagate

        k = 1e3
        roots = dsp.solve_dispersion(reference_medium, k)
        w = roots[np.argmax(roots.real)]
        state = ops.optimal_initial_data(reference_medium, k, w)
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
        state = ops.optimal_initial_data(reference_medium, k, w)
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
        assert ops.sweep_trend(sweep) <= 0.1

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
        assert ops.sweep_trend(sweep) <= 0.1


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_dissipativity_property(reference_medium, seed):
    rng = np.random.default_rng(seed)
    k = float(10 ** rng.uniform(-2, 2))
    op = ops.build_perp_operator(reference_medium, k)
    u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert op.inner(op.matrix @ u, u).imag <= 1e-12 * np.sum(np.abs(u) ** 2)
