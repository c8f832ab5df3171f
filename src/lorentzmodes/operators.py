"""The wave operator at fixed wavenumber and its spectral machinery.

A state is a flat complex array, a stack of equal-width blocks: the E and H
fields, then the electric polarisations and their velocities, then the magnetic
magnetisations and their velocities.  One assembler builds the operator at block
width 2 or 1 from its curl block: ``k*J2`` gives the dense 2N x 2N reduced
operator on transverse 2-vectors (the Fourier-transformed operator with the wave
vector rotated onto e3), dissipative for the weighted inner product;
``[[1j*k]]`` gives the N x N operator on the circular polarisation u_+, whose
eigenvalues are the simple dispersion roots.  On u_- it is that operator with
the magnetic blocks' sign flipped, and no other module splits the polarisations.
Eps, mu and the oscillator quadratics come from ``LorentzMedium.family_terms``.
One modal record, for one k or a 1-D array, holds the u_+ operators, their one
eig and all read off it: the rank-2 spectral projectors, their norms, the
singular set's spectrum, and the one evolution of a state (u_+ part and
S-flipped u_- part by the u_+ modes) that ``propagate`` and the random-direction
energy traces both take; an operator keeps the record of its k.  Only the
fallback of ``propagate``, the dense 2N x 2N expm, is separate (an N x N expm of
the two parts is barely faster, less accurate).
The explicit resolvent is the u_+ formula lifted to 2N x 2N by the projectors'
map, and the contour projector sums only u_+ resolvents.  The lift keeps the
weighted 2-norm, so ``operator_norm`` takes a lift's norm from its N x N u_+
part and only any other matrix's from a 2N x 2N SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidWavenumber,
    NearSingularEvaluation,
    NotDiagonalizable,
    QuadratureNonconvergent,
)
from .dispersion import _pairwise, _solvable_rows, solve_dispersion
from .medium import LorentzMedium
from .polyroots import certify

#: u_+ eigenvalues (the simple dispersion roots) closer than this, scaled by 1 + |root|
#: and not globally (tight pole fans sit next to large roots), refuse a decomposition
EIG_CLUSTER_TOL = 1e-7

#: scaled distance to singular sets below which the formula path refuses
SINGULAR_TOL = 1e-8

# contour nodes per stacked resolvent call past 64 nodes; caps the (nodes, dim, dim)
# stack.  The first call takes the 64 nodes of the first two rings.  All 300 seeded
# benchmark contours converge within that first call, so the cap bounds only a
# contour on its way to _CONTOUR_MAX_NODES.
_CONTOUR_BLOCK = 256

# a contour projector is accepted once a node doubling changes it by less than
# _CONTOUR_TOL (relative, 2-norm), and refused past _CONTOUR_MAX_NODES nodes
_CONTOUR_TOL = 1e-9
_CONTOUR_MAX_NODES = 4096

# transverse rotation by +90 degrees: the action of "e3 cross" on (x, y)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# circular polarisation u_+: J2 u_+ = i u_+, and J2 u_- = -i u_- for u_- = conj(u_+)
_U_PLUS = np.array([1.0, -1.0j]) / math.sqrt(2.0)


@dataclass(frozen=True)
class StateLayout:
    """Block offsets of a state vector with ``width`` components per block."""

    n_electric: int
    n_magnetic: int
    width: int

    @property
    def blocks(self) -> int:
        return 2 + 2 * self.n_electric + 2 * self.n_magnetic

    @property
    def dim(self) -> int:
        return self.width * self.blocks

    def _block(self, b):
        return slice(self.width * b, self.width * (b + 1))

    @property
    def e(self):
        return self._block(0)

    @property
    def h(self):
        return self._block(1)

    def p(self, j):
        return self._block(2 + j)

    def pdot(self, j):
        return self._block(2 + self.n_electric + j)

    def m(self, l):
        return self._block(2 + 2 * self.n_electric + l)

    def mdot(self, l):
        return self._block(2 + 2 * self.n_electric + self.n_magnetic + l)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


class _MediumRecord:
    """One medium's k-independent constants, read-only, indexed from its family tables.

    The operator less its curl block at block widths 1 and 2, both families on
    u_+ as one array (electric first): each oscillator's position and velocity
    block and its family, the resolvent's constants, the energy weights, their
    roots, the flip, the lift's block pattern and the polarisation split and
    join; and, on first use since the catalog refuses H1 or H2 breaches, the
    singular set's fixed points.
    """

    def __init__(self, medium: LorentzMedium):
        self.medium = medium
        ne, nm = medium.n_electric, medium.n_magnetic
        e, m = medium.family_tables
        c2, r2, ig = (np.concatenate([x, y]) for x, y in zip(e[1:4], m[1:4]))
        base = np.repeat([e.base, m.base], [ne, nm])
        # family 0 electric, 1 magnetic, which is also the block of its field (E or H);
        # positions P_j at 2 + j and M_l at 2 + 2 ne + l, each velocity a family width on
        self.family = np.repeat([0, 1], [ne, nm])
        self.pos = 2 + np.arange(ne + nm) + ne * self.family
        self.vel = self.pos + np.repeat([ne, nm], [ne, nm])
        self.minus_ig = ig.conj()  # -1j * damping, signed zeros too
        a = np.zeros((medium.state_blocks,) * 2, dtype=complex)
        a[self.family, self.vel] = -1j * c2
        a[self.pos, self.vel] = 1j
        a[self.vel, self.family] = 1j
        a[self.vel, self.pos] = -1j * r2
        a[self.vel, self.vel] = 0 - ig  # -1j * damping, +0j (not minus_ig's -0j) if undamped
        self.template, self.template2 = a, np.kron(a, np.eye(2))
        self.magnetic = slice(ne, ne + nm)
        self.ir2 = 1j * r2
        self.a_coef = -base * 1j * c2
        gram = np.empty(medium.state_blocks)
        gram[:2] = e.base / 2, m.base / 2
        gram[self.pos] = base / 2 * r2 * c2
        gram[self.vel] = base / 2 * c2
        self.gram = np.repeat(gram, 2)
        self.sqrt_gram = np.sqrt(self.gram)
        # S, -1 on H, M and Mdot: S A_+ S is the u_- operator
        self.flip = np.repeat([1.0, -1.0, 1.0, -1.0], [1, 1, 2 * ne, 2 * nm])
        # _lift's 2 x 2 block (a, b), u_+u_+^H + s_a s_b u_-u_-^H: exactly I or -i J2
        same = np.outer(self.flip, self.flip)[:, None, :, None] > 0
        self.lift_blocks = np.where(same, np.eye(2)[:, None], -1j * J2[:, None])  # (N, 2, N, 2)
        # block b of a state is (u_+ part, S-flipped u_- part) @ join[:, 2b:2b+2]; split inverts it
        plus = np.tile(_U_PLUS, medium.state_blocks)
        self.join = np.stack([plus, np.repeat(self.flip, 2) * plus.conj()])
        self.split = self.join.conj().reshape(2, -1, 2).transpose(1, 2, 0)  # (N, 2, 2)
        for x in vars(self).values():
            if isinstance(x, np.ndarray):
                _read_only(x)

    @cached_property
    def fixed_points(self) -> np.ndarray:  # 0, the poles, the mu-zeros
        poles = [p.location for p in self.medium.catalog.poles]
        return _read_only(np.concatenate([[0j], poles, self.medium.family_zeros[1]]))


# Kept here, keyed on the frozen medium, as the medium knows nothing of the state
# layout; the bound keeps a stream of media (the atlas's seeded draws) from holding
# every medium's matrices.
_medium_record = lru_cache(maxsize=16)(_MediumRecord)


@dataclass(frozen=True)
class PerpOperator:
    """The reduced operator at (medium, k) and its inner product; matrix built on first read."""

    medium: LorentzMedium
    k: float

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise InvalidWavenumber(f"an operator needs a finite wavenumber, got k = {self.k}")

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(_assemble(self.medium, self.k * J2))

    @property
    def gram_diag(self) -> np.ndarray:
        return _medium_record(self.medium).gram

    @property
    def layout(self) -> StateLayout:
        return StateLayout(self.medium.n_electric, self.medium.n_magnetic, 2)

    @property
    def dim(self) -> int:
        return 2 * self.medium.state_blocks

    def inner(self, u, v) -> complex:
        """Weighted inner product, linear in the first argument."""
        u, v = np.asarray(u), np.asarray(v)
        if u.shape != v.shape or u.shape != (self.dim,):
            raise DimensionMismatch("state dimensions do not match the operator")
        return complex(np.sum(self.gram_diag * u * np.conj(v)))

    def norm(self, u):
        """Weighted norm of a state; a stack of states (last axis) gives an array.

        A last axis other than ``dim`` raises DimensionMismatch.
        """
        u = np.asarray(u)
        if u.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"state has shape {u.shape}, operator needs ({self.dim},) on its last axis"
            )
        norms = np.sqrt(np.sum(self.gram_diag * np.abs(u) ** 2, axis=-1))
        return float(norms) if norms.ndim == 0 else norms

    def operator_norm(self, mat: np.ndarray) -> float:
        """Weighted spectral norm of a (dim, dim) matrix; other shapes raise DimensionMismatch.

        A lift of an N x N u_+ matrix p (every projector, resolvent and contour
        projector) is unitarily similar to diag(p, S p S), and S commutes with W,
        so its norm is that of W^1/2 p W^-1/2: one N x N SVD.  Any other matrix,
        one holding a NaN included, takes the 2N x 2N SVD.
        """
        mat = np.asarray(mat)
        if mat.shape != (self.dim,) * 2:
            raise DimensionMismatch(
                f"matrix has shape {mat.shape}, operator needs ({self.dim}, {self.dim})"
            )
        rec = _medium_record(self.medium)
        s = rec.sqrt_gram
        # exact for a lift, whose block (a, b) is p_ab I or p_ab (-i J2)
        p = mat[0::2, 0::2] - 1j * mat[0::2, 1::2]
        if np.array_equal(_lift(p, rec.lift_blocks), mat):
            mat, s = p, s[::2]
        return float(np.linalg.svd((mat * s[:, None]) / s[None, :], compute_uv=False)[0])

    @cached_property
    def eigen(self):
        return spectral_decomposition(self)

    @cached_property
    def _record(self) -> _ModalRecord:
        return _modal_record(self.medium, float(self.k))


def _assemble(medium: LorentzMedium, curl: np.ndarray) -> np.ndarray:
    """Operator matrix; the block width, 1 or 2, is the size of the curl block.

    Leading axes of curl give a stack of matrices; the other blocks are the medium
    record's template of that width.
    """
    rec = _medium_record(medium)
    lay = StateLayout(medium.n_electric, medium.n_magnetic, curl.shape[-1])
    template = rec.template if lay.width == 1 else rec.template2
    a = np.broadcast_to(template, curl.shape[:-2] + template.shape).copy()
    a[..., lay.e, lay.h] = -curl / medium.eps0
    a[..., lay.h, lay.e] = curl / medium.mu0
    return a


def build_perp_operator(medium: LorentzMedium, k: float) -> PerpOperator:
    """The 2N x 2N reduced operator at wavenumber k >= 0; its matrix is built on first read.

    Raises InvalidWavenumber for a non-finite k.
    """
    return PerpOperator(medium, float(k))


# --- explicit resolvent -------------------------------------------------------------


def singular_set(medium: LorentzMedium, k: float) -> np.ndarray:
    """Points where the formula path degenerates: spectrum, poles, mu-zeros, 0.

    A read-only array from the (medium, k) modal record, so the guarded
    resolvent and the contour projector at one wavenumber share one spectrum.
    """
    return _modal_record(medium, float(k)).singular_set


def _finite_frequency(omega: np.ndarray) -> None:
    """Refuse a non-finite frequency, naming it, with NearSingularEvaluation."""
    bad = ~np.isfinite(omega)
    if np.any(bad):
        raise NearSingularEvaluation(f"omega={omega[bad][0]} is not finite")


def resolvent_formula(medium: LorentzMedium, k: float, omega) -> np.ndarray:
    """Explicit inverse of (A - omega I) assembled from the factored blocks.

    omega may be a scalar or an array; the result has shape
    ``omega.shape + (dim, dim)``, one resolvent per omega: the lift of the
    u_+ resolvent R_+, since (A - omega)^-1 is S R_+ S on u_-.  Raises
    NearSingularEvaluation, before any evaluation, when any omega is not finite,
    and then when any is too close to the spectrum or to the removable-singularity
    set of the auxiliary term.
    """
    omega = np.asarray(omega, dtype=complex)
    _finite_frequency(omega)
    dist = np.abs(singular_set(medium, k) - omega[..., None]).min(axis=-1)
    near = dist < SINGULAR_TOL * (1.0 + np.abs(omega))
    if np.any(near):
        bad = omega[near].flat[0]
        raise NearSingularEvaluation(f"omega={bad} within guard distance of the singular sets")
    return _lift(_resolvent_plus(medium, k, omega), _medium_record(medium).lift_blocks)


def _eigenspace_plus(medium: LorentzMedium, k: float, omega: np.ndarray):
    """(v, q, eps, mu) at omega: the u_+ eigenspace map v, shape ``omega.shape + (N,)``.

    v takes E to the state: 1 on E, H = i k E / (omega mu), and each oscillator's
    position and velocity from its field.  q holds the quadratics, electric first,
    on the last axis, and eps and mu have a unit last axis.  A pole of either
    family raises EvaluationAtPole naming it, a magnetic one first.
    """
    osc = _medium_record(medium)
    q_m, mu = medium.family_terms("m", omega)
    q_e, eps = medium.family_terms("e", omega)
    q, w, mu = np.concatenate([q_e, q_m], axis=-1), omega[..., None], mu[..., None]
    h_map = 1j * k / (w * mu)
    v = np.zeros(omega.shape + (medium.state_blocks,), dtype=complex)
    v[..., 0:1] = 1.0
    v[..., 1:2] = h_map
    # -1.0 rather than -(1+0j): the negated real keeps the signed zeros of -1.0 / q
    v[..., osc.pos] = np.where(osc.family, -h_map, -1.0) / q
    v[..., osc.vel] = 1j * w * np.where(osc.family, h_map, 1.0) / q
    return v, q, eps[..., None], mu


def _resolvent_plus(medium: LorentzMedium, k: float, omega: np.ndarray) -> np.ndarray:
    """(A_+ - omega)^-1 on u_+, shape ``omega.shape + (N, N)``, unguarded.

    The factored formula with J2 -> i: the resolvent is v s^T + t for the map v of
    ``_eigenspace_plus`` and an N-vector row s.  Both oscillator families are
    filled in one pass over the medium record's oscillator arrays.
    """
    osc = _medium_record(medium)
    n = medium.state_blocks
    w = omega[..., None]  # block coefficients broadcast along the last axis
    v, q, eps, mu = _eigenspace_plus(medium, k, omega)
    eps_mu_omega2 = w * w * eps * mu
    dot_p, dot_v = osc.ir2 / q, -w / q  # a velocity row of t, on (position, velocity)
    a = np.zeros(omega.shape + (2, n), dtype=complex)  # A_e(omega), then A_m(omega)
    a[..., 0, 0] = -medium.eps0
    a[..., 1, 1] = -medium.mu0
    a[..., osc.family, osc.pos] = osc.a_coef * dot_p
    a[..., osc.family, osc.vel] = osc.a_coef * dot_v
    t = np.zeros(omega.shape + (n, n), dtype=complex)
    t[..., osc.pos, osc.pos] = (osc.minus_ig - w) / q
    t[..., osc.pos, osc.vel] = -1j / q
    t[..., osc.vel, osc.pos] = dot_p
    t[..., osc.vel, osc.vel] = dot_v
    a_e, a_m = a[..., 0, :], a[..., 1, :]

    s = (w * mu * a_e - k * (1j * a_m)) / (eps_mu_omega2 - k * k)

    # H is recovered from E and A_m, so only the magnetic blocks carry A_m
    a_m, q_m = a_m[..., None, :], q[..., osc.magnetic]
    t[..., 1:2, :] = a_m / (w * mu)[..., None]
    t[..., osc.pos[osc.magnetic], :] -= a_m / (w * mu * q_m)[..., None]
    t[..., osc.vel[osc.magnetic], :] += 1j * a_m / (mu * q_m)[..., None]

    return v[..., :, None] * s[..., None, :] + t


def eigenvector_columns(medium: LorentzMedium, k: float, omega) -> np.ndarray:
    """The 2-column eigenspace map: transverse field vector to full state.

    omega may be a scalar or an array; the result has shape
    ``omega.shape + (dim, 2)``.  Block b is v_b I, or -i v_b J2 on the blocks S
    flips, for the u_+ map v of ``_eigenspace_plus``.
    """
    omega = np.asarray(omega, dtype=complex)
    v = _eigenspace_plus(medium, k, omega)[0]
    blocks = np.where(_medium_record(medium).flip[:, None, None] > 0, np.eye(2), -1j * J2)
    return (v[..., None, None] * blocks).reshape(omega.shape + (2 * medium.state_blocks, 2))


# --- spectral decomposition ------------------------------------------------------


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues with their rank-2 spectral projectors."""

    eigenvalues: np.ndarray
    projectors: np.ndarray  # shape (n_eigs, dim, dim)
    residual: float


def _lift(p: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """p (x) u_+u_+^H + S p S (x) u_-u_-^H: N x N u_+ matrices (last two axes) to 2N x 2N.

    blocks is the medium record's ``lift_blocks``: block (a, b) is p[..., a, b] times
    its (a, b) pattern.
    """
    dim = 2 * p.shape[-1]
    return (p[..., :, None, :, None] * blocks).reshape(p.shape[:-2] + (dim, dim))


class _ModalRecord:
    """The u_+ operators at one medium and a scalar k or a 1-D array of k, one ``eig``.

    Every field is read-only, built on first use and computed here alone, as a
    stack over the wavenumbers (a scalar k is the one-row stack).  A non-finite
    k is refused before any assembly; the spectrum reads the rows, which refuse
    what ``solve_dispersion`` refuses, before the eig.  A scalar k = 0 keeps its
    deflated origin roots, and a scalar k's singular set never reads ``modes``.
    """

    def __init__(self, medium: LorentzMedium, k):
        self.medium, self.k = medium, k
        self.ks = np.atleast_1d(np.asarray(k, dtype=float))

    @cached_property
    def u_plus(self) -> np.ndarray:
        if not np.all(np.isfinite(self.ks)):
            bad = self.ks[~np.isfinite(self.ks)][0]
            raise InvalidWavenumber(f"an operator needs finite wavenumbers, got k = {bad}")
        return _read_only(_assemble(self.medium, 1j * self.ks[:, None, None]))

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_read_only, np.linalg.eig(self.u_plus)))

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues in lexsort order, eigenvectors V, left vectors L = V^-1).

        The first k with a nearest gap below EIG_CLUSTER_TOL (1 + |eigenvalue|), the
        rule of ``dispersion._step``, or |V|_F |L|_F > 1e12 (never below cond_2(V)) is refused.
        """
        vals, vecs = self.eig
        order = np.lexsort((vals.imag, vals.real))
        vals = np.take_along_axis(vals, order, axis=-1)
        vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
        try:
            left = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:  # an exactly singular V anywhere in the stack
            left = np.full_like(vecs, np.inf)
        bound = np.linalg.norm(vecs, axis=(-2, -1)) * np.linalg.norm(left, axis=(-2, -1))
        gap = (_pairwise(vals).min(axis=-2) / (1.0 + np.abs(vals))).min(axis=-1)
        bad = (gap < EIG_CLUSTER_TOL) | ~(bound <= 1e12)
        if np.any(bad):
            i = np.argmax(bad)
            raise NotDiagonalizable(
                f"k={self.ks[i]:g}: scaled gap {gap[i]:.2e}, |V||L| {bound[i]:.2e}"
            )
        return tuple(map(_read_only, (vals, vecs, left)))

    @cached_property
    def residual(self) -> np.ndarray:
        """|V diag(vals) L - A_+|_2 / |A_+|_2 per k, refused above 1e-8 at the worst k.

        The lift keeps the 2-norm, so this is also the 2N x 2N projectors' residual.
        """
        vals, vecs, left = self.modes
        recon = (vecs * vals[..., None, :]) @ left - self.u_plus
        # the 2-norms are the largest singular values, as np.linalg.norm(x, 2) takes them
        recon_norm, a_norm = np.linalg.svd(np.stack([recon, self.u_plus]), compute_uv=False)[..., 0]
        residual = recon_norm / a_norm
        if np.any(residual > 1e-8):
            i = np.argmax(residual)
            raise NotDiagonalizable(
                f"k={self.ks[i]:g}: u_+ reconstruction residual {residual[i]:.2e}"
            )
        return _read_only(residual)

    @cached_property
    def norms(self) -> np.ndarray:
        """The (len(ks), N) weighted projector norms |Pi_n(k)|_W.

        A projector's weighted norm is that of its rank-1 u_+ part, |W^1/2 col n|
        |W^-1/2 row n|; both norms reduce a contiguous last axis.
        """
        _, vecs, left = self.modes
        s = _medium_record(self.medium).sqrt_gram[::2]  # W^1/2
        cols = np.ascontiguousarray(np.swapaxes(vecs, -1, -2)) * s
        return _read_only(np.linalg.norm(cols, axis=-1) * np.linalg.norm(left / s, axis=-1))

    @cached_property
    def rows(self) -> np.ndarray:
        return _read_only(_solvable_rows(self.medium, self.k))

    @cached_property
    def spectrum(self) -> np.ndarray:
        if np.ndim(self.k) == 0 and self.k == 0:
            return _read_only(solve_dispersion(self.medium, 0.0)[None])
        rows = self.rows  # its refusals come before the eig
        return certify(self.eig[0], rows)

    @cached_property
    def singular_set(self) -> np.ndarray:
        fixed_points = _medium_record(self.medium).fixed_points
        return _read_only(np.concatenate([fixed_points, self.spectrum[0]]))

    def evolve(self, states: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
        """exp(-i A(k) t) u, shape (len(ks), len(t_grid), dim), for u one state or one per k.

        For c = L @ split(u), mode n's row is c_n @ join times V[b, n] on each block b.
        """
        vals, vecs, left = self.modes
        rec = _medium_record(self.medium)
        # explicit widths, as a -1 is ambiguous on an empty stack
        blocks = states.reshape(states.shape[:-1] + (len(rec.split), 1, 2))
        c = left @ (blocks @ rec.split)[..., 0, :]
        rows = np.swapaxes(vecs, -1, -2)[..., None] * (c @ rec.join).reshape(vecs.shape + (2,))
        rows = rows.reshape(vals.shape + rec.join.shape[-1:])
        return np.exp(-1j * vals[:, None, :] * t_grid[:, None]) @ rows


# a scalar k's record, bounded like the medium record for the same reason; an operator
# keeps the record it read (``PerpOperator._record``), so it never depends on the bound
_modal_record = lru_cache(maxsize=16)(_ModalRecord)


def spectral_decomposition(op: PerpOperator) -> SpectralDecomposition:
    """Rank-2 projectors p_n (x) u_+ u_+^H + S p_n S (x) u_- u_-^H, one per root.

    p_n is the eigenprojector of the n-th (simple) eigenvalue of the u_+
    operator, read off the modal record the operator keeps.  Refuses what the
    record's ``modes`` refuse and a u_+ reconstruction residual above 1e-8 (the
    residual ``projector_norm_sweep`` reports at op.k).
    """
    rec = op._record
    vals, vecs, left = (x[0] for x in rec.modes)
    residual = float(rec.residual[0])
    p = vecs.T[:, :, None] * left[:, None, :]  # column n of V times row n of L
    projectors = _lift(p, _medium_record(op.medium).lift_blocks)
    return SpectralDecomposition(eigenvalues=vals, projectors=projectors, residual=residual)


# --- contour projector --------------------------------------------------------------


def projector_contour(
    medium: LorentzMedium,
    k: float,
    eigenvalue: complex,
) -> np.ndarray:
    """Riesz projector by trapezoidal quadrature of the explicit resolvent.

    The circle is centered at the eigenvalue with radius half the distance to
    every other eigenvalue and every removable-singularity point; nodes double
    from 32 until two successive estimates agree.  The 2n-node ring contains
    the n-node ring, so each doubling evaluates only the n new odd nodes and
    adds them to the carried N x N node sum, which is lifted once at the end.
    The first test needs the 32- and the 64-node estimate, so one stacked u_+
    resolvent call evaluates the 32-node ring and the 64-node ring's odd nodes,
    summed ring by ring; later doublings make stacked calls of at most
    ``_CONTOUR_BLOCK`` nodes.  A non-finite eigenvalue raises NearSingularEvaluation
    before any evaluation.
    """
    _finite_frequency(np.asarray(eigenvalue, dtype=complex))
    dist = np.abs(singular_set(medium, k) - eigenvalue)
    # every point kept lies over SINGULAR_TOL (1 + |eigenvalue|) away, so rho > 5e-9
    rho = 0.5 * float(dist[dist > SINGULAR_TOL * (1.0 + abs(eigenvalue))].min())

    prev = None
    acc = np.zeros((medium.state_blocks,) * 2, dtype=complex)
    nodes = 32
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    # the 32-node ring, then the 64-node ring's odd nodes: each ring sums its own half
    odd = 2.0 * math.pi * (2 * np.arange(nodes) + 1) / (2 * nodes)
    first = _resolvent_plus(medium, k, eigenvalue + rho * np.exp(1j * np.append(theta, odd)))
    while nodes <= _CONTOUR_MAX_NODES:
        for start in range(0, len(theta), _CONTOUR_BLOCK):
            phase = np.exp(1j * theta[start : start + _CONTOUR_BLOCK])
            if nodes <= 64:
                ring = first[nodes - 32 : nodes]
            else:
                ring = _resolvent_plus(medium, k, eigenvalue + rho * phase)
            acc += np.einsum("n,nij->ij", phase, ring)
        est = -acc * rho / nodes
        # the lift preserves the 2-norm, so the u_+ estimates decide convergence; the
        # 2-norms are the largest singular values, as np.linalg.norm(x, 2) takes them
        if prev is not None:
            change, size = np.linalg.svd(np.stack([est - prev, est]), compute_uv=False)[..., 0]
            if change < _CONTOUR_TOL * max(1.0, size):
                return _lift(est, _medium_record(medium).lift_blocks)
        prev = est
        # the odd nodes of the 2n-node ring
        theta = 2.0 * math.pi * (2 * np.arange(nodes) + 1) / (2 * nodes)
        nodes *= 2
    raise QuadratureNonconvergent(
        f"contour projector did not converge with {_CONTOUR_MAX_NODES} nodes"
    )


def projector_norm_sweep(
    medium: LorentzMedium,
    branch,
    k_grid,
) -> list[tuple[float, float, float]]:
    """(k, weighted projector norm, decomposition residual) along one branch.

    branch is either a tracked BranchFamily (its nearest sample anchors the
    eigenvalue at each k) or a callable k -> eigenvalue.  Growth of the norms
    along the grid is the caller's signal to distrust the band.  One modal
    record serves the grid, and the residual, refused above 1e-8, is the u_+
    one.  Refuses an empty or non-1-D k_grid (ValueError).
    """
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or not len(ks):
        raise ValueError(f"a projector sweep needs a non-empty 1-D k_grid, got shape {ks.shape}")
    near = [branch(k) if callable(branch) else branch.omega[np.argmin(abs(branch.k - k))]
            for k in ks]
    rec = _ModalRecord(medium, ks)
    n = np.argmin(np.abs(rec.modes[0] - np.asarray(near)[:, None]), axis=1)
    return list(zip(ks.tolist(), rec.norms[np.arange(len(ks)), n].tolist(), rec.residual.tolist()))

