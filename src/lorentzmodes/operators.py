"""The wave operator at fixed wavenumber and its spectral machinery.

A state is a stack of equal-width blocks: the E and H fields, then the
electric polarisations and their velocities, then the magnetic magnetisations
and their velocities.  One assembler builds the operator for any block width
from its curl block: ``k*J2`` gives the dense 2N x 2N reduced operator on
transverse 2-vectors, dissipative for the weighted inner product; ``[k]x``
gives the 3N x 3N full-vector operator, which a blockwise rotation reduces to
the former; ``[[1j*k]]`` gives the N x N operator on the circular
polarisation u_+, whose eigenvalues are the simple dispersion roots.  On u_-
the reduced operator is that one with the magnetic blocks' sign flipped, so
one N x N eigendecomposition, stacked over k where needed, gives its rank-2
spectral projectors.  The electric and magnetic oscillator families enter
every formula in the same way and are walked by one loop.  Besides the
matrices this module provides the explicit resolvent, the contour-integral
projectors and the slow-branch eigenvector states used as optimal initial
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContourTooTight,
    DimensionMismatch,
    NearSingularEvaluation,
    NotDiagonalizable,
    QuadratureNonconvergent,
    ZeroWaveVector,
)
from .dispersion import _pairwise
from .medium import LorentzMedium

#: u_+ eigenvalues (the simple dispersion roots) closer than this, scaled by 1 + |root|
#: and not globally (tight pole fans sit next to large roots), refuse a decomposition
EIG_CLUSTER_TOL = 1e-7

#: scaled distance to singular sets below which the formula path refuses
SINGULAR_TOL = 1e-8

# contour nodes per stacked resolvent call; caps the (nodes, dim, dim) stack
_CONTOUR_BLOCK = 256

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


def layout_for(medium: LorentzMedium) -> StateLayout:
    """The transverse (2 components per block) layout of the reduced operator."""
    return StateLayout(medium.n_electric, medium.n_magnetic, 2)


def _families(medium: LorentzMedium, lay: StateLayout):
    """(field block, eps0 or mu0, oscillators, position, velocity) per family."""
    yield lay.e, medium.eps0, medium.electric, lay.p, lay.pdot
    yield lay.h, medium.mu0, medium.magnetic, lay.m, lay.mdot


@dataclass
class PerpState:
    """A transverse state: one 2-vector per block, stored flat."""

    data: np.ndarray
    layout: StateLayout

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.layout.dim,):
            raise DimensionMismatch(
                f"state has shape {self.data.shape}, layout needs ({self.layout.dim},)"
            )

    @classmethod
    def from_blocks(cls, layout, e=(0, 0), h=(0, 0), p=None, pdot=None, m=None, mdot=None):
        s = cls(np.zeros(layout.dim), layout)
        s.data[layout.e] = e
        s.data[layout.h] = h
        blocks = (layout.p, layout.pdot, layout.m, layout.mdot)
        for block, values in zip(blocks, (p, pdot, m, mdot)):
            for j, v in enumerate(values or []):
                s.data[block(j)] = v
        return s


def gram_diagonal(medium: LorentzMedium) -> np.ndarray:
    """Diagonal of the energy inner product in the block layout."""
    lay = layout_for(medium)
    g = np.empty(lay.dim)
    for field, base, oscillators, pos, vel in _families(medium, lay):
        g[field] = base / 2
        for j, osc in enumerate(oscillators):
            g[pos(j)] = base / 2 * osc.resonance**2 * osc.coupling**2
            g[vel(j)] = base / 2 * osc.coupling**2
    return g


@dataclass
class PerpOperator:
    """The reduced operator at one wavenumber plus its weighted inner product."""

    matrix: np.ndarray
    k: float
    gram_diag: np.ndarray
    layout: StateLayout
    medium: LorentzMedium

    @property
    def dim(self) -> int:
        return self.layout.dim

    def inner(self, u, v) -> complex:
        """Weighted inner product, linear in the first argument."""
        u = u.data if isinstance(u, PerpState) else np.asarray(u)
        v = v.data if isinstance(v, PerpState) else np.asarray(v)
        if u.shape != v.shape or u.shape != (self.dim,):
            raise DimensionMismatch("state dimensions do not match the operator")
        return complex(np.sum(self.gram_diag * u * np.conj(v)))

    def norm(self, u):
        """Weighted norm of a state; a stack of states (last axis) gives an array."""
        u = u.data if isinstance(u, PerpState) else np.asarray(u)
        norms = np.sqrt(np.sum(self.gram_diag * np.abs(u) ** 2, axis=-1))
        return float(norms) if norms.ndim == 0 else norms

    def operator_norm(self, mat: np.ndarray) -> float:
        """Spectral norm of mat measured in the weighted inner product."""
        s = np.sqrt(self.gram_diag)
        return float(np.linalg.norm((mat * s[:, None]) / s[None, :], 2))

    @cached_property
    def eigen(self):
        return spectral_decomposition(self)


def _assemble(medium: LorentzMedium, curl: np.ndarray) -> tuple[np.ndarray, StateLayout]:
    """Operator matrix and layout; the block width is the size of the curl block.

    Leading axes of curl give a stack of matrices.
    """
    lay = StateLayout(medium.n_electric, medium.n_magnetic, curl.shape[-1])
    a = np.zeros(curl.shape[:-2] + (lay.dim, lay.dim), dtype=complex)
    a[..., lay.e, lay.h] = -curl / medium.eps0
    a[..., lay.h, lay.e] = curl / medium.mu0
    eye = np.eye(lay.width)
    for field, _, oscillators, pos, vel in _families(medium, lay):
        for j, osc in enumerate(oscillators):
            a[..., field, vel(j)] = -1j * osc.coupling**2 * eye
            a[..., pos(j), vel(j)] = 1j * eye
            a[..., vel(j), field] = 1j * eye
            a[..., vel(j), pos(j)] = -1j * osc.resonance**2 * eye
            a[..., vel(j), vel(j)] = -1j * osc.damping * eye
    return a, lay


def build_perp_operator(medium: LorentzMedium, k: float) -> PerpOperator:
    """Assemble the 2N x 2N reduced operator at wavenumber k >= 0."""
    a, lay = _assemble(medium, k * J2)
    return PerpOperator(
        matrix=a, k=float(k), gram_diag=gram_diagonal(medium), layout=lay, medium=medium
    )


# --- full 3-vector operator and the rotation reduction ---------------------------


@dataclass(frozen=True)
class RotationMap:
    """Rotation taking the unit wave vector to e3, applied blockwise."""

    k_vector: np.ndarray
    rotation: np.ndarray  # 3x3 real

    def blockwise(self, blocks: int) -> np.ndarray:
        return np.kron(np.eye(blocks), self.rotation)


def build_rotation(k_vector) -> RotationMap:
    k = np.asarray(k_vector, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0:
        raise ZeroWaveVector("rotation undefined for the zero wave vector")
    khat = k / norm
    e3 = np.array([0.0, 0.0, 1.0])
    if np.allclose(khat, e3):
        rot = np.eye(3)
    elif np.allclose(khat, -e3):
        # explicit mirror pair: e1 -> -e2, e2 -> -e1, e3 -> -e3
        rot = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    else:
        w = np.cross(khat, e3)
        w = w / np.linalg.norm(w)
        kxw = np.cross(khat, w)
        # rows of the matrix are the images' coordinates: R k = e3, R w = e1
        rot = np.vstack([w, kxw, khat])
    return RotationMap(k_vector=k.copy(), rotation=rot)


def build_full_operator(medium: LorentzMedium, k_vector) -> np.ndarray:
    """The 3N x 3N operator for a general wave vector (3 components per block)."""
    k = np.asarray(k_vector, dtype=float)
    cross = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    return _assemble(medium, cross)[0]


# --- explicit resolvent -------------------------------------------------------------


def singular_set(medium: LorentzMedium, k: float) -> np.ndarray:
    """Points where the formula path degenerates: spectrum, poles, mu-zeros, 0."""
    from .dispersion import solve_dispersion

    pts = [0.0 + 0.0j]
    pts.extend(p.location for p in medium.catalog.poles)
    pts.extend(medium.family_zeros[1])
    pts.extend(solve_dispersion(medium, k))
    return np.asarray(pts, dtype=complex)


def resolvent_formula(
    medium: LorentzMedium, k: float, omega, guard: bool = True
) -> np.ndarray:
    """Explicit inverse of (A - omega I) assembled from the factored blocks.

    omega may be a scalar or an array; the result has shape
    ``omega.shape + (dim, dim)``, one resolvent per omega, built by
    broadcasting the 2 x 2 block coefficients over omega.  Raises
    NearSingularEvaluation when any omega is too close to the spectrum or to
    the removable-singularity set of the auxiliary term.
    """
    omega = np.asarray(omega, dtype=complex)
    if guard:
        dist = np.abs(singular_set(medium, k) - omega[..., None]).min(axis=-1)
        near = dist < SINGULAR_TOL * (1.0 + np.abs(omega))
        if np.any(near):
            bad = omega[near].flat[0]
            raise NearSingularEvaluation(
                f"omega={bad} within guard distance of the singular sets"
            )
    lay = layout_for(medium)
    dim = lay.dim
    eye = np.eye(2)
    w = omega[..., None, None]  # every block coefficient is a scalar times eye
    mu = medium.permeability(w)
    eps_mu_omega2 = w * w * medium.permittivity(w) * mu

    # row maps F -> 2-vector, as 2 x dim matrices
    def rows(block_a, block_b, ca, cb):
        r = np.zeros(omega.shape + (2, dim), dtype=complex)
        r[..., block_a] = ca * eye
        r[..., block_b] = cb * eye
        return r

    t_mat = np.zeros(omega.shape + (dim, dim), dtype=complex)
    a_rows = []  # A_e(omega), then A_m(omega)
    for field, base, oscillators, pos, vel in _families(medium, lay):
        acc = np.zeros(omega.shape + (2, dim), dtype=complex)
        acc[..., field] = -base * eye
        for j, osc in enumerate(oscillators):
            q = osc.q(w)
            dot = rows(pos(j), vel(j), 1j * osc.resonance**2 / q, -w / q)
            acc += -base * 1j * osc.coupling**2 * dot
            t_mat[..., pos(j), :] = rows(
                pos(j), vel(j), (-1j * osc.damping - w) / q, -1j / q
            )
            t_mat[..., vel(j), :] = dot
        a_rows.append(acc)
    a_e_rows, a_m_rows = a_rows

    s_rows = (w * mu * a_e_rows - k * (J2 @ a_m_rows)) / (eps_mu_omega2 - k * k)

    v_cols = eigenvector_columns(medium, k, omega)

    # H is recovered from E and A_m, so only the magnetic blocks carry A_m
    t_mat[..., lay.h, :] = a_m_rows / (w * mu)
    for l, osc in enumerate(medium.magnetic):
        q = osc.q(w)
        t_mat[..., lay.m(l), :] -= a_m_rows / (w * mu * q)
        t_mat[..., lay.mdot(l), :] += 1j * a_m_rows / (mu * q)

    return v_cols @ s_rows + t_mat


def eigenvector_columns(medium: LorentzMedium, k: float, omega) -> np.ndarray:
    """The 2-column eigenspace map: transverse field vector to full state.

    omega may be a scalar or an array; the result has shape
    ``omega.shape + (dim, 2)``.
    """
    omega = np.asarray(omega, dtype=complex)
    lay = layout_for(medium)
    eye = np.eye(2)
    w = omega[..., None, None]
    # each family's field as a function of E: the identity, then H = k J2 E / (omega mu)
    field_maps = (eye, k / (w * medium.permeability(w)) * J2)
    v_cols = np.zeros(omega.shape + (lay.dim, 2), dtype=complex)
    for f, (field, _, oscillators, pos, vel) in zip(field_maps, _families(medium, lay)):
        v_cols[..., field, :] = f
        for j, osc in enumerate(oscillators):
            q = osc.q(w)
            v_cols[..., pos(j), :] = -f / q
            v_cols[..., vel(j), :] = 1j * w * f / q
    return v_cols


def optimal_initial_data(
    medium: LorentzMedium, k: float, omega: complex
) -> PerpState:
    """Unit-norm eigenvector state for the branch eigenvalue omega at k.

    The caller provides the branch eigenvalue (from solve_dispersion or a
    tracked branch); the state is the first eigenspace column, normalized in
    the energy norm, and verified to be an eigenvector.
    """
    pts = [0.0 + 0.0j] + [p.location for p in medium.catalog.poles]
    if np.min(np.abs(np.asarray(pts) - omega)) < SINGULAR_TOL * (1.0 + abs(omega)):
        raise NearSingularEvaluation(f"branch eigenvalue {omega} sits on a singular point")
    op = build_perp_operator(medium, k)
    v = eigenvector_columns(medium, k, omega)[:, 0]
    v = v / op.norm(v)
    residual = np.linalg.norm(op.matrix @ v - omega * v) / np.linalg.norm(v)
    if residual > 1e-8:
        raise NearSingularEvaluation(
            f"eigen-residual {residual:.2e} too large; omega is not an eigenvalue"
        )
    return PerpState(v, op.layout)


# --- spectral decomposition ------------------------------------------------------


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues with their rank-2 spectral projectors."""

    eigenvalues: np.ndarray
    projectors: np.ndarray  # shape (n_eigs, dim, dim)
    residual: float

    @property
    def identity_defect(self) -> float:
        eye = np.eye(self.projectors.shape[1])
        return float(np.linalg.norm(self.projectors.sum(axis=0) - eye, 2))


def _flip(medium: LorentzMedium) -> np.ndarray:
    """S per block, -1 on H, M and Mdot: S A_+ S is the u_- operator."""
    ne, nm = medium.n_electric, medium.n_magnetic
    return np.repeat([1.0, -1.0, 1.0, -1.0], [1, 1, 2 * ne, 2 * nm])


def _helicity_modes(medium: LorentzMedium, k):
    """(eigenvalues in lexsort order, eigenvectors, inverse) of the u_+ operator.

    A 1-D array of k gives stacks from one ``eig``.  The first k with a scaled
    gap below EIG_CLUSTER_TOL or cond above 1e12 is refused.
    """
    k = np.asarray(k, dtype=float)
    vals, vecs = np.linalg.eig(_assemble(medium, 1j * k[..., None, None])[0])
    order = np.lexsort((vals.imag, vals.real))
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    gap = (_pairwise(vals) / (1.0 + np.abs(vals)[..., :, None])).min(axis=(-2, -1))
    cond = np.linalg.cond(vecs)
    bad = (gap < EIG_CLUSTER_TOL) | ~(cond <= 1e12)
    if np.any(bad):
        i = np.argmax(bad) if bad.ndim else ()
        raise NotDiagonalizable(f"k={k[i]:g}: scaled gap {gap[i]:.2e}, cond {cond[i]:.2e}")
    return vals, vecs, np.linalg.inv(vecs)


def spectral_decomposition(op: PerpOperator) -> SpectralDecomposition:
    """Rank-2 projectors p_n (x) u_+ u_+^H + S p_n S (x) u_- u_-^H, one per root.

    p_n is the eigenprojector of the n-th (simple) eigenvalue of the u_+
    operator.  Refuses what _helicity_modes refuses, and a matrix that the
    projectors reconstruct only to more than 1e-8 (not the medium's at op.k).
    """
    vals, vecs, inv = _helicity_modes(op.medium, op.k)
    p = vecs.T[:, :, None] * inv[:, None, :]  # column n of vecs times row n of inv
    s = _flip(op.medium)
    # block (a, b) of the n-th projector: p[n, a, b] (u_+u_+^H + s_a s_b u_-u_-^H)
    q_plus = np.outer(_U_PLUS, _U_PLUS.conj())
    q = q_plus[:, None] + np.outer(s, s)[:, None, :, None] * q_plus.conj()[:, None]
    projectors = (p[:, :, None, :, None] * q).reshape(len(vals), op.dim, op.dim)
    recon = np.einsum("n,nij->ij", vals, projectors) - op.matrix
    residual = float(np.linalg.norm(recon, 2) / max(np.linalg.norm(op.matrix, 2), 1e-300))
    if residual > 1e-8:
        raise NotDiagonalizable(f"projectors reconstruct the matrix to {residual:.2e}")
    return SpectralDecomposition(eigenvalues=vals, projectors=projectors, residual=residual)


# --- contour projector --------------------------------------------------------------


def projector_contour(
    medium: LorentzMedium,
    k: float,
    eigenvalue: complex,
    tol: float = 1e-9,
    max_nodes: int = 4096,
) -> np.ndarray:
    """Riesz projector by trapezoidal quadrature of the explicit resolvent.

    The circle is centered at the eigenvalue with radius half the distance to
    every other eigenvalue and every removable-singularity point; nodes double
    from 32 until two successive estimates agree.  The 2n-node ring contains
    the n-node ring, so each doubling evaluates only the n new odd nodes, in
    stacked resolvent calls of at most ``_CONTOUR_BLOCK`` nodes, and adds
    them to the carried node sum.
    """
    pts = singular_set(medium, k)
    dist = np.abs(pts - eigenvalue)
    dist = dist[dist > SINGULAR_TOL * (1.0 + abs(eigenvalue))]
    rho = 0.5 * float(dist.min())
    if rho < 1e-10:
        raise ContourTooTight(f"isolation radius {rho:.3e} at eigenvalue {eigenvalue}")

    prev = None
    acc = np.zeros((2 * medium.state_blocks,) * 2, dtype=complex)
    nodes = 32
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    while nodes <= max_nodes:
        for start in range(0, len(theta), _CONTOUR_BLOCK):
            phase = np.exp(1j * theta[start : start + _CONTOUR_BLOCK])
            ring = resolvent_formula(medium, k, eigenvalue + rho * phase, guard=False)
            acc += np.einsum("n,nij->ij", phase, ring)
        est = -acc * rho / nodes
        if prev is not None and np.linalg.norm(est - prev, 2) < tol * max(
            1.0, np.linalg.norm(est, 2)
        ):
            return est
        prev = est
        # the odd nodes of the 2n-node ring
        theta = 2.0 * math.pi * (2 * np.arange(nodes) + 1) / (2 * nodes)
        nodes *= 2
    raise QuadratureNonconvergent(
        f"contour projector did not converge with {max_nodes} nodes"
    )


def projector_norm_sweep(
    medium: LorentzMedium,
    branch,
    k_grid,
) -> list[tuple[float, float, float]]:
    """(k, weighted projector norm, decomposition residual) along one branch.

    branch is either a tracked BranchFamily (its nearest sample anchors the
    eigenvalue at each k) or a callable k -> eigenvalue.  The log-log trend of
    the norms is reported by sweep_trend; growth is the caller's signal to
    distrust the band.
    """
    sweep = []
    for k in k_grid:
        near = branch(k) if callable(branch) else branch.omega[np.argmin(abs(branch.k - k))]
        op = build_perp_operator(medium, k)
        dec = op.eigen
        idx = int(np.argmin(np.abs(dec.eigenvalues - near)))
        sweep.append((float(k), op.operator_norm(dec.projectors[idx]), dec.residual))
    return sweep


def sweep_trend(sweep: list[tuple[float, float, float]]) -> float:
    """Log-log slope of projector norm against k."""
    k = np.array([s[0] for s in sweep])
    v = np.array([s[1] for s in sweep])
    return float(np.polyfit(np.log(k), np.log(v), 1)[0])
