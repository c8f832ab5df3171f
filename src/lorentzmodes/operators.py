"""The reduced wave operator at fixed wavenumber and its spectral machinery.

States carry two transverse components per physical block, so the operator is
a dense 2N x 2N complex matrix, dissipative for the weighted inner product.
Besides the matrix itself this module provides the explicit resolvent, the
eigen- and contour-integral spectral projectors, the 3N x 3N full-vector
operator with its rotation reduction, and the slow-branch eigenvector states
used as optimal initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    ContourTooTight,
    DimensionMismatch,
    NearSingularEvaluation,
    NotDiagonalizable,
    QuadratureNonconvergent,
    ZeroWaveVector,
)
from .medium import LorentzMedium

#: eigenvalues closer than this (scaled) refuse a clean eigendecomposition
EIG_CLUSTER_TOL = 1e-7

#: scaled distance to singular sets below which the formula path refuses
SINGULAR_TOL = 1e-8

# transverse rotation by +90 degrees: the action of "e3 cross" on (x, y)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class StateLayout:
    """Block offsets of a transverse state vector; 2 components per block."""

    n_electric: int
    n_magnetic: int

    @property
    def blocks(self) -> int:
        return 2 + 2 * self.n_electric + 2 * self.n_magnetic

    @property
    def dim(self) -> int:
        return 2 * self.blocks

    @property
    def e(self):
        return slice(0, 2)

    @property
    def h(self):
        return slice(2, 4)

    def p(self, j):
        return slice(4 + 2 * j, 6 + 2 * j)

    def pdot(self, j):
        o = 4 + 2 * self.n_electric
        return slice(o + 2 * j, o + 2 * j + 2)

    def m(self, l):
        o = 4 + 4 * self.n_electric
        return slice(o + 2 * l, o + 2 * l + 2)

    def mdot(self, l):
        o = 4 + 4 * self.n_electric + 2 * self.n_magnetic
        return slice(o + 2 * l, o + 2 * l + 2)


def layout_for(medium: LorentzMedium) -> StateLayout:
    return StateLayout(medium.n_electric, medium.n_magnetic)


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
    def zero(cls, layout: StateLayout) -> "PerpState":
        return cls(np.zeros(layout.dim, dtype=complex), layout)

    @classmethod
    def from_blocks(cls, layout, e=(0, 0), h=(0, 0), p=None, pdot=None, m=None, mdot=None):
        s = cls.zero(layout)
        s.data[layout.e] = e
        s.data[layout.h] = h
        for j, v in enumerate(p or []):
            s.data[layout.p(j)] = v
        for j, v in enumerate(pdot or []):
            s.data[layout.pdot(j)] = v
        for l, v in enumerate(m or []):
            s.data[layout.m(l)] = v
        for l, v in enumerate(mdot or []):
            s.data[layout.mdot(l)] = v
        return s

    @property
    def e_block(self):
        return self.data[self.layout.e]

    @property
    def h_block(self):
        return self.data[self.layout.h]


def gram_diagonal(medium: LorentzMedium) -> np.ndarray:
    """Diagonal of the energy inner product in the block layout."""
    lay = layout_for(medium)
    g = np.empty(lay.dim)
    g[lay.e] = medium.eps0 / 2
    g[lay.h] = medium.mu0 / 2
    for j, osc in enumerate(medium.electric):
        g[lay.p(j)] = medium.eps0 / 2 * osc.resonance**2 * osc.coupling**2
        g[lay.pdot(j)] = medium.eps0 / 2 * osc.coupling**2
    for l, osc in enumerate(medium.magnetic):
        g[lay.m(l)] = medium.mu0 / 2 * osc.resonance**2 * osc.coupling**2
        g[lay.mdot(l)] = medium.mu0 / 2 * osc.coupling**2
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
    def gram(self) -> np.ndarray:
        return np.diag(self.gram_diag)

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

    def norm(self, u) -> float:
        u = u.data if isinstance(u, PerpState) else np.asarray(u)
        return float(np.sqrt(np.sum(self.gram_diag * np.abs(u) ** 2).real))

    def operator_norm(self, mat: np.ndarray) -> float:
        """Spectral norm of mat measured in the weighted inner product."""
        s = np.sqrt(self.gram_diag)
        return float(np.linalg.norm((mat * s[:, None]) / s[None, :], 2))

    @cached_property
    def eigen(self):
        return spectral_decomposition(self)


def build_perp_operator(medium: LorentzMedium, k: float) -> PerpOperator:
    """Assemble the 2N x 2N reduced operator at wavenumber k >= 0."""
    lay = layout_for(medium)
    a = np.zeros((lay.dim, lay.dim), dtype=complex)
    a[lay.e, lay.h] = -k / medium.eps0 * J2
    a[lay.h, lay.e] = k / medium.mu0 * J2
    eye = np.eye(2)
    for j, osc in enumerate(medium.electric):
        a[lay.e, lay.pdot(j)] = -1j * osc.coupling**2 * eye
        a[lay.p(j), lay.pdot(j)] = 1j * eye
        a[lay.pdot(j), lay.e] = 1j * eye
        a[lay.pdot(j), lay.p(j)] = -1j * osc.resonance**2 * eye
        a[lay.pdot(j), lay.pdot(j)] = -1j * osc.damping * eye
    for l, osc in enumerate(medium.magnetic):
        a[lay.h, lay.mdot(l)] = -1j * osc.coupling**2 * eye
        a[lay.m(l), lay.mdot(l)] = 1j * eye
        a[lay.mdot(l), lay.h] = 1j * eye
        a[lay.mdot(l), lay.m(l)] = -1j * osc.resonance**2 * eye
        a[lay.mdot(l), lay.mdot(l)] = -1j * osc.damping * eye
    return PerpOperator(
        matrix=a, k=float(k), gram_diag=gram_diagonal(medium), layout=lay, medium=medium
    )


def weighted_inner(medium: LorentzMedium, u, v) -> complex:
    g = gram_diagonal(medium)
    ud = u.data if isinstance(u, PerpState) else np.asarray(u)
    vd = v.data if isinstance(v, PerpState) else np.asarray(v)
    if ud.shape != vd.shape or ud.shape != g.shape:
        raise DimensionMismatch("state dimensions do not match the medium")
    return complex(np.sum(g * ud * np.conj(vd)))


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
    n_blocks = medium.state_blocks
    dim = 3 * n_blocks
    cross = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    eye = np.eye(3)

    def sl(b):
        return slice(3 * b, 3 * b + 3)

    ne, nm = medium.n_electric, medium.n_magnetic
    b_e, b_h = 0, 1
    b_p = lambda j: 2 + j
    b_pdot = lambda j: 2 + ne + j
    b_m = lambda l: 2 + 2 * ne + l
    b_mdot = lambda l: 2 + 2 * ne + nm + l

    a = np.zeros((dim, dim), dtype=complex)
    a[sl(b_e), sl(b_h)] = -cross / medium.eps0
    a[sl(b_h), sl(b_e)] = cross / medium.mu0
    for j, osc in enumerate(medium.electric):
        a[sl(b_e), sl(b_pdot(j))] = -1j * osc.coupling**2 * eye
        a[sl(b_p(j)), sl(b_pdot(j))] = 1j * eye
        a[sl(b_pdot(j)), sl(b_e)] = 1j * eye
        a[sl(b_pdot(j)), sl(b_p(j))] = -1j * osc.resonance**2 * eye
        a[sl(b_pdot(j)), sl(b_pdot(j))] = -1j * osc.damping * eye
    for l, osc in enumerate(medium.magnetic):
        a[sl(b_h), sl(b_mdot(l))] = -1j * osc.coupling**2 * eye
        a[sl(b_m(l)), sl(b_mdot(l))] = 1j * eye
        a[sl(b_mdot(l)), sl(b_h)] = 1j * eye
        a[sl(b_mdot(l)), sl(b_m(l))] = -1j * osc.resonance**2 * eye
        a[sl(b_mdot(l)), sl(b_mdot(l))] = -1j * osc.damping * eye
    return a


# --- explicit resolvent -------------------------------------------------------------


def singular_set(medium: LorentzMedium, k: float) -> np.ndarray:
    """Points where the formula path degenerates: spectrum, poles, mu-zeros, 0."""
    from .dispersion import solve_dispersion

    pts = [0.0 + 0.0j]
    pts.extend(p.location for p in medium.catalog.poles)
    p_m = medium.family_polynomials[2]
    if medium.n_magnetic:
        from .polyroots import companion_roots

        pts.extend(companion_roots(p_m))
    pts.extend(solve_dispersion(medium, k))
    return np.asarray(pts, dtype=complex)


def resolvent_formula(
    medium: LorentzMedium, k: float, omega: complex, guard: bool = True
) -> np.ndarray:
    """Explicit inverse of (A - omega I) assembled from the factored blocks.

    Raises NearSingularEvaluation when omega is too close to the spectrum or
    to the removable-singularity set of the auxiliary term.
    """
    if guard:
        pts = singular_set(medium, k)
        if np.min(np.abs(pts - omega)) < SINGULAR_TOL * (1.0 + abs(omega)):
            raise NearSingularEvaluation(
                f"omega={omega} within guard distance of the singular sets"
            )
    lay = layout_for(medium)
    dim = lay.dim
    mu = medium.permeability(omega)
    eps_mu_omega2 = omega * omega * medium.permittivity(omega) * mu

    q_e = np.array([osc.q(omega) for osc in medium.electric])
    q_m = np.array([osc.q(omega) for osc in medium.magnetic])

    # row maps F -> 2-vector, as 2 x dim matrices
    def rows(block_a, block_b, ca, cb):
        r = np.zeros((2, dim), dtype=complex)
        r[:, block_a] = ca * np.eye(2)
        r[:, block_b] = cb * np.eye(2)
        return r

    a_e_rows = np.zeros((2, dim), dtype=complex)  # accumulates A_e(omega)
    a_e_rows[:, lay.e] = -medium.eps0 * np.eye(2)
    for j, osc in enumerate(medium.electric):
        dot = rows(lay.p(j), lay.pdot(j), 1j * osc.resonance**2 / q_e[j], -omega / q_e[j])
        a_e_rows += -medium.eps0 * 1j * osc.coupling**2 * dot
    a_m_rows = np.zeros((2, dim), dtype=complex)
    a_m_rows[:, lay.h] = -medium.mu0 * np.eye(2)
    for l, osc in enumerate(medium.magnetic):
        dot = rows(lay.m(l), lay.mdot(l), 1j * osc.resonance**2 / q_m[l], -omega / q_m[l])
        a_m_rows += -medium.mu0 * 1j * osc.coupling**2 * dot

    s_rows = (omega * mu * a_e_rows - k * (J2 @ a_m_rows)) / (eps_mu_omega2 - k * k)

    v_cols = eigenvector_columns(medium, k, omega)

    t_mat = np.zeros((dim, dim), dtype=complex)
    t_mat[lay.h] = a_m_rows / (omega * mu)
    for l in range(medium.n_magnetic):
        t_mat[lay.m(l)] = -a_m_rows / (omega * mu * q_m[l])
        t_mat[lay.mdot(l)] = 1j * a_m_rows / (mu * q_m[l])
    for j, osc in enumerate(medium.electric):
        t_mat[lay.p(j)] += rows(
            lay.p(j), lay.pdot(j), (-1j * osc.damping - omega) / q_e[j], -1j / q_e[j]
        )
        t_mat[lay.pdot(j)] += rows(
            lay.p(j), lay.pdot(j), 1j * osc.resonance**2 / q_e[j], -omega / q_e[j]
        )
    for l, osc in enumerate(medium.magnetic):
        t_mat[lay.m(l)] += rows(
            lay.m(l), lay.mdot(l), (-1j * osc.damping - omega) / q_m[l], -1j / q_m[l]
        )
        t_mat[lay.mdot(l)] += rows(
            lay.m(l), lay.mdot(l), 1j * osc.resonance**2 / q_m[l], -omega / q_m[l]
        )

    return v_cols @ s_rows + t_mat


def eigenvector_columns(medium: LorentzMedium, k: float, omega: complex) -> np.ndarray:
    """The 2-column eigenspace map: transverse field vector to full state."""
    lay = layout_for(medium)
    mu = medium.permeability(omega)
    v_cols = np.zeros((lay.dim, 2), dtype=complex)
    v_cols[lay.e] = np.eye(2)
    for j, osc in enumerate(medium.electric):
        v_cols[lay.p(j)] = -np.eye(2) / osc.q(omega)
        v_cols[lay.pdot(j)] = 1j * omega * np.eye(2) / osc.q(omega)
    factor = k / (omega * mu)
    v_cols[lay.h] = factor * J2
    for l, osc in enumerate(medium.magnetic):
        v_cols[lay.m(l)] = -factor * J2 / osc.q(omega)
        v_cols[lay.mdot(l)] = 1j * omega * factor * J2 / osc.q(omega)
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

    def reconstruct(self) -> np.ndarray:
        return np.einsum("i,ijk->jk", self.eigenvalues, self.projectors)

    @property
    def identity_defect(self) -> float:
        eye = np.eye(self.projectors.shape[1])
        return float(np.linalg.norm(self.projectors.sum(axis=0) - eye, 2))


def spectral_decomposition(op: PerpOperator) -> SpectralDecomposition:
    """Group the doubled eigenvalues and build projectors from eigenvectors.

    Requires the dispersion roots to be simple: every cluster of the 2N
    eigenvalues must contain exactly two members.
    """
    vals, vecs = scipy.linalg.eig(op.matrix)
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]

    groups = []
    used = np.zeros(len(vals), dtype=bool)
    for i in range(len(vals)):
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(i + 1, len(vals)):
            # tolerance scaled per pair; a global scale would swallow tight
            # pole fans next to the large light-cone eigenvalues
            tol = EIG_CLUSTER_TOL * (1.0 + abs(vals[i]))
            if not used[j] and abs(vals[j] - vals[i]) <= tol:
                members.append(j)
                used[j] = True
        groups.append(members)

    if any(len(g) != 2 for g in groups):
        sizes = sorted(len(g) for g in groups)
        raise NotDiagonalizable(
            f"eigenvalue clusters of sizes {sizes}; need exactly 2 each"
        )

    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise NotDiagonalizable("eigenvector matrix is singular") from exc
    cond = np.linalg.cond(vecs)
    if cond > 1e12:
        raise NotDiagonalizable(f"eigenvector condition number {cond:.2e}")

    eigs = np.array([vals[g].mean() for g in groups])
    projectors = np.stack([vecs[:, g] @ inv[g, :] for g in groups])
    recon = np.einsum("i,ijk->jk", eigs, projectors)
    residual = float(
        np.linalg.norm(recon - op.matrix, 2) / max(np.linalg.norm(op.matrix, 2), 1e-300)
    )
    return SpectralDecomposition(eigenvalues=eigs, projectors=projectors, residual=residual)


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
    from 32 until two successive estimates agree.
    """
    pts = singular_set(medium, k)
    dist = np.abs(pts - eigenvalue)
    dist = dist[dist > SINGULAR_TOL * (1.0 + abs(eigenvalue))]
    rho = 0.5 * float(dist.min())
    if rho < 1e-10:
        raise ContourTooTight(f"isolation radius {rho:.3e} at eigenvalue {eigenvalue}")

    prev = None
    nodes = 32
    while nodes <= max_nodes:
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        ring = eigenvalue + rho * np.exp(1j * theta)
        acc = np.zeros((2 * medium.state_blocks,) * 2, dtype=complex)
        for w, phase in zip(ring, np.exp(1j * theta)):
            acc += resolvent_formula(medium, k, w, guard=False) * phase
        est = -acc * rho / nodes
        if prev is not None and np.linalg.norm(est - prev, 2) < tol * max(
            1.0, np.linalg.norm(est, 2)
        ):
            return est
        prev = est
        nodes *= 2
    raise QuadratureNonconvergent(
        f"contour projector did not converge with {max_nodes} nodes"
    )


def projector_norm_sweep(
    medium: LorentzMedium,
    branch,
    k_grid,
) -> list[tuple[float, float]]:
    """Weighted norms of the projector following one branch across k_grid.

    branch is either a tracked BranchFamily (its nearest sample anchors the
    eigenvalue at each k) or a callable k -> eigenvalue.  The log-log trend of
    the norms is reported by sweep_trend; growth is the caller's signal to
    distrust the band.
    """
    if callable(branch):
        eigenvalue_of_k = branch
    else:

        def eigenvalue_of_k(k, b=branch):
            return b.omega[int(np.argmin(np.abs(b.k - k)))]

    def one(k):
        op = build_perp_operator(medium, k)
        dec = op.eigen
        idx = int(np.argmin(np.abs(dec.eigenvalues - eigenvalue_of_k(k))))
        return float(k), op.operator_norm(dec.projectors[idx])

    return [one(k) for k in k_grid]


def sweep_trend(sweep: list[tuple[float, float]]) -> float:
    """Log-log slope of projector norm against k."""
    k = np.array([s[0] for s in sweep])
    v = np.array([s[1] for s in sweep])
    return float(np.polyfit(np.log(k), np.log(v), 1)[0])
