"""Dispersion relation: polynomial form, root branches over wavenumber, asymptotics.

The eigenvalue equation at wavenumber k is a degree-N polynomial equation
with coefficient rows from ``dispersion_polynomial``.  This module solves it
per k (a scalar k != 0 is a one-row stack; k = 0 deflates its two origin
roots), continues the N roots into labeled branches over a k grid, and
classifies each branch by its small-k and large-k limit object.  One
``expansion`` gives every label's asymptotic series: it serves the order check
of ``verify_asymptotics``, the leading-term mask of ``diagnose_bands`` and the
Newton anchors of ``energy.branch_eigenvalue``.

Tracking and band diagnosis work on the stored (n_k, N) root rows of the
grid.  The grid's dispersion rows are built once: every sixteenth row and
the last go through ``polyroots.certified_roots``, the one stacked companion
solve, and the rows in between through ``polyroots._guessed_roots``,
certified Newton chained from the anchor on each side, half a gap forward
and half backward.  A chained row starts at the secant through the two rows
before it in its chain where both hold their roots in the same positions and
no secant row of the chain has fallen back, and at the roots of the row
before it otherwise; a row Newton cannot certify goes through the same
companion solve.  The continuation checks and the asymptopia tests run as
numpy passes over blocks of grid rows; the step checks read each root's
nearest gap once, and the collision test and the step control both read
those gaps.  A row that passes the step control in its raw order needs no
nearest-neighbour search and leaves the running permutation as it is; a
nearest-neighbour order needs no near-tie test, because the step control
never passes a near tie.  Only unsafe continuation steps go through the
per-step path, which refines them or raises.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    AsymptoticMismatch,
    BranchCollision,
    DegenerateLeadingCoefficient,
    InvalidWavenumber,
    UnclassifiableBranch,
)
from .medium import CLUSTER_TOL, CoefficientTable, LorentzMedium, ZeroClass, fan_root
from .polyroots import NEWTON_STEPS, _guessed_roots, certified_roots, companion_roots

#: a leading dispersion coefficient this small relative to its row is degenerate
TRIM_TOL = 1e-14

#: two roots a, b collide for continuation purposes when |a - b| < MATCH_TOL (1 + max(|a|, |b|))
MATCH_TOL = 1e-10

MAX_REFINEMENTS = 10

#: rows per certified_roots call of a stacked solve; caps the companion stack's memory.
#: No benchmark or CLI default grid splits (the largest stacked solve is 76 rows),
#: but large user grids do: tracking N = 16 at 2000 points per decade peaks at 45 MB
#: blocked against 53 MB unblocked, at 8000 per decade 81 MB against 113 MB
#: (ru_maxrss, one BLAS thread, 2-vCPU VM)
_SOLVE_BLOCK = 256

#: every this many grid rows one, and the last, is solved from its companion matrix;
#: the rows between are solved by Newton, chained from the anchors on both sides
_ANCHOR_STRIDE = 16

#: pair entries per (rows, N, N) distance temporary of tracking and band diagnosis:
#: 64 grid rows at N = 16.  The benchmark atlas run peaks at 43.6 MB blocked;
#: unblocking tracking alone raises that to 52.5 MB, the diagnose_bands mask alone
#: to 53.3 MB, both to 54.2 MB (peak_rss_mb, one BLAS thread, 2-vCPU VM)
_PAIR_BUDGET = 64 * 16**2


def _pair_rows(n: int) -> int:
    """Grid rows per pair block at N = n: the budget's worth, and never fewer than at N = 16."""
    return _PAIR_BUDGET // min(n, 16) ** 2


# --- branch labels -------------------------------------------------------------


@dataclass(frozen=True)
class PlusInf:
    def __str__(self):
        return "PlusInf"


@dataclass(frozen=True)
class MinusInf:
    def __str__(self):
        return "MinusInf"


@dataclass(frozen=True)
class Pole:
    location: complex
    index: int  # 1-based within the pole's branch fan
    multiplicity: int
    leading: complex  # coefficient of k^(-2/multiplicity)

    def __str__(self):
        return f"Pole({_fmt(self.location)},n={self.index})"


@dataclass(frozen=True)
class Zero0:
    index: int  # 1 or 2; slope is (-1)^index * static_speed

    def __str__(self):
        return f"Zero0(r={self.index})"


@dataclass(frozen=True)
class ZeroSimple:
    location: complex

    def __str__(self):
        return f"ZeroSimple({_fmt(self.location)})"


@dataclass(frozen=True)
class ZeroMinus:
    location: complex
    index: int
    multiplicity: int
    leading: complex  # coefficient of k^(2/multiplicity)

    def __str__(self):
        return f"ZeroMinus({_fmt(self.location)},n={self.index})"


def _fmt(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


@dataclass
class BranchFamily:
    """One continuous root branch sampled on the k grid.

    hf_label / lf_label name the large-k and small-k limit objects; both are
    None until classify_branches has run.
    """

    k: np.ndarray
    omega: np.ndarray
    hf_label: object = None
    lf_label: object = None

    def omega_at(self, k_value: float) -> complex:
        i = int(np.argmin(np.abs(self.k - k_value)))
        if not math.isclose(self.k[i], k_value, rel_tol=1e-9):
            raise KeyError(f"{k_value} is not a grid point of this branch")
        return complex(self.omega[i])

    def label_text(self) -> str:
        hf = str(self.hf_label) if self.hf_label is not None else "?"
        lf = str(self.lf_label) if self.lf_label is not None else "?"
        return f"{hf}|{lf}"


# --- per-k solving ---------------------------------------------------------------


def dispersion_polynomial(medium: LorentzMedium, k) -> np.ndarray:
    """Ascending coefficients of the degree-N polynomial whose roots are the eigenvalues at k.

    One row of N + 1 per k; an array of k gives shape ``k.shape + (N + 1,)``.
    """
    num, den = medium.numerator_denominator()
    k2 = np.square(np.asarray(k, dtype=float))[..., None]
    rows = np.broadcast_to(num, k2.shape[:-1] + num.shape).copy()
    rows[..., : len(den)] -= k2 * den
    return rows


def _solvable_rows(medium: LorentzMedium, k) -> np.ndarray:
    """The (m, N + 1) dispersion rows of a scalar k (m = 1) or of a 1-D array, checked for a root solve.

    Raises InvalidWavenumber for a k of more than one dimension, a non-finite
    k, or a non-positive k in an array, and DegenerateLeadingCoefficient where
    the leading coefficient vanishes relative to the k^2 terms.
    """
    if np.ndim(k) > 1:
        raise InvalidWavenumber(f"k must be a scalar or a 1-D array, got shape {np.shape(k)}")
    scalar = np.ndim(k) == 0
    k = np.atleast_1d(np.asarray(k, dtype=float))
    bad = ~np.isfinite(k) if scalar else ~(np.isfinite(k) & (k > 0))
    if np.any(bad):
        need = "a finite wavenumber" if scalar else "positive finite wavenumbers"
        raise InvalidWavenumber(f"a dispersion solve needs {need}, got k = {float(k[bad][0])}")
    rows = dispersion_polynomial(medium, k)
    # max|num| + k^2 max|den| bounds each row's largest modulus to within rounding
    # (a few u), so a leading coefficient above TRIM_TOL times the bound with a
    # 1e-12 relative margin passes; only the other rows take the moduli of the row
    num, den = medium.numerator_denominator()
    bound = np.max(np.abs(num)) + np.square(k) * np.max(np.abs(den))
    lead = np.abs(rows[:, -1])
    near = lead <= TRIM_TOL * (1.0 + 1e-12) * bound
    if near.any() and np.any(lead[near] <= TRIM_TOL * np.max(np.abs(rows[near]), axis=1)):
        raise DegenerateLeadingCoefficient(
            "leading dispersion coefficient vanishes relative to the k^2 terms"
        )
    return rows


def solve_dispersion(medium: LorentzMedium, k) -> np.ndarray:
    """All N roots at wavenumber k, certified by the residual check.

    A 1-D array of positive k gives the (len(k), N) roots, row i at k[i],
    from stacked solves of at most 256 rows each; a scalar k != 0 is the
    one-row stack, and k = 0 deflates its two exact origin roots.  Refuses
    what ``_solvable_rows`` refuses.
    """
    scalar = np.ndim(k) == 0
    if scalar and k == 0:
        return companion_roots(dispersion_polynomial(medium, 0.0))
    rows = _solvable_rows(medium, k)
    roots = np.empty((len(rows), rows.shape[1] - 1), dtype=complex)
    for start in range(0, len(rows), _SOLVE_BLOCK):
        block = slice(start, start + _SOLVE_BLOCK)
        roots[block] = certified_roots(rows[block])
    return roots[0] if scalar else roots


def _log_points(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced points from lo to hi, bit for bit those of np.geomspace.

    It is numpy's own arithmetic for positive endpoints, 10**linspace(log10 lo,
    log10 hi, n) with the endpoints pinned, without geomspace's sign and dtype
    handling.  A non-positive endpoint raises ValueError.
    """
    if not (lo > 0 and hi > 0):
        raise ValueError(f"log-spaced points need positive endpoints, got {lo:g} and {hi:g}")
    points = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), n)
    points[0] = lo
    if n > 1:
        points[-1] = hi
    return points


def _log_grid(k_min: float, k_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced grid from k_min to k_max at the given density."""
    n = max(2, int(round(points_per_decade * math.log10(k_max / k_min))) + 1)
    return _log_points(k_min, k_max, n)


def default_k_grid(medium: LorentzMedium, points_per_decade: int = 200) -> np.ndarray:
    """Log-spaced grid covering both asymptotic regimes of the medium.

    A points_per_decade below 1 raises ValueError.
    """
    if not points_per_decade >= 1:
        raise ValueError(f"points_per_decade must be at least 1, got {points_per_decade}")
    catalog = medium.catalog
    p_max = max(abs(p.location) for p in catalog.poles)
    z_nonzero = [abs(z.location) for z in catalog.zeros if abs(z.location) > 0]
    k_max = max(1e3, 10.0 * p_max)
    k_min = min(1e-3, 0.01 * min(z_nonzero)) if z_nonzero else 1e-3
    return _log_grid(k_min, k_max, points_per_decade)


# --- continuation ------------------------------------------------------------------


def _pairwise(roots: np.ndarray) -> np.ndarray:
    """|r_a - r_b| over the last axis with an infinite diagonal; broadcasts over leading axes."""
    d = np.abs(roots[..., :, None] - roots[..., None, :])
    diagonal = np.arange(roots.shape[-1])
    d[..., diagonal, diagonal] = np.inf
    return d


def _nearest(prev: np.ndarray, new: np.ndarray):
    """(order, unique): greedy nearest-neighbour order from prev into new.

    unique says the order is a permutation; broadcasts over leading axes.  A
    near tie (a second distance below twice the first) is left to the step
    control, which never passes one (see ``_step``).
    """
    order = np.argmin(np.abs(prev[..., :, None] - new[..., None, :]), axis=-1)
    return order, np.all(np.sort(order, axis=-1) == np.arange(order.shape[-1]), axis=-1)


def _steady(prev: np.ndarray, new: np.ndarray, order: np.ndarray, gaps: np.ndarray):
    """Per-branch step control of prev -> new[order], given gaps[i], new[i]'s nearest gap.

    Each jump stays small against that branch's own gap to its nearest
    neighbour (a global max-jump criterion cannot settle when one fast branch
    coexists with a tight pole fan).
    """
    gaps = np.take_along_axis(gaps, order, axis=-1)
    jumps = np.abs(np.take_along_axis(new, order, axis=-1) - prev)
    return np.all(jumps <= 0.2 * gaps, axis=-1)


def _step(prev: np.ndarray, new: np.ndarray):
    """(order, collides, safe) of the continuation step prev -> new over leading axes of one shape.

    order is the greedy nearest-neighbour order into new.  A step is safe when
    no two new roots collide, the order is a permutation and it passes the
    step control.  An order that passes the step control puts every root
    within 0.2 gap of its partner and at least 0.8 gap from every other new
    root, four jumps away, so it is the greedy order with no near tie (second
    distance below twice the first); a contested or near-tie match therefore
    never passes, and needs neither a near-tie test nor an assignment solve.
    For the same reason a row whose raw order passes the step control without
    a collision has the identity as its greedy order and is safe, so only the
    other rows (anchor rows, chain junctions, fallback rows, swaps) go through
    ``_nearest``.  The pair distances give each root's nearest gap once, as
    column minima of the exactly symmetric distances.  A row collides where
    some root's gap is below MATCH_TOL (1 + |root|): that is the pair test at
    scale 1 + max(|a|, |b|), as the larger root of a colliding pair has a gap
    below its own threshold, and a flagged root's nearest partner lies within
    the pair's larger threshold.
    """
    gaps = _pairwise(new).min(axis=-2)
    collides = np.any(gaps < MATCH_TOL * (1.0 + np.abs(new)), axis=-1)
    order = np.broadcast_to(np.arange(new.shape[-1]), new.shape).copy()
    safe = np.asarray(~collides & _steady(prev, new, order, gaps))
    rest = ~safe
    if rest.any():
        order[rest], unique = _nearest(prev[rest], new[rest])
        steady = _steady(prev[rest], new[rest], order[rest], gaps[rest])
        safe[rest] = unique & ~collides[rest] & steady
    return order, collides, safe


def _continue_step(medium, k0, roots0, k1, roots1, depth=0):
    """Index order into roots1 (the roots at k1) continuing the branches roots0 at k0.

    An unsafe step is bisected geometrically; only the midpoints are solved
    here.
    """
    order, collides, safe = _step(roots0, roots1)
    if collides:
        raise BranchCollision(f"roots indistinguishable at k={k1:g}")
    if safe:
        return order
    if depth >= MAX_REFINEMENTS:
        raise BranchCollision(
            f"continuation step k={k0:g}->{k1:g} still ambiguous after "
            f"{MAX_REFINEMENTS} refinements"
        )
    mid = math.sqrt(k0 * k1)
    roots_mid = solve_dispersion(medium, mid)
    roots_mid = roots_mid[_continue_step(medium, k0, roots0, mid, roots_mid, depth + 1)]
    return _continue_step(medium, mid, roots_mid, k1, roots1, depth + 1)


def _solve_grid(medium: LorentzMedium, k_grid: np.ndarray) -> np.ndarray:
    """The (len(k_grid), N) certified roots of a positive grid; refuses what ``_solvable_rows`` does.

    The grid's rows are built once.  Rows 0, _ANCHOR_STRIDE, 2 _ANCHOR_STRIDE,
    ... and the last row (the anchors) go through ``certified_roots``, at most
    256 in one stacked companion solve, as ``solve_dispersion`` solves them.
    The rows of a gap between two anchors are solved by two chains: a
    forward chain from the left anchor takes the first half, rows +1 ... +8
    of a full gap, and a backward chain from the right anchor the rest, rows
    -1 ... -7.  Both chains are solved one link at a time, stacked over every
    chain of those anchors, by ``_guessed_roots``: a row starts Newton from
    guesses and keeps the result only where it is proved the whole root set
    converged to rounding; the other rows go through the same companion
    solve as the anchors.  A row whose predecessor in its chain kept its own
    guesses starts from the secant r1 + t (r1 - r0) in log k through its two
    predecessors, which then hold their roots in the same positions, so the
    secant is mirror-closed bit for bit, and takes NEWTON_STEPS - 2 steps;
    any other row starts from its predecessor's roots and takes NEWTON_STEPS.
    Once a secant row falls back, every later row of its chain starts from
    its predecessor: on a coarse grid the secant misses, and every other row
    of a chain would fall back.
    """
    rows = _solvable_rows(medium, k_grid)
    log_k = np.log(k_grid)
    anchors = np.append(np.arange(0, len(k_grid) - 1, _ANCHOR_STRIDE), len(k_grid) - 1)
    solved = np.empty((len(rows), rows.shape[1] - 1), dtype=complex)
    for start in range(0, len(anchors), _SOLVE_BLOCK):
        block = anchors[start : start + _SOLVE_BLOCK]
        solved[block] = certified_roots(rows[block])
        # the gaps whose right anchors are now solved, each as a forward and a backward chain
        gaps = slice(max(start - 1, 0), start + _SOLVE_BLOCK - 1)
        left, right = anchors[:-1][gaps], anchors[1:][gaps]
        block = np.concatenate([left, right])  # each chain's last solved row
        ahead = np.repeat([1, -1], len(left))  # each chain's direction
        links = np.concatenate([(right - left) // 2, (right - left - 1) // 2])
        secant = np.zeros(len(block), dtype=bool)  # the row before kept its guesses
        fell = np.zeros(len(block), dtype=bool)  # a secant row of the chain fell back
        for link in range(1, _ANCHOR_STRIDE // 2 + 1):
            live = links >= link
            block, ahead, links = block[live] + ahead[live], ahead[live], links[live]
            secant, fell = secant[live], fell[live]
            kept = np.empty(len(block), dtype=bool)
            back = block - ahead  # the row before in each chain
            i = block[~secant]
            if i.size:
                solved[i], kept[~secant] = _guessed_roots(rows[i], solved[back[~secant]], NEWTON_STEPS)
            i, r1, r0 = block[secant], back[secant], (back - ahead)[secant]
            if i.size:
                t = (log_k[i] - log_k[r1]) / (log_k[r1] - log_k[r0])
                guesses = solved[r1] + t[:, None] * (solved[r1] - solved[r0])
                solved[i], kept[secant] = _guessed_roots(rows[i], guesses, NEWTON_STEPS - 2)
            fell |= secant & ~kept
            secant = kept & ~fell
    return solved


def track_branches(medium: LorentzMedium, k_grid: Sequence[float]) -> list[BranchFamily]:
    """Continue the N dispersion roots across the sorted positive grid.

    Every grid point is solved up front by ``_solve_grid``: a companion solve
    on every sixteenth row and the last, and certified Newton chained from
    the anchors on both sides in between.  Every tracked row is then a
    permutation of its solved row, and whether a step is safe (no collision,
    a clear nearest-neighbour order, every jump within the step control)
    depends only on the two solved rows, so those checks run on blocks of
    rows at once.  A Newton row keeps the order of the row before it in its
    chain, so most safe steps have the identity as their order and leave the
    running permutation as it is; only the other safe steps compose
    permutations.  Unsafe steps go, in grid order, to the
    step-by-step continuation, which refines them or raises; it solves again
    only at refinement midpoints.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or not k_grid.size or np.any(np.diff(k_grid) <= 0) or np.any(k_grid <= 0):
        raise ValueError("k_grid must be a non-empty 1-D array, strictly increasing and positive")
    solved = _solve_grid(medium, k_grid)
    # deterministic start ordering
    perm = np.lexsort((solved[0].imag, solved[0].real))
    perms = np.empty(solved.shape, dtype=perm.dtype)
    done = 0  # perms[:done] are written
    block = _pair_rows(solved.shape[1])
    for start in range(1, len(k_grid), block):
        stop = min(start + block, len(k_grid))
        order, _, safe = _step(solved[start - 1 : stop - 1], solved[start:stop])
        # a safe step in raw order leaves the running permutation as it is
        moved = ~safe | np.any(order != np.arange(solved.shape[1]), axis=1)
        for i in start + np.flatnonzero(moved):
            perms[done:i] = perm
            if safe[i - start]:
                perm = order[i - start][perm]
            else:
                perm = _continue_step(
                    medium, k_grid[i - 1], solved[i - 1][perm], k_grid[i], solved[i]
                )
            done = i
    perms[done:] = perm
    path = np.take_along_axis(solved, perms, axis=1)
    return [BranchFamily(k=k_grid.copy(), omega=path[:, j].copy()) for j in range(path.shape[1])]


# --- classification ------------------------------------------------------------------


def _fan_indices(directions, m, base_angle):
    """Assign fan index n in 1..m by the cheapest angular match against e^(i(base+2*pi*n/m)).

    m is at most 4 (the catalog rejects larger clusters), so all m! assignments
    are enumerated.
    """
    ang = np.array([cmath.phase(d) for d in directions])
    targets = base_angle + 2.0 * math.pi * np.arange(1, m + 1) / m
    cost = np.abs((ang[:, None] - targets + math.pi) % (2.0 * math.pi) - math.pi)
    best = min(itertools.permutations(range(m)), key=lambda p: cost[range(m), p].sum())
    return np.array(best) + 1


def _pole_fans(entry):
    """The Pole labels of fans n = 1..m of a catalog pole entry of multiplicity m."""
    m = entry.multiplicity
    return [Pole(entry.location, n, m, fan_root(entry.residue, m, n)) for n in range(1, m + 1)]


def _straddling_pair(values, order, what: str):
    """The branches order[:2], sorted by Re value; their values must lie on both sides of Re = 0."""
    pair = sorted(order[:2], key=lambda i: values[i].real)
    if values[pair[0]].real >= 0 or values[pair[1]].real <= 0:
        raise UnclassifiableBranch(f"could not identify the two {what}")
    return pair


def _fans(values, members, nearest, kind: str):
    """(branch, catalog entry, fan index n) of every branch in members, grouped by nearest entry.

    values[i] is branch i's end, nearest the catalog's ``nearest_pole`` or
    ``nearest_zero`` and kind its name.  Every entry must take as many
    branches as its multiplicity m.  Fan n leaves a pole along a_n =
    fan_root(residue, m, n) and a zero along 1/a_n, so the directions are
    inverted at zeros before ``_fan_indices`` matches them.  A branch nearest
    the origin zero is refused: the pair through 0 is already taken.
    """
    groups: dict = {}
    for i in members:
        entry = nearest(values[i])
        if entry.klass is ZeroClass.ORIGIN:
            raise UnclassifiableBranch(f"extra branch near the origin: {values[i]}")
        groups.setdefault(entry, []).append(i)
    fans = []
    for entry, group in groups.items():
        m = entry.multiplicity
        if len(group) != m:
            raise UnclassifiableBranch(
                f"{len(group)} branches converge to {kind} {entry.location} of multiplicity {m}"
            )
        dirs = [values[i] - entry.location for i in group]
        if kind == "zero":
            dirs = [1.0 / d for d in dirs]
        base = cmath.phase(entry.residue) / m
        fans.extend((i, entry, int(n)) for i, n in zip(group, _fan_indices(dirs, m, base)))
    return fans


def classify_branches(
    branches: list[BranchFamily], medium: LorentzMedium
) -> list[BranchFamily]:
    """Attach the large-k and small-k limit labels to every branch.

    At the far end of the grid the two branches largest in modulus are the
    unbounded pair and every other branch joins the fan of its nearest pole;
    at the near end the two smallest are the pair through 0 and every other
    branch joins the fan of its nearest zero.
    """
    catalog = medium.catalog
    end = np.array([b.omega[-1] for b in branches])
    start = np.array([b.omega[0] for b in branches])

    by_mod = np.argsort(-np.abs(end))
    hf = dict(zip(_straddling_pair(end, by_mod, "unbounded branches"), (MinusInf(), PlusInf())))
    for i, entry, n in _fans(end, by_mod[2:], catalog.nearest_pole, "pole"):
        hf[i] = _pole_fans(entry)[n - 1]

    by_mod0 = np.argsort(np.abs(start))
    lf = dict(zip(_straddling_pair(start, by_mod0, "branches through 0"), (Zero0(1), Zero0(2))))
    for i, entry, n in _fans(start, by_mod0[2:], catalog.nearest_zero, "zero"):
        m = entry.multiplicity
        if entry.klass is ZeroClass.SIMPLE_REAL:
            lf[i] = ZeroSimple(entry.location)
        else:
            lf[i] = ZeroMinus(entry.location, n, m, 1.0 / fan_root(entry.residue, m, n))

    return [replace(b, hf_label=hf[i], lf_label=lf[i]) for i, b in enumerate(branches)]


# --- expansions and their verification -------------------------------------------------


def _terms(label, table: CoefficientTable):
    """(center, [(coefficient, power), ...] leading term first, next omitted power) of a branch label.

    The branch is center + sum coefficient * k^power up to the omitted power.
    Branches into a non-real pole and ZeroMinus branches carry only their
    leading fan term, so their next omitted power is twice its power.
    """
    match label:
        case PlusInf() | MinusInf():
            c, s = table.vacuum_speed, (1.0 if isinstance(label, PlusInf) else -1.0)
            coupling = s * table.total_coupling / (2 * c)
            damped = -1j * table.damped_coupling / (2 * c * c)
            return 0.0, [(s * c, 1.0), (coupling, -1.0), (damped, -2.0)], -3.0
        case Zero0(index=r):
            s = -1.0 if r == 1 else 1.0
            return 0.0, [(s * table.static_speed, 1.0), (table.lf_second_order, 2.0)], 3.0
        case ZeroSimple(location=z):
            return z, [(table.for_zero(z).curvature, 2.0)], 4.0
        case ZeroMinus(location=z, multiplicity=m, leading=a):
            return z, [(a, 2.0 / m)], 4.0 / m
        case Pole(location=p, index=n, multiplicity=m, leading=a):
            try:
                coef = table.for_pole(p)
            except KeyError:  # a non-real pole
                return p, [(a, -2.0 / m)], -4.0 / m
            if m == 1:
                return p, [(coef.second_order, -2.0), (coef.fourth_order, -4.0)], -6.0
            # fan n = 1, 2 takes the -, + split of a real positive residue
            split = -coef.split if n == 1 else coef.split
            return p, [(split, -1.0), (coef.second_order, -2.0)], -3.0
    raise ValueError(f"not a branch label: {label!r}")


def _decay_law(label, table: CoefficientTable):
    """(sigma, p, k_cross): the label's eigenvector energy exp(2 Im omega t) ~ exp(-sigma k^p t).

    a k^p is the first term of ``_terms`` with Im a != 0, and sigma = 2|Im a|; a
    label without one has sigma = 0.  k_cross = (sigma'/sigma)^(1/(p - p')) is
    where a k^p overtakes the next such term a' k^p', or 0 if none is listed.
    """
    _, terms, _ = _terms(label, table)
    lossy = [(2.0 * abs(a.imag), p) for a, p in terms if a.imag != 0]
    if not lossy:
        return 0.0, 0.0, 0.0
    (sigma, p), *rest = lossy
    return sigma, p, (rest[0][0] / sigma) ** (1.0 / (p - rest[0][1])) if rest else 0.0


def _slowest_hf_branch(medium: LorentzMedium):
    """(label, _decay_law) of the slowest of PlusInf and every real-pole fan.

    That is the least (p, sigma), the first on a tie; a candidate without
    dissipation (sigma = 0) comes first of all.
    """
    table = medium.asymptotic_coefficients()
    labels = [PlusInf(), *(f for e in medium.catalog.real_poles() for f in _pole_fans(e))]
    laws = [(label, _decay_law(label, table)) for label in labels]
    return min(laws, key=lambda law: (law[1][0] > 0, law[1][1], law[1][0]))


def expansion(label, table: CoefficientTable):
    """(omega(k), next omitted power): the asymptotic series of any branch label.

    omega(k) takes a scalar or an array of k.  The same terms give the order
    check of ``verify_asymptotics``, the leading-term band test of
    ``diagnose_bands`` and the Newton anchors of ``energy.branch_eigenvalue``.
    """
    center, terms, omitted = _terms(label, table)
    return (lambda k: sum((a * k**p for a, p in terms), center)), omitted


@dataclass(frozen=True)
class ConvergenceReport:
    k_probe: np.ndarray
    residuals: np.ndarray
    expected_order: float
    fitted_order: float

    @property
    def ok(self) -> bool:
        return abs(self.fitted_order - self.expected_order) <= 0.2 * abs(
            self.expected_order
        )


def _regime_label(branch: BranchFamily, regime: str):
    """The branch's large-k label for regime "hf", its small-k label for "lf"."""
    if regime == "hf":
        return branch.hf_label
    if regime == "lf":
        return branch.lf_label
    raise ValueError(f"regime must be 'hf' or 'lf', got {regime!r}")


def verify_asymptotics(
    branch: BranchFamily, table: CoefficientTable, k_probe: Sequence[float],
    regime: str = "hf",
) -> ConvergenceReport:
    """Check that branch residuals against the expansion decay at the right order.

    The fitted order comes from least squares on the 3 extreme probes (largest
    k for the high-frequency regime, smallest for the low-frequency one), which
    must hold two distinct wavenumbers.  ``regime`` is "hf" or "lf"; any other
    value, or fewer than two distinct fitted probes, raises ValueError.
    """
    label = _regime_label(branch, regime)
    series, expected = expansion(label, table)
    k_probe = np.asarray(sorted(k_probe), dtype=float)
    sel = slice(-3, None) if regime == "hf" else slice(None, 3)
    if len(set(k_probe[sel])) < 2:
        raise ValueError(f"the order fit needs two distinct probe wavenumbers, got {k_probe[sel]}")
    res = np.array([abs(branch.omega_at(k) - series(k)) for k in k_probe], dtype=float)
    if np.any(res == 0):
        fitted = expected
    else:
        fitted = float(
            np.polyfit(np.log(k_probe[sel]), np.log(res[sel]), 1)[0]
        )
    report = ConvergenceReport(
        k_probe=k_probe,
        residuals=res,
        expected_order=expected,
        fitted_order=fitted,
    )
    if not report.ok:
        raise AsymptoticMismatch(
            f"{label}: fitted residual order {fitted:.3f}, expected {expected:.3f}"
        )
    return report


# --- band diagnosis -----------------------------------------------------------------


def _within_leading(branch: BranchFamily, table, regime: str) -> np.ndarray:
    """Mask over the grid: the branch sits within 25 percent of its leading term."""
    center, [(a, p), *_], _ = _terms(_regime_label(branch, regime), table)
    lead = a * branch.k**p
    return np.abs(branch.omega - center - lead) <= 0.25 * np.abs(lead)


def diagnose_bands(branches: list[BranchFamily], table: CoefficientTable):
    """(k_minus, k_plus): outermost grid points where asymptopia is reached.

    A grid point is inside the high band when all roots are simple (pairwise
    separation above ten times the clustering tolerance) and every branch sits
    within 25 percent of its leading asymptotic term; the low band is
    symmetric.  Both tests run as masks over the whole grid, and each band is
    the outermost contiguous run of its mask.  Raises when no grid point
    qualifies.
    """
    k = branches[0].k
    roots = np.stack([b.omega for b in branches], axis=1)
    simple = np.empty(len(k), dtype=bool)
    block = _pair_rows(len(branches))
    for start in range(0, len(k), block):
        r = roots[start : start + block]
        size = np.abs(r)
        # ten times the clustering tolerance, scaled per pair
        scale = 1.0 + np.maximum(size[:, :, None], size[:, None, :])
        simple[start : start + block] = np.all(
            _pairwise(r) > 10 * CLUSTER_TOL * scale, axis=(1, 2)
        )

    def inside(regime):
        return simple & np.all([_within_leading(b, table, regime) for b in branches], axis=0)

    # the low band is the leading run of its mask, the high band the trailing run
    n_low = int(np.logical_and.accumulate(inside("lf")).sum())
    n_high = int(np.logical_and.accumulate(inside("hf")[::-1]).sum())
    if n_low == 0 or n_high == 0:
        raise UnclassifiableBranch("no grid point reaches the asymptotic regime")
    return float(k[n_low - 1]), float(k[len(k) - n_high])
