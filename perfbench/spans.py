"""Spans and counters recorded around calls into the library's layers.

The library is not changed.  ``install`` wraps each traced public function at
every name through which the library itself looks it up (``energy`` binds
``solve_dispersion``, ``build_perp_operator``, ``eigenvector_columns`` and
``propagate`` into its own namespace; ``ComplexPolynomial.roots`` finds
``companion_roots`` in ``dispersion``; ``PerpOperator.eigen`` finds
``spectral_decomposition`` in ``operators``), and ``uninstall`` puts the
originals back.  Spans and counts stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from functools import cached_property

from lorentzmodes import energy
from lorentzmodes.errors import BranchCollision
from lorentzmodes.medium import LorentzMedium

#: traced function -> the module namespaces that hold a name for it
TRACED = {
    "polyroots.companion_roots": ("polyroots", "dispersion", "medium"),
    "dispersion.solve_dispersion": ("dispersion", "energy"),
    "dispersion.track_branches": ("dispersion",),
    "dispersion.classify_branches": ("dispersion",),
    "dispersion.diagnose_bands": ("dispersion",),
    "operators.build_perp_operator": ("operators", "energy"),
    "operators.spectral_decomposition": ("operators",),
    "operators.eigenvector_columns": ("operators", "energy"),
    "operators.resolvent_formula": ("operators",),
    "operators.projector_contour": ("operators",),
    "evolution.propagate": ("evolution", "energy"),
    "energy.simulate_energy": ("energy",),
    "energy.branch_eigenvalue": ("energy",),
    "energy.fit_exponent": ("energy",),
    "cli.load_medium_config": ("cli",),
    # methods of LorentzMedium, wrapped on the class
    "medium.catalog": (),
    "medium.asymptotic_coefficients": (),
}


class Tracer:
    """In-memory span log: (name, start, end, parent index, operation id)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Recursive calls (propagate falling back to itself) count as
        calls, and only their outermost span adds inclusive time.
        """
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TRACED}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if parent < 0 or not _has_ancestor(self.spans, parent, name):
                entry["s"] += end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op_id\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def _has_ancestor(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _wrap(tracer: Tracer, name: str, fn):
    on_call = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args, kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BranchCollision:
            if name == "dispersion.track_branches":
                tracer.counts["dispersion.branch_collisions"] += 1
            raise
        finally:
            tracer.close(index)
        _after(tracer, name, args, kwargs, result)
        return result

    return traced


def _count_solve(tracer, args, kwargs):
    if tracer.inside("dispersion.track_branches"):
        tracer.counts["dispersion.track_branches.solves_pending"] += 1


def _start_tracking(tracer, args, kwargs):
    # solves of a tracking call that raises do not count toward solves_per_point
    tracer.counts["dispersion.track_branches.solves_pending"] = 0


def _count_node(tracer, args, kwargs):
    # simulate_energy assembles one operator per quadrature node it evaluates
    if tracer.inside("energy.simulate_energy"):
        tracer.counts["energy.nodes_evaluated"] += 1


def _count_resolvent(tracer, args, kwargs):
    if tracer.inside("operators.projector_contour"):
        tracer.counts["operators.projector_contour.resolvents"] += 1


_COUNTERS = {
    "dispersion.solve_dispersion": _count_solve,
    "dispersion.track_branches": _start_tracking,
    "operators.build_perp_operator": _count_node,
    "operators.resolvent_formula": _count_resolvent,
}


def _after(tracer, name, args, kwargs, result):
    if name == "dispersion.track_branches":
        grid = args[1] if len(args) > 1 else kwargs["k_grid"]
        tracer.counts["dispersion.track_branches.points"] += len(grid)
        tracer.counts["dispersion.track_branches.solves"] += tracer.counts.pop(
            "dispersion.track_branches.solves_pending")
    elif name == "evolution.propagate":
        requested = kwargs.get("method", args[3] if len(args) > 3 else "eigen")
        if requested == "eigen" and result.method == "Oracle":
            tracer.counts["evolution.propagate.oracle_fallbacks"] += 1
    elif name == "energy.simulate_energy":
        # the accepted rule has NODES_PER_PANEL Gauss nodes in each panel
        tracer.counts["energy.nodes_kept"] += result.panels * energy.NODES_PER_PANEL


def install(tracer: Tracer):
    """Wrap every traced name; returns the state that ``uninstall`` restores."""
    saved = []
    for name, namespaces in TRACED.items():
        module_name, attr = name.split(".")
        if not namespaces:
            continue
        original = getattr(importlib.import_module(f"lorentzmodes.{module_name}"), attr)
        wrapper = _wrap(tracer, name, original)
        for ns in namespaces:
            module = importlib.import_module(f"lorentzmodes.{ns}")
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    catalog = LorentzMedium.__dict__["catalog"]
    traced_catalog = cached_property(_wrap(tracer, "medium.catalog", catalog.func))
    traced_catalog.__set_name__(LorentzMedium, "catalog")
    coefficients = LorentzMedium.__dict__["asymptotic_coefficients"]
    saved.append((LorentzMedium, "catalog", catalog))
    saved.append((LorentzMedium, "asymptotic_coefficients", coefficients))
    LorentzMedium.catalog = traced_catalog
    LorentzMedium.asymptotic_coefficients = _wrap(
        tracer, "medium.asymptotic_coefficients", coefficients
    )
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
