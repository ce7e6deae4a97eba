"""Spans around calls into bountylab's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules (and the
public methods of ``CostDistribution``) and rebinds each wrapped name wherever
a bountylab module holds it, so ``design.solve_equilibrium`` and
``game.solve_equilibrium`` record the same span. ``uninstall`` puts the
original objects back. Nothing inside the package is edited.

Spans are kept in flat arrays (name, start, end, parent) until ``save`` writes
them out. A span's self time is its duration minus the time its direct child
spans cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("costs", "rootfind", "game", "design", "asymptotic", "simulation", "credibility", "cli")
COST_METHODS = ("cdf", "pdf", "hazard_ratio", "quantile", "sample", "upper_bound", "__post_init__")

# Span names that differ from "<layer>.<function>".
RENAMES = {
    "rootfind.bisect_decreasing": "rootfind.bisect",
    "game.expected_benefit_psi": "game.psi",
    "asymptotic.hausdorff_distance": "asymptotic.hausdorff",
    "costs.__post_init__": "costs.init",
}


class _CountingGenerator:
    """Passes draws through to a numpy Generator and tallies their sizes."""

    def __init__(self, gen, tally):
        self._gen = gen
        self._tally = tally

    def random(self, size=None, *args, **kwargs):
        self._tally(1 if size is None else int(math.prod(np.atleast_1d(size))))
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        # per-span extras: bisect g evaluations, hausdorff shapes, MC trials
        self.extra: dict[int, object] = {}
        self.draws: dict[int, int] = {}  # uniforms drawn inside a simulation span
        self.max_draw = 0  # largest single uniform array requested
        self._rng_owner = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "rootfind.bisect": self._bisect_hook,
            "asymptotic.hausdorff": self._hausdorff_hook,
            "simulation.simulate": self._simulation_hook,
            "simulation.check_equilibrium": self._simulation_hook,
        }

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = self._hooks.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                if hook is not None:
                    return hook(idx, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- hooks that count work at the boundary -------------------------------

    def _bisect_hook(self, idx, fn, args, kwargs):
        g, rest = args[0], args[1:]
        evals = [0]

        def counted(x):
            evals[0] += 1
            return g(x)

        try:
            return fn(counted, *rest, **kwargs)
        finally:
            self.extra[idx] = evals[0]

    def _hausdorff_hook(self, idx, fn, args, kwargs):
        a, b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in args[:2])
        self.extra[idx] = (a.shape[0], b.shape[0], a.shape[1])
        return fn(*args, **kwargs)

    def _simulation_hook(self, idx, fn, args, kwargs):
        sim = args[2] if len(args) > 2 else kwargs["sim"]
        self.extra[idx] = sim.trials
        self.draws[idx] = 0
        outer, self._rng_owner = self._rng_owner, idx
        try:
            return fn(*args, **kwargs)
        finally:
            self._rng_owner = outer

    def _tally(self, count: int) -> None:
        self.max_draw = max(self.max_draw, count)
        if self._rng_owner >= 0:
            self.draws[self._rng_owner] += count

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        import bountylab

        modules = {layer: sys.modules[f"bountylab.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped[id(obj)] = (obj, self._wrap(name, obj))
        holders = [bountylab, *modules.values()]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(holder, attr, wrapped[id(obj)][1])
        dist_cls = bountylab.CostDistribution
        for method in COST_METHODS:
            orig = vars(dist_cls)[method]
            name = RENAMES.get(f"costs.{method}", f"costs.{method}")
            self._patch(dist_cls, method, self._wrap(name, orig))
        sim = modules["simulation"]
        chunk_rng = getattr(sim, "_chunk_rng", None)
        if chunk_rng is not None:
            tally = self._tally
            self._patch(sim, "_chunk_rng", lambda *a, **k: _CountingGenerator(chunk_rng(*a, **k), tally))

    def _patch(self, holder, attr, new) -> None:
        self._patches.append((holder, attr, vars(holder)[attr], new))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        return start, end, name, parent

    def aggregate(self, roots: list[int]) -> list[dict[str, dict]]:
        """Per root span (one benchmark pass each): for every span name, its
        call count, inclusive seconds, self seconds, the span indices and
        their durations."""
        start, end, name, parent = self.arrays()
        total = len(start)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=total)
        self_time = dur - covered
        root = np.where(has_parent, parent, np.arange(total))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        out = []
        for r in roots:
            members = np.flatnonzero(root == r)
            members = members[members != r]
            stats: dict[str, dict] = {}
            for nid in np.unique(name[members]):
                idx = members[name[members] == nid]
                stats[self.names[nid]] = {
                    "calls": int(len(idx)),
                    "incl": float(dur[idx].sum()),
                    "self": float(self_time[idx].sum()),
                    "idx": idx,
                    "dur": dur[idx],
                }
            out.append(stats)
        return out

    def save(self, path) -> None:
        start, end, name, parent = self.arrays()
        np.savez(path, start=start, end=end, name=name, parent=parent, names=np.array(json.dumps(self.names)))
