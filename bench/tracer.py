"""In-memory span tracer for the traced benchmark pass.

The tracer wraps public functions of the ``umda`` layers from outside: each
wrapper records one span (name, start, end, parent span) and optional
counters.  A function is replaced at *every* binding it is reachable
through -- the defining module, every module that imported it by name, and
the package namespace -- so a call can never bypass its wrapper.  Nothing
under ``src/`` is modified; ``disable`` restores every original binding.

Self time of a span is its duration minus the durations of its direct
children.  Counter updates that cost more than a few attribute reads run in
a ``tracing.bookkeeping`` child span, so they are excluded from the self time
of the span that triggered them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

BOOKKEEPING = "tracing.bookkeeping"

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


def lcg_advance(state: int, inc: int, steps: int) -> int:
    """PCG32 state after ``steps`` LCG steps (Brown's arbitrary-stride jump)."""
    acc_mult, acc_plus = 1, 0
    cur_mult, cur_plus = _MULT, inc
    while steps:
        if steps & 1:
            acc_mult = (acc_mult * cur_mult) & _MASK64
            acc_plus = (acc_plus * cur_mult + cur_plus) & _MASK64
        cur_plus = ((cur_mult + 1) * cur_plus) & _MASK64
        cur_mult = (cur_mult * cur_mult) & _MASK64
        steps >>= 1
    return (acc_mult * state + acc_plus) & _MASK64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: collections.Counter = collections.Counter()
        #: id(generator) -> [generator, state at first draw, u32 drawn]
        self.generators: dict[int, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, before=None, after=None, bookkeeping=False):
        """Wrapper of ``fn`` recording a span; ``after(args, kwargs, result)``
        updates counters, inside a bookkeeping span when ``bookkeeping``."""
        nid = self._nid(name)
        bk = self._nid(BOOKKEEPING)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                if bookkeeping:
                    bidx = self._open(bk)
                    after(args, kwargs, result)
                    self._close(bidx)
                else:
                    after(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str, targets) -> None:
        """Wrap each target at every binding inside ``package``.

        ``targets`` holds (owner, attribute, span name, options) tuples where
        ``owner`` is a module or a class; options are passed to ``wrap``.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for owner, attr, name, options in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, **options)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            bindings = [
                (module, key) for module in modules
                for key, value in vars(module).items() if value is original
            ]
            if not bindings:
                raise RuntimeError(f"no binding of {name} found")
            self._patches += [(m, key, original, wrapper) for m, key in bindings]
        self.enable()
        originals = [p[2] for p in self._patches]
        for module in modules:
            for key, value in vars(module).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(f"unwrapped binding {module.__name__}.{key}")

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        """Restore every original binding; ``enable`` wraps them again."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- rng audit ---------------------------------------------------------

    def note_draws(self, generator, count: int) -> None:
        """Count u32 draws per generator; the first call records its state."""
        entry = self.generators.get(id(generator))
        if entry is None:
            entry = self.generators[id(generator)] = [generator, generator.state, 0]
        entry[2] += count

    def audit_generators(self) -> tuple[int, int]:
        """(generators audited, mismatches): each generator's live state must
        equal its first-seen state advanced by the draws the wrappers counted,
        which fails if any draw bypassed the rng wrappers."""
        bad = 0
        for gen, (state, inc), drawn in self.generators.values():
            bad += int(lcg_advance(state, inc, drawn) != gen.state[0])
        audited = len(self.generators)
        self.generators.clear()
        return audited, bad

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name id, start ns, end ns, parent index) of every span."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def summarize(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, total seconds, total self seconds)."""
        nid, start, end, parent = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        count = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        total_self = np.bincount(nid, weights=own, minlength=k)
        return {
            name: (int(count[i]), total[i] * 1e-9, total_self[i] * 1e-9)
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str, parent_name: str | None = None) -> list[float]:
        """Durations in seconds of the spans called ``name``, optionally
        restricted to those whose parent span is called ``parent_name``."""
        nid, start, end, parent = self.arrays()
        if name not in self._ids:
            return []
        mask = nid == self._ids[name]
        if parent_name is not None:
            pid = self._ids.get(parent_name, -1)
            mask &= (parent >= 0) & (nid[np.maximum(parent, 0)] == pid)
        return list((end[mask] - start[mask]) * 1e-9)

    def save(self, path: str) -> None:
        nid, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            start_ns=start,
            end_ns=end,
            parent=parent,
            counters=np.array(json.dumps(dict(self.counters))),
        )
