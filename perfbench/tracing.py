"""In-memory spans around the library's module boundaries, for the traced run.

The tracer wraps public names where the calling module looks them up (for
example ``redeiberge.checks.rb_by_permutations`` or ``NCSymElement.to_basis``)
and restores them afterwards; nothing under ``src/`` changes.  Each call becomes
a span (name, start, end, parent, instance).  Self time is a span's duration
minus the time its child spans cover, accumulated per span name as spans close.
Spans themselves are kept only while ``recording`` is on (the first traced
pass), because the hot leaves (mobius, count_friendly) open hundreds of
thousands of them per pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """The untraced run: calls go straight through, counts are dropped."""

    instance = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount):
        pass


class Tracer:
    def __init__(self):
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list = []
        self.recording = False
        self.instance = -1
        self._stack: list[list] = []  # open spans: [child seconds, span id]

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = -1
        if self.recording:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[0]
            self.calls[name] += 1
            if parent is not None:
                parent[0] += duration
            if span_id >= 0:
                parent_id = parent[1] if parent is not None else -1
                self.spans[span_id] = (name, start, end, parent_id, self.instance)

    def count(self, name, amount):
        self.counts[name] += amount

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, (name, start, end, parent, instance) in enumerate(self.spans):
                out.write(json.dumps([span_id, name, start, end, parent, instance]) + "\n")


def _counting(tracer, name, fn, counter):
    """Wrap fn as span `name`, adding the size of its result's terms to `counter`."""

    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.count(counter, len(result.terms))
        return result

    return traced


def _plain(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _to_basis(tracer, fn):
    names = {b: "ncsym.to_basis." + b for b in ("M", "P", "E")}
    counters = {"M": "ncsym.m_terms", "E": "ncsym.e_terms"}

    def traced(element, target):
        if target == element.basis:
            return fn(element, target)  # the identity conversion is not a span
        result = tracer.call(names[target], fn, element, target)
        if target in counters:
            tracer.count(counters[target], len(result.terms))
        return result

    return traced


class Patches:
    """The wrapped names of one imported library; install() and restore() toggle them."""

    def __init__(self, lib, tracer: Tracer):
        invariant, checks, ncsym, digraph = lib.invariant, lib.checks, lib.ncsym, lib.digraph
        t = tracer
        perms = invariant.rb_by_permutations
        friendly = invariant.count_friendly
        self._targets = []  # (owner, attribute, wrapper)
        for owner in (invariant, checks):
            self._add(owner, "rb_by_permutations", _counting(t, "invariant.rb_by_permutations", perms, "invariant.p_terms"))
            self._add(owner, "count_friendly", _plain(t, "invariant.count_friendly", friendly))
        for name in ("rb_by_deletion_contraction", "rb_by_colorings", "rb_commutative", "rb_tournament"):
            self._add(checks, name, _plain(t, "invariant." + name, getattr(checks, name)))
        self._add(checks, "has_even_directed_cycle", _plain(t, "digraph.has_even_directed_cycle", checks.has_even_directed_cycle))
        for owner in (checks, ncsym):
            self._add(owner, "multiply", _plain(t, "ncsym.multiply", ncsym.multiply))
        for name in ("coarsenings", "refinements", "insert_last", "apply_perm", "mobius", "mobius_from_bottom"):
            self._add(ncsym, name, _plain(t, "setpart." + name, getattr(ncsym, name)))
        element = ncsym.NCSymElement
        self._add(element, "to_basis", _to_basis(t, element.to_basis))
        for name in ("commutative_image", "__add__", "scale", "induct", "act"):
            self._add(element, name, _plain(t, "ncsym." + name, getattr(element, name)))
        graph = digraph.Digraph
        for name in (
            "__init__", "delete_edges", "relabel", "contract_last_edge", "complement",
            "opposite", "product", "hamiltonian_path_count", "find_directed_cycle",
        ):
            self._add(graph, name, _plain(t, "digraph." + name, getattr(graph, name)))
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._targets]

    def _add(self, owner, attr, wrapper):
        self._targets.append((owner, attr, wrapper))

    def install(self):
        for owner, attr, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
