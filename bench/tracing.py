"""Outside-in tracing of objreg: wrap each module's public functions where
their callers look them up, record spans and counters, restore on exit.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``None`` for an op's root span) and ``op`` the index of the
benchmark op that caused it. Spans stay in memory until ``write``.

Nothing in ``objreg`` is edited: the wrappers replace module attributes, so
only calls that go through a patched attribute are seen. ``geometry`` helpers
are not wrapped; their cost shows up as self time of their callers.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from objreg import joint_solver, matching, observations, posegraph, procrustes

# traced name -> (defining module, attribute, modules whose callers look it up)
WRAPPED = {
    "observations.load_problem": (observations, "load_problem", [observations]),
    "matching.match_pair": (matching, "match_pair", [joint_solver]),
    "procrustes.kabsch_filter": (procrustes, "kabsch_filter", [matching, joint_solver]),
    "procrustes.icp_refine": (procrustes, "icp_refine", [joint_solver]),
    "joint_solver.build_problem": (joint_solver, "build_problem", [joint_solver]),
    "joint_solver.gauss_newton_solve": (joint_solver, "gauss_newton_solve", [joint_solver]),
    "joint_solver.register_pair": (joint_solver, "register_pair", [joint_solver, posegraph]),
    "posegraph.build_graph": (posegraph, "build_graph", [posegraph]),
    "posegraph.reject_loop_closure": (posegraph, "reject_loop_closure", [posegraph]),
    "posegraph.optimize_graph": (posegraph, "optimize_graph", [posegraph]),
    "posegraph.register_sequence": (posegraph, "register_sequence", [posegraph]),
}


def _filter_key(args, kwargs) -> bytes:
    """Digest of a kabsch_filter input: (source, target, config)."""
    source = args[0] if args else kwargs["source"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    cfg = cfg or procrustes.FilterConfig()
    h = hashlib.blake2b(digest_size=16)
    for a in (source, target):
        arr = np.ascontiguousarray(a, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(repr(dataclasses.astuple(cfg)).encode())
    return h.digest()


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._seen_filters: set = set()
        self._last_icp = None

    @contextmanager
    def op(self):
        """Root span of one benchmark op."""
        self._op = self.ops
        self._seen_filters = set()
        try:
            with self._span("op"):
                yield
        finally:
            self.ops += 1
            self._op = None

    @contextmanager
    def _span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)

    def _before(self, name, args, kwargs):
        self.counts[name + ".calls"] += 1
        if name == "procrustes.kabsch_filter":
            key = _filter_key(args, kwargs)
            self.counts["kabsch_filter.repeats"] += key in self._seen_filters
            self._seen_filters.add(key)
        elif name == "joint_solver.register_pair":
            self._last_icp = None

    def _after(self, name, result):
        c = self.counts
        if name == "matching.match_pair":
            c["match_pair.matched"] += bool(result)
        elif name == "procrustes.icp_refine":
            self._last_icp = result
        elif name == "joint_solver.gauss_newton_solve":
            c["gn.iterations"] += result.iterations
            c["gn.pruned"] += result.pruned_count
        elif name == "joint_solver.register_pair":
            c["register_pair.success"] += result.success
            if self._last_icp is not None:
                # register_pair stores the ICP pose object itself when it
                # accepts the refinement
                c["icp.accepted"] += bool(
                    result.success and result.report.camera_poses[1] is self._last_icp.pose
                )
        elif name == "posegraph.build_graph":
            c["build_graph.loop_edges"] += sum(e.kind == "loop_closure" for e in result.edges)
        elif name == "posegraph.reject_loop_closure":
            c["loop_closure.accepted"] += bool(result[0])
        elif name == "posegraph.optimize_graph":
            c["optimize_graph.pruned"] += len(result.pruned)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, args, kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            self._after(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site in WRAPPED; restore them on exit."""
        saved = []
        try:
            for name, (home, attr, sites) in WRAPPED.items():
                wrapper = self._wrap(name, getattr(home, attr))
                for mod in sites:
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self) -> tuple[dict, dict]:
        """Per span name: (total duration, total self duration), seconds."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[sid]
        return total, self_time

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, f)
