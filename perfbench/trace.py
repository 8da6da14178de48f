"""Outside-in tracing: spans around the public functions of each module.

The program is not modified.  ``Tracer.install`` replaces module
attributes with wrappers, under every name a caller looks the function up
by (``cells`` imports ``flag_signature`` by name, so both
``limits.flag_signature`` and ``cells.flag_signature`` are wrapped; both
record spans named ``limits.flag_signature``).  Spans stay in memory in
flat arrays and are written out once, at the end of the run.
"""

from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute) -> span name.  Attributes that another module
# imported by name appear once per importing module.
WRAPPED = {
    ("algebra", "mul"): "algebra.mul",
    ("algebra", "conj"): "algebra.conj",
    ("algebra", "norm"): "algebra.norm",
    ("algebra", "inv"): "algebra.inv",
    ("algebra", "idempotents"): "algebra.idempotents",
    ("matrices", "exp_delta"): "matrices.exp_delta",
    ("matrices", "det"): "matrices.det",
    ("matrices", "inverse"): "matrices.inverse",
    ("matrices", "u_lie_basis"): "matrices.u_lie_basis",
    ("limits", "psi_limit"): "limits.psi_limit",
    ("limits", "decode_partition"): "limits.decode_partition",
    ("limits", "eta"): "limits.eta",
    ("limits", "flag_signature"): "limits.flag_signature",
    ("cells", "flag_signature"): "limits.flag_signature",
    ("limits", "classify_limit_group_3d"): "limits.classify_limit_group_3d",
    ("limits", "conjugacy_to_form_path"): "limits.conjugacy_to_form_path",
    ("limits", "is_limit_of"): "limits.is_limit_of",
    ("limits", "limit_poset"): "limits.limit_poset",
    ("cells", "enumerate_cells"): "cells.enumerate_cells",
    ("cells", "degeneration_relation"): "cells.degeneration_relation",
    ("cells", "closure_cell_counts"): "cells.closure_cell_counts",
    ("regeneration", "regenerate_trace"): "regeneration.regenerate_trace",
    ("regeneration", "side_pairing"): "regeneration.side_pairing",
    ("regeneration", "geodesic_midpoint"): "regeneration.geodesic_midpoint",
    ("regeneration", "model_distance"): "regeneration.model_distance",
    ("heisenberg", "classify"): "heisenberg.classify",
    ("heisenberg", "developing_map"): "heisenberg.developing_map",
    ("heisenberg", "is_representation"): "heisenberg.is_representation",
    ("heisenberg", "teichmuller_coords"): "heisenberg.teichmuller_coords",
    ("cli", "run"): "cli.run",
}


def _true_results(tracer, name, result):
    if result is True:
        tracer.count(name + ".true")


def _list_length(tracer, name, result):
    tracer.count(name + ".items", len(result))


def _dropped_samples(tracer, name, result):
    samples = result["samples"]
    tracer.count(name + ".samples", len(samples))
    tracer.count(name + ".dropped", sum(1 for s in samples if "error" in s))


# Result observers: counts taken at the same boundary as the span.
OBSERVE = {
    "limits.is_limit_of": _true_results,
    "cells.degeneration_relation": _true_results,
    "cells.enumerate_cells": _list_length,
    "regeneration.regenerate_trace": _dropped_samples,
}


class Tracer:
    """Span recorder.  Each span is (name, start, end, parent, job); the
    parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.counts = {}
        self._stack = [-1]
        self.job_id = -1
        self._saved = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def record(self, name, start, end, parent=-1, job=-1):
        """Append a finished span (used by tests and for spans timed by
        the caller); returns its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.start) - 1

    def wrap(self, name, fn):
        nid = self.name_id(name)
        observe = OBSERVE.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every listed attribute of the given ``{name: module}``."""
        for (mod, attr), name in WRAPPED.items():
            m = modules[mod]
            fn = getattr(m, attr)
            self._saved.append((m, attr, fn))
            setattr(m, attr, self.wrap(name, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved = []

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the part of it its child spans cover
    (the union of the children's intervals, clipped to the span).

    Spans are in the order they began, so children of one parent arrive
    sorted by start and their union is built in one pass."""
    n = len(start)
    covered = [0] * n
    reach = [None] * n  # end of the union covered so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        if reach[p] is not None:
            lo = max(lo, reach[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer):
    """Per span name: calls, busy time (outermost spans of that name
    only, so recursion is not double counted) and self time, in ns."""
    a = tracer.arrays()
    name, start, end, parent = (a[k].tolist()
                                for k in ("name", "start", "end", "parent"))
    selfs = self_times(start, end, parent)
    out = {n: {"calls": 0, "busy_ns": 0, "self_ns": 0} for n in tracer.names}
    for i in range(len(name)):
        s = out[tracer.names[name[i]]]
        s["calls"] += 1
        s["self_ns"] += selfs[i]
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            s["busy_ns"] += end[i] - start[i]
    return out


def calls_by_job(tracer):
    """Span counts per (job id, name)."""
    a = tracer.arrays()
    out = {}
    for j, nid in zip(a["job"].tolist(), a["name"].tolist()):
        key = (j, tracer.names[nid])
        out[key] = out.get(key, 0) + 1
    return out
