"""Summary statistics and the per-module metrics of a traced pass."""

import hashlib
from pathlib import Path

from . import trace


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Rank r (1-based, in
    ascending order) has n - r samples beyond it, so the rank is n - 10.
    With ten samples or fewer no rank qualifies, and the largest sample
    is reported (percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    r = n - 10 if n > 10 else n
    return xs[r - 1], 100.0 * r / n, n


def best_per_job(passes):
    """Each job's fastest latency over the passes of a run.

    ``passes`` holds one list of latencies per pass, in job-list order.
    The host shares its cores: each vCPU runs about 1.6 times slower for
    seconds at a time.  A median over single runs flips between the two
    speeds, while the fastest of several runs of the same job measures
    the program at the host's undisturbed speed."""
    return [min(runs) for runs in zip(*passes, strict=True)]


def parse_importtime(text):
    """Seconds spent importing numpy, and importing geomlim without
    numpy, from ``python -X importtime`` output (cumulative microseconds
    per module; top-level modules have no indentation)."""
    numpy_us = 0
    top_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        stripped = name.strip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        if stripped == "numpy":
            numpy_us = int(cumulative)
        if depth == 0 and stripped.split(".")[0] == "geomlim":
            top_us += int(cumulative)
    return numpy_us / 1e6, (top_us - numpy_us) / 1e6


def tree_digest(directory):
    """SHA-256 over the program's Python sources, a stand-in for the git
    revision when the checkout is not a repository."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, out_bytes, numpy_s, self_s):
    """The per-module metrics of one traced pass, as (value, unit)."""
    s = trace.summarize(tracer)
    zero = {"calls": 0, "busy_ns": 0, "self_ns": 0}
    calls = lambda n: s.get(n, zero)["calls"]  # noqa: E731
    busy = lambda n: s.get(n, zero)["busy_ns"] / 1e9  # noqa: E731
    own = lambda n: s.get(n, zero)["self_ns"] / 1e9  # noqa: E731
    c = tracer.counts.get
    m = {
        "algebra.mul.calls": (calls("algebra.mul"), "count"),
        "algebra.mul.busy_s": (busy("algebra.mul"), "s"),
    }
    for f in ("exp_delta", "det", "inverse", "u_lie_basis"):
        m["matrices.{}.busy_s".format(f)] = (busy("matrices." + f), "s")
    for f in ("psi_limit", "decode_partition", "eta"):
        m["limits.{}.busy_s".format(f)] = (busy("limits." + f), "s")
    m.update({
        "limits.flag_signature.calls": (calls("limits.flag_signature"),
                                        "count"),
        "limits.flag_signature.busy_s": (busy("limits.flag_signature"), "s"),
        "limits.limit_poset.busy_s": (busy("limits.limit_poset"), "s"),
        "limits.limit_poset.self_s": (own("limits.limit_poset"), "s"),
        "limits.is_limit_of.calls": (calls("limits.is_limit_of"), "count"),
        "limits.is_limit_of.accept_ratio": (_ratio(
            c("limits.is_limit_of.true", 0), calls("limits.is_limit_of")),
            "1"),
        "cells.enumerate_cells.busy_s": (busy("cells.enumerate_cells"), "s"),
        "cells.enumerate_cells.cells": (c("cells.enumerate_cells.items", 0),
                                        "count"),
        "cells.degeneration_relation.calls": (
            calls("cells.degeneration_relation"), "count"),
        "cells.degeneration_relation.busy_s": (
            busy("cells.degeneration_relation"), "s"),
        "cells.degeneration_relation.hit_ratio": (_ratio(
            c("cells.degeneration_relation.true", 0),
            calls("cells.degeneration_relation")), "1"),
        "regeneration.regenerate_trace.busy_s": (
            busy("regeneration.regenerate_trace"), "s"),
        "regeneration.regenerate_trace.self_s": (
            own("regeneration.regenerate_trace"), "s"),
        "regeneration.side_pairing.busy_s": (
            busy("regeneration.side_pairing"), "s"),
        "regeneration.geodesic_midpoint.calls": (
            calls("regeneration.geodesic_midpoint"), "count"),
        "regeneration.geodesic_midpoint.busy_s": (
            busy("regeneration.geodesic_midpoint"), "s"),
        "regeneration.model_distance.calls": (
            calls("regeneration.model_distance"), "count"),
        "regeneration.model_distance.per_midpoint": (_ratio(
            calls("regeneration.model_distance"),
            calls("regeneration.geodesic_midpoint")), "count"),
        "regeneration.dropped_ratio": (_ratio(
            c("regeneration.regenerate_trace.dropped", 0),
            c("regeneration.regenerate_trace.samples", 0)), "1"),
        "heisenberg.developing_map.calls": (
            calls("heisenberg.developing_map"), "count"),
        "heisenberg.developing_map.busy_s": (
            busy("heisenberg.developing_map"), "s"),
        "heisenberg.classify.calls": (calls("heisenberg.classify"), "count"),
        "heisenberg.classify.per_point": (_ratio(
            calls("heisenberg.classify"),
            calls("heisenberg.developing_map")), "count"),
        "cli.self_s": (own("cli.run"), "s"),
        "cli.out_bytes": (out_bytes, "B"),
        "cli.import_numpy_s": (numpy_s, "s"),
        "cli.import_self_s": (self_s, "s"),
    })
    return m
