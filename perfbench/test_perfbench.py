"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from geomlim import (algebra, cells, cli, heisenberg, limits,  # noqa: E402
                     matrices, regeneration)
from perfbench import checks, gen, stats, trace  # noqa: E402

SEEDS = range(25)


# -- tail percentile ------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct, count = stats.tail(reversed(xs))
    assert count == n
    assert sum(1 for x in xs if x > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_highest_such_percentile():
    xs = list(range(100))
    value, _, _ = stats.tail(xs)
    assert value == 89  # 90 ... 99 lie beyond it
    assert sum(1 for x in xs if x > value + 1) < 10


@pytest.mark.parametrize("n", [1, 7, 10])
def test_tail_with_ten_samples_or_fewer_is_the_largest(n):
    xs = [3.0 + i for i in range(n)]
    assert stats.tail(reversed(xs)) == (xs[-1], 100.0, n)


def test_best_per_job_takes_each_jobs_fastest_pass():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [2.5, 1.5, 4.5]]
    assert stats.best_per_job(passes) == [2.0, 1.0, 4.5]
    assert stats.best_per_job(passes[:1]) == passes[0]


def test_best_per_job_needs_the_same_jobs_in_every_pass():
    with pytest.raises(ValueError):
        stats.best_per_job([[1.0, 2.0], [1.0]])


def test_timed_passes_makes_the_minimum_number_of_passes():
    from perfbench import run
    from perfbench.workloads import Job

    jobs = [Job("noop", check=lambda out: None)]
    runner = lambda job: run.Outcome(job.label, 0.0, 0.0, 0, "", "")  # noqa
    passes = run.timed_passes(jobs, runner, 0.0, time.monotonic() + 60,
                              lambda: None)
    assert len(passes) == run.MIN_PASSES
    assert [o.failure for p in passes for o in p] == [None] * run.MIN_PASSES


# -- self time ------------------------------------------------------------

def spans(*rows):
    t = trace.Tracer()
    for name, start, end, parent in rows:
        t.record(name, start, end, parent)
    return t


def test_self_time_of_nested_spans():
    t = spans(("a", 0, 100, -1),       # 0
              ("b", 10, 30, 0),        # 1
              ("c", 40, 60, 0),        # 2
              ("d", 45, 50, 2),        # 3: grandchild of a
              ("e", 200, 210, -1))     # 4
    a = t.arrays()
    got = trace.self_times(a["start"].tolist(), a["end"].tolist(),
                           a["parent"].tolist())
    assert got == [60, 20, 15, 5, 10]


def test_self_time_counts_overlapping_children_once():
    t = spans(("a", 0, 100, -1), ("b", 10, 30, 0), ("c", 20, 40, 0),
              ("d", 35, 38, 0), ("e", 90, 120, 0))
    a = t.arrays()
    got = trace.self_times(a["start"].tolist(), a["end"].tolist(),
                           a["parent"].tolist())
    assert got[0] == 100 - 30 - 10  # [10, 40] and the clipped [90, 100]


def test_summary_counts_recursion_once():
    t = spans(("f", 0, 100, -1), ("f", 10, 50, 0), ("g", 20, 30, 1))
    s = trace.summarize(t)
    assert s["f"] == {"calls": 2, "busy_ns": 100, "self_ns": 60 + 30}
    assert s["g"] == {"calls": 1, "busy_ns": 10, "self_ns": 10}


def test_wrappers_record_parents_and_are_removed():
    modules = {"algebra": algebra, "matrices": matrices, "limits": limits,
               "cells": cells, "regeneration": regeneration,
               "heisenberg": heisenberg, "cli": cli}
    original = limits.decode_partition
    t = trace.Tracer()
    t.install(modules)
    try:
        assert cells.flag_signature.__wrapped__ is \
            limits.flag_signature.__wrapped__
        path = limits.MonomialDiagonal([(1, 2), (2, 1), (-1, 1)])
        limits.eta(limits.psi_limit(path))
        cells.enumerate_cells(3)[0].signature()
    finally:
        t.uninstall()
    assert limits.decode_partition is original
    names = [t.names[i] for i in t.name]
    assert names == ["limits.psi_limit", "limits.eta",
                     "limits.decode_partition", "cells.enumerate_cells",
                     "limits.flag_signature"]
    assert list(t.parent) == [-1, -1, 1, -1, -1]
    assert t.counts["cells.enumerate_cells.items"] == 22


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2000 |     120000 |       numpy",
        "import time:       500 |     125000 |   geomlim",
        "import time:      1000 |     140000 | geomlim.cli",
        "import time:        10 |         10 | site",
    ])
    numpy_s, self_s = stats.parse_importtime(text)
    assert numpy_s == pytest.approx(0.12)
    assert self_s == pytest.approx(0.02)


# -- generated inputs -----------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_heis_reps_commute_and_have_their_class(seed):
    rng = gen.stream(seed, "test")
    for klass in gen.HEIS_CLASSES:
        doc, want = gen.heis_rep(rng, klass)
        r = heisenberg.HeisRep(doc["x"], doc["y"], doc["z"])
        assert r.bracket() == 0
        assert heisenberg.classify(r) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_regen_jobs_are_valid(seed):
    rng = gen.stream(seed, "test")
    for kind in regeneration.KINDS:
        job = gen.regen_job(rng, kind)
        regeneration.Parallelogram(job["vertices"])
        path = cli.parse_monomial_path(job["D_path"])
        assert regeneration.heisenberg_criterion(path)
        assert max(abs(v) for p in job["vertices"] for v in p) < 0.5


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_forms_and_scalars_are_valid(seed):
    rng = gen.stream(seed, "test")
    for n in range(3, 9):
        for blocks in range(1, 5):
            text, entries = gen.monomial_path(rng, n, blocks)
            assert cli.parse_monomial_path(text).entries == \
                limits.MonomialDiagonal(entries).entries
            assert len({e for _, e in entries}) == min(n, blocks)
    form, conj = gen.form_and_conj(rng)
    assert all(float(v) != 0 for v in form.split(","))
    assert cli.parse_monomial_path(conj).n == 3
    for delta in (-1.0, 0.0, 1.0, 2.0):
        x = algebra.AlgScalar(**gen.scalar(rng, delta))
        assert not algebra.is_zero_divisor(x)
    for n in range(2, 9):
        for delta in (-1.0, 0.0, 1.0):
            re, im = gen.well_conditioned(rng, n)
            matrices.inverse(matrices.AlgMatrix(re, im, delta))


def test_generators_repeat_for_a_seed():
    a = [gen.regen_job(gen.stream(7, "x"), "sphere") for _ in range(2)]
    b = gen.regen_job(gen.stream(8, "x"), "sphere")
    assert a[0] == a[1] != b


def test_readme_is_the_valid_jobs_of_cli(tmp_path):
    from perfbench import workloads

    inputs = workloads.Inputs(tmp_path)
    readme = workloads.readme(gen.stream(3, "readme"), inputs)
    every = workloads.cli(gen.stream(3, "cli"), inputs)
    assert not any(job.malformed for job in readme)
    assert sorted(job.label for job in readme) == sorted(
        job.label for job in every if not job.malformed)


# -- checks ---------------------------------------------------------------

def test_cell_count_closed_form_matches_recursion():
    for n in range(2, 9):
        assert checks.cell_counts(n) == cells.closure_cell_counts(n)


def test_regen_oracle_rejects_a_perturbed_pairing():
    job = dict(gen.README_REGEN)
    trace_ = regeneration.regenerate_trace(
        job["kind"], cli.parse_monomial_path(job["D_path"]),
        regeneration.Parallelogram(job["vertices"]), [10.0])
    A, B = trace_["samples"][0]["A"], trace_["samples"][0]["B"]
    D = [100.0, 10.0, 1.0]
    V = regeneration.Parallelogram(job["vertices"]).vertices
    checks.check_pairing("hyperbolic", D, V, A, B)
    with pytest.raises(checks.CheckFailed):
        checks.check_pairing("hyperbolic", D, V, A * [1, 1, 1.001], B)
