"""The five workloads: fixed job lists whose inputs come from the seed.

Each workload loads some modules heavily and bypasses others, so that a
change to one module is predicted to move one workload and leave another
unchanged (see README.md in this directory for the predictions).

``combinatorics``, ``numerics`` and ``cli`` are lists of CLI invocations,
each a fresh process; ``readme`` is the valid jobs of ``cli`` driven
through ``cli.run(argv)`` in the benchmark process, and ``exact`` is a
list of in-process library calls.  One pass runs every job
of the list once; its composition does not depend on the seed, only the
inputs and the order do.
"""

import json

import numpy as np

from . import checks, gen

WORKLOADS = ("combinatorics", "numerics", "exact", "cli", "readme")
# Workloads whose jobs run in the benchmark process, not as CLI processes.
IN_PROCESS = ("exact", "readme")


class Job:
    """One unit of work and the check of its output.

    A CLI job has ``argv`` and ``check(stdout_text)``; a malformed CLI job
    must be refused by the README contract instead.  A library job has
    ``call()`` and ``check(result)``."""

    def __init__(self, label, argv=None, check=None, call=None,
                 malformed=False):
        self.label = label
        self.argv = argv
        self.check = check
        self.call = call
        self.malformed = malformed


class Inputs:
    """Writes job input files under the output directory."""

    def __init__(self, root):
        self.dir = root / "in"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def put(self, doc):
        self.count += 1
        path = self.dir / "job{}.json".format(self.count)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)


def _ref(key, kind, n=None):
    return lambda out: checks.check_reference(key, kind, out, n)


# -- combinatorics --------------------------------------------------------

# Sizes left out, with their cost at the seed on a 2-core machine:
# ``cells 7`` (38 s, 1.2 GB RSS, 118 MB of stdout) and ``poset 5 5``
# (186 s).  Each is too slow to repeat for every benchmark run.
COMBINATORICS = [
    ("cells 4 --poset", "cells_dot", 4),
    ("cells 5 --poset", "cells_dot", 5),
    ("poset 3 3", "poset", None),
    ("poset 3 4", "poset", None),
    ("poset 4 4", "poset", None),
    ("poset 4 4 --format dot", "poset_dot", None),
    ("cells 6", "cells", 6),
]


def _ref_key(cmd):
    return " ".join(w for w in cmd.split() if w not in ("--format", "dot"))


def combinatorics(rng, inputs):
    jobs = [Job(cmd, cmd.split(), _ref(_ref_key(cmd), kind, n))
            for cmd, kind, n in COMBINATORICS]
    rng.shuffle(jobs)
    return jobs


# -- numerics -------------------------------------------------------------

REGEN_GRID = "0:2:400"
HEIS_GRID = 129


def numerics(rng, inputs):
    t_grid = np.logspace(0, 2, 400)
    jobs = []
    for kind in ("hyperbolic", "sphere", "euclidean"):
        for fmt in ("json", "csv"):
            job = gen.regen_job(rng, kind)
            check = checks.check_regen_json if fmt == "json" \
                else checks.check_regen_csv
            jobs.append(Job(
                "regen {} {}".format(kind, fmt),
                ["regen", "--input", inputs.put(job), "--grid", REGEN_GRID,
                 "--format", fmt],
                lambda out, job=job, check=check: check(out, job, t_grid)))
    for fmt in ("csv", "svg"):
        rep, _ = gen.heis_rep(rng, "Shear")
        argv = ["heis", "dev", "--input", inputs.put(rep), "--format", fmt]
        if fmt == "csv":
            argv += ["--grid", "0:1:{}".format(HEIS_GRID)]
            check = (lambda out, rep=rep:
                     checks.check_heis_csv(out, rep, HEIS_GRID))
        else:
            check = lambda out, rep=rep: checks.check_heis_svg(out, rep)
        jobs.append(Job("heis dev " + fmt, argv, check))
    rng.shuffle(jobs)
    return jobs


# -- exact ----------------------------------------------------------------

EXP_NORM = 3.0


def _exact_matrix_jobs(rng):
    from geomlim import matrices
    jobs = []
    for n in range(2, 9):
        for delta in (-1.0, 0.0, 1.0):
            re, im = gen.matrix_pair(rng, n, EXP_NORM)
            X = matrices.AlgMatrix(re, im, delta)
            jobs.append(Job(
                "exp_delta n={} delta={:g}".format(n, delta),
                call=lambda X=X: matrices.exp_delta(X),
                check=lambda A, re=re, im=im, d=delta:
                    checks.check_exp(A, re, im, d)))
            re, im = gen.well_conditioned(rng, n)
            A = matrices.AlgMatrix(re, im, delta)
            jobs.append(Job(
                "det n={} delta={:g}".format(n, delta),
                call=lambda A=A: matrices.det(A),
                check=lambda x, re=re, im=im, d=delta:
                    checks.check_det(x, re, im, d)))
            jobs.append(Job(
                "inverse n={} delta={:g}".format(n, delta),
                call=lambda A=A: matrices.inverse(A),
                check=lambda B, re=re, im=im, d=delta:
                    checks.check_inverse(B, re, im, d)))
            jobs.append(Job(
                "u_lie_basis n={} delta={:g}".format(n, delta),
                call=lambda n=n, d=delta: matrices.u_lie_basis(n, d),
                check=lambda b, n=n, d=delta:
                    checks.check_u_lie_basis(b, n, d)))
    return jobs


def _limit_chain(path):
    from geomlim import limits
    L = limits.psi_limit(path)
    P = limits.decode_partition(L)
    return P, limits.eta(L), limits.flag_signature(P)


def _exact_limit_jobs(rng):
    from geomlim import limits
    jobs = []
    for n in range(3, 9):
        for blocks in range(1, 5):
            _, entries = gen.monomial_path(rng, n, blocks)
            path = limits.MonomialDiagonal(entries)
            jobs.append(Job(
                "limit chain n={}".format(n),
                call=lambda path=path: _limit_chain(path),
                check=lambda r, e=entries: checks.check_limit_chain(r, e)))
    return jobs


SCALARS = 64


def _scalar_ops(xs, ys):
    from geomlim import algebra
    out = []
    for x, y in zip(xs, ys):
        out.append((algebra.mul(x, y), algebra.conj(x), algebra.norm(x),
                    algebra.inv(x)))
    return out


def _check_scalar_ops(results, xs, ys):
    for (m, c, nrm, inv), x, y in zip(results, xs, ys, strict=True):
        as_dict = lambda s: {"re": s.re, "im": s.im, "delta": s.delta}
        a, b = as_dict(x), as_dict(y)
        checks.check_algebra("mul", json.dumps(as_dict(m)), a, b)
        checks.check_algebra("conj", json.dumps(as_dict(c)), a)
        checks.check_algebra("norm", json.dumps(nrm), a)
        checks.check_algebra("inv", json.dumps(as_dict(inv)), a)


def _exact_algebra_jobs(rng):
    from geomlim import algebra
    jobs = []
    for delta in (-1.0, 0.0, 1.0):
        xs, ys = ([algebra.AlgScalar(**gen.scalar(rng, delta))
                   for _ in range(SCALARS)] for _ in range(2))
        jobs.append(Job(
            "scalar ops delta={:g}".format(delta),
            call=lambda xs=xs, ys=ys: _scalar_ops(xs, ys),
            check=lambda r, xs=xs, ys=ys: _check_scalar_ops(r, xs, ys)))
    return jobs


def exact(rng, inputs):
    jobs = _exact_matrix_jobs(rng) + _exact_limit_jobs(rng) \
        + _exact_algebra_jobs(rng)
    rng.shuffle(jobs)
    return jobs


# -- cli ------------------------------------------------------------------

def _valid_cli_jobs(rng, inputs):
    jobs = []
    for _ in range(3):
        form, conj = gen.form_and_conj(rng)
        jobs.append(Job(
            "limit", ["limit", "--form=" + form, "--conj", conj],
            lambda out, f=form, c=conj: checks.check_limit(out, f, c)))
    jobs.append(Job("poset 1 3", ["poset", "1", "3"],
                    _ref("poset 1 3", "poset")))
    jobs.append(Job("poset 1 3 dot", ["poset", "1", "3", "--format", "dot"],
                    _ref("poset 1 3", "poset_dot")))
    jobs.append(Job("cells 3", ["cells", "3"], _ref("cells 3", "cells", 3)))
    jobs.append(Job("cells 3 --poset", ["cells", "3", "--poset"],
                    _ref("cells 3 --poset", "cells_dot", 3)))
    for klass in gen.HEIS_CLASSES:
        rep, want = gen.heis_rep(rng, klass)
        jobs.append(Job(
            "heis classify", ["heis", "classify", "--input", inputs.put(rep)],
            lambda out, r=rep, w=want: checks.check_heis_classify(out, r, w)))
    for _ in range(2):
        rep, _ = gen.heis_rep(rng, rng.choice(["Translation", "Shear"]))
        jobs.append(Job(
            "heis dev", ["heis", "dev", "--input", inputs.put(rep), "--grid",
                         "0:1:9"],
            lambda out, r=rep: checks.check_heis_csv(out, r, 9)))
    job = gen.README_REGEN
    jobs.append(Job(
        "regen", ["regen", "--input", inputs.put(job), "--format", "json"],
        lambda out: checks.check_regen_json(out, job, job["t_grid"])))
    for op in ("mul", "conj", "norm", "inv"):
        delta = rng.choice([-1.0, 0.0, 1.0, 2.0])
        a, b = gen.scalar(rng, delta), gen.scalar(rng, delta)
        argv = ["algebra", op, "--a", json.dumps(a)]
        if op == "mul":
            argv += ["--b", json.dumps(b)]
        jobs.append(Job(
            "algebra " + op, argv,
            lambda out, op=op, a=a, b=b: checks.check_algebra(op, out, a, b)))
    delta = rng.choice([0.5, 1.0, 2.0, 4.0])
    jobs.append(Job(
        "algebra idempotents",
        ["algebra", "idempotents", "--delta", str(delta)],
        lambda out, d=delta: checks.check_algebra("idempotents", out,
                                                  delta=d)))
    return jobs


def _malformed_cli_jobs(rng, inputs):
    """Invalid inputs from the README grammar, one of each kind.  The
    README promises exit 2 with a JSON error for every one of them."""
    form, conj = gen.form_and_conj(rng)
    good_rep, _ = gen.heis_rep(rng, "Shear")
    bad_rep = dict(good_rep, y=[good_rep["x"][1] + 1, good_rep["x"][0]])
    flat_rep, _ = gen.heis_rep(rng, "NotFaithful")
    a = gen.scalar(rng, -1.0)
    off_centre = gen.regen_job(rng, "hyperbolic")
    off_centre["vertices"][2][0] += 0.125
    off_centre["t_grid"] = [10, 100, 1000]
    slow_path = gen.regen_job(rng, "sphere")
    slow_path["D_path"] = "t,t^2,1"
    slow_path["t_grid"] = [10, 100, 1000]
    cases = [
        ["limit", "--form", "1,0,1", "--conj", conj],
        ["limit", "--form", "1,a,1"],
        ["limit", "--form=" + form, "--conj", "t^1/0,t,1"],
        ["limit", "--form=" + form, "--conj", "t^x,t,1"],
        ["limit", "--form=" + form, "--conj", "t^2,t"],
        ["poset", "0", "3"],
        ["cells", "1"],
        ["cells", "x"],
        ["heis", "classify", "--input", inputs.put(bad_rep)],
        ["heis", "dev", "--input", inputs.put(flat_rep)],
        ["heis", "dev", "--input", inputs.put(good_rep), "--grid", "0:1"],
        ["regen", "--input", inputs.put(off_centre)],
        ["regen", "--input", inputs.put(slow_path)],
        ["algebra", "mul", "--a", json.dumps(a), "--b",
         json.dumps(dict(a, delta=1.0))],
        ["algebra", "mul", "--a", json.dumps(dict(a, re="x")), "--b",
         json.dumps(a)],
        ["algebra", "inv", "--a", json.dumps(dict(a, re=0.0, im=0.0))],
        ["algebra", "idempotents", "--delta", "-1"],
    ]
    return [Job("invalid " + argv[0], argv, malformed=True) for argv in cases]


def cli(rng, inputs):
    jobs = _valid_cli_jobs(rng, inputs) + _valid_cli_jobs(rng, inputs) \
        + _malformed_cli_jobs(rng, inputs)
    rng.shuffle(jobs)
    return jobs


def readme(rng, inputs):
    """The valid jobs of ``cli``, for in-process runs: without interpreter
    start-up each takes milliseconds, so a run holds a hundred passes."""
    jobs = _valid_cli_jobs(rng, inputs) + _valid_cli_jobs(rng, inputs)
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"combinatorics": combinatorics, "numerics": numerics,
            "exact": exact, "cli": cli, "readme": readme}
