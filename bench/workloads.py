"""Workloads of the curvkit benchmark: instance generation and checked ops.

Instances are generated from the workload seed with curvkit's own
generators during set-up; the timed ops receive only the generated tensors
(library workloads) or files (``cli_io``).  Every op is checked, and a failed
check is counted, never dropped.
"""

import json
import os
import sys
import time

import numpy as np

import curvkit.serialize as io
import curvkit.zeroset as zs
from curvkit import (
    QuadraticForm,
    Rng,
    SquareDecomposition,
    graph_curvature,
    hsc_numerator_form,
    isotropic_bound,
    random_symmetric_with_rank,
    recover,
)

# verify_point's `seed` (the library default) in every op.  The workload seed
# picks the instances; the search seed stays fixed so that the eta metrics
# compare one search across instance draws.  Another search seed can change a
# bracket: at 16 trials, seed 6 finds only [5, 6] on the unrotated sharp (9,2)
# model, which inexact_search reports in its eta metrics, not as a failure.
SEARCH_SEED = 0
# verify_point's `trials` in inexact_search: small enough for several passes
# over the instance set in one run, large enough that eta_lower_search takes
# most of each op.
INEXACT_TRIALS = 16
# `bound --trials` in cli_io
CLI_TRIALS = 8
# random one-sided systems (n, N) of inexact_search, two of each drawn from
# the seed: op costs vary between draws, and two draws per shape make the
# tail percentile depend less on one draw
INEXACT_RANDOM = ((4, 2), (6, 3), (7, 2), (9, 4), (11, 3), (12, 2))
# (n, N) of the random systems Rng(11, stream=100 n + N) on which the greedy
# search stays below the expected dimension; pinned, not drawn from the seed
UNDERSHOOT = ((8, 2), (10, 2), (10, 3), (8, 4))


class Failure(Exception):
    """An op gave a wrong result."""


class LibraryOp:
    """One certified point: ``verify_point`` on a generated tensor.

    `expected_eta` is the known zero-set dimension (the bracket must then be
    exact and equal to it), or None when only soundness is checked.  `trials`
    None is the library default.
    """

    def __init__(self, label, curv, expected_eta, trials=None):
        self.label = label
        self.curv = curv
        self.form = hsc_numerator_form(curv)
        self.expected_eta = expected_eta
        self.kwargs = {"seed": SEARCH_SEED}
        if trials is not None:
            self.kwargs["trials"] = trials
        self._checked_witness = None

    def run(self, tracer=None):
        """Returns ``(report, None)``: the op runs in this process, whose own
        peak RSS is the memory metric."""
        return zs.verify_point(self.curv, **self.kwargs), None

    def check(self, report):
        """Raises Failure on a wrong result; returns (lower, upper, exact)."""
        cert = report.eta
        if not cert.lower <= cert.upper:
            raise Failure(f"{self.label}: inverted bracket [{cert.lower}, {cert.upper}]")
        if self.expected_eta is not None and not (
            cert.exact and cert.lower == self.expected_eta
        ):
            raise Failure(
                f"{self.label}: bracket [{cert.lower}, {cert.upper}],"
                f" expected exact eta = {self.expected_eta}"
            )
        # an identical witness passes again, so only a new one is re-checked,
        # on directions other than those verify_point sampled
        basis = cert.witness.basis
        if self._checked_witness is None or not np.array_equal(basis, self._checked_witness):
            try:
                zs.check_certificate(self.form, cert.witness, seed=SEARCH_SEED + 1)
            except Exception as exc:  # any raise from the check is a failed op
                raise Failure(f"{self.label}: witness rejected: {exc}") from exc
            self._checked_witness = basis
        return cert.lower, cert.upper, cert.exact


def exact_grid(seed, workdir):
    """Theta graph-metric models (full and deficient rank) and local-sharp
    models (N = 1..4), n = 2..12; every bracket is exact."""
    ops = []
    for n in range(2, 13):
        f = random_symmetric_with_rank(n, n, Rng(seed, stream=n))
        ops.append(LibraryOp(f"theta n={n}", graph_curvature([f.matrix], -1), n // 2))
        if n >= 3:
            rank = (2 * n) // 3
            f = random_symmetric_with_rank(n, rank, Rng(seed, stream=100 + n))
            ops.append(
                LibraryOp(
                    f"theta n={n} rank={rank}",
                    graph_curvature([f.matrix], -1),
                    isotropic_bound(n, rank),
                )
            )
        big_n = 1 + n % 4
        dec, meta = zs.local_sharp_example(n, big_n)
        ops.append(LibraryOp(f"local-sharp n={n} N={big_n}", recover(dec), meta["eta"]))
    return ops


def _one_sided(n, big_n, rng):
    quads = tuple(QuadraticForm(rng.symmetric(n)) for _ in range(big_n))
    return recover(SquareDecomposition(n, pos=quads))


def inexact_search(seed, workdir):
    """Random one-sided multi-quadric systems, the pinned undershoot systems,
    and the sharp (9,2) model in its own chart and rotated by
    ``Rng(99).unitary(9)``, at a pinned trial budget."""
    ops = []
    for draw in range(2):
        for n, big_n in INEXACT_RANDOM:
            curv = _one_sided(n, big_n, Rng(seed, stream=10000 * draw + 100 * n + big_n))
            ops.append(LibraryOp(f"random n={n} N={big_n} #{draw}", curv, None, INEXACT_TRIALS))
    for n, big_n in UNDERSHOOT:
        curv = _one_sided(n, big_n, Rng(11, stream=100 * n + big_n))
        ops.append(LibraryOp(f"undershoot n={n} N={big_n}", curv, None, INEXACT_TRIALS))
    dec, meta = zs.local_sharp_example(9, 2)
    ops.append(LibraryOp("sharp n=9 N=2", recover(dec), None, INEXACT_TRIALS))
    u = Rng(99).unitary(9)
    rotated = tuple(QuadraticForm(u.T @ q.matrix @ u) for q in dec.pos)
    ops.append(
        LibraryOp(
            "sharp n=9 N=2 rotated",
            recover(SquareDecomposition(9, pos=rotated)),
            None,
            INEXACT_TRIALS,
        )
    )
    return ops


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("CURVKIT_TOL", None)
    return env


class CliOp:
    """One fresh CLI process; its stdout (or output file) is compared with
    bytes computed in-process during set-up."""

    def __init__(self, root, workdir, label, args, expect, out_file=None):
        self.root = root
        self.workdir = workdir
        self.label = label
        self.args = args
        self.expect = expect
        self.out_file = out_file
        self.env = _child_env(root)

    def run(self, tracer=None):
        """Spawns the process and waits for it.  With a tracer the child is
        cli_child.py, whose spans are merged under a ``cli.process`` span.
        Returns ``((status, stdout, stderr), peak_rss_kb)``."""
        stdout = os.path.join(self.workdir, "stdout")
        stderr = os.path.join(self.workdir, "stderr")
        if tracer is None:
            argv = [sys.executable, "-m", "curvkit", *self.args]
            env = self.env
        else:
            spans_path = os.path.join(self.workdir, "child_spans.json")
            argv = [sys.executable, os.path.join(self.root, "bench", "cli_child.py"), *self.args]
            env = dict(self.env, BENCH_SPANS=spans_path)
            root = tracer.open("cli.process")
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        spawned = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        if tracer is not None:
            tracer.close(root, failed=status != 0)
            self._merge_child_spans(tracer, root, spawned, spans_path)
        with open(stdout, "rb") as fh:
            out = fh.read()
        with open(stderr, "rb") as fh:
            err = fh.read()
        return (os.waitstatus_to_exitcode(status), out, err), usage.ru_maxrss

    @staticmethod
    def _merge_child_spans(tracer, root, spawned, path):
        try:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            return
        os.remove(path)
        tracer.record("cli.start", spawned, child["t0"], root)
        base = len(tracer.spans)
        for s in child["spans"]:
            parent = root if s["parent"] < 0 else base + s["parent"]
            tracer.record(s["name"], s["start"], s["end"], parent, s["failed"])

    def check(self, result):
        code, out, err = result
        if code != 0:
            raise Failure(f"{self.label}: exit code {code}: {err.decode(errors='replace')[-300:]}")
        if self.out_file is not None:
            with open(self.out_file, "rb") as fh:
                out = fh.read()
        return self.expect(self.label, out)


def _same_bytes(reference, eta=None):
    """Output must equal `reference`; the op's bracket is `eta`, if any."""

    def expect(label, out):
        if out != reference:
            raise Failure(f"{label}: output differs from the in-process result")
        return eta

    return expect


def _field(key, value):
    def expect(label, out):
        try:
            doc = json.loads(out)
        except ValueError as exc:
            raise Failure(f"{label}: stdout is not JSON") from exc
        if doc.get(key) != value:
            raise Failure(f"{label}: {key} = {doc.get(key)!r}, expected {value!r}")
        return None

    return expect


def cli_io(seed, workdir):
    """Fresh ``python -m curvkit`` processes: ``gen theta --n 12`` writes
    alternate with ``validate``/``kernel`` reads of n=8 and n=12 tensor files,
    and a ``bound --trials 8`` pipeline run closes each cycle."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = {}
    for n in (8, 12):
        f = random_symmetric_with_rank(n, n, Rng(seed, stream=n))
        path = os.path.join(workdir, f"theta{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(io.dumps(io.tensor_to_dict(graph_curvature([f.matrix], -1))))
        files[n] = path
    gen_seed = seed + 1
    f = random_symmetric_with_rank(12, 12, Rng(gen_seed))
    gen_ref = io.dumps(io.tensor_to_dict(graph_curvature([f.matrix], -1))).encode()
    curv8 = io.tensor_from_dict(io.load_path(files[8]))
    report = zs.verify_point(curv8, None, trials=CLI_TRIALS, seed=SEARCH_SEED, tol=1e-9)
    bound_ref = io.dumps(io.point_report_to_dict(report)).encode()

    gen_path = os.path.join(workdir, "gen.json")

    def gen():
        args = ["gen", "theta", "--n", "12", "--seed", str(gen_seed), "-o", gen_path]
        return CliOp(root, workdir, "gen theta n=12", args, _same_bytes(gen_ref), gen_path)

    def read(cmd, n):
        expect = _field("valid", True) if cmd == "validate" else _field("n_R", n)
        return CliOp(root, workdir, f"{cmd} n={n}", [cmd, files[n]], expect)

    bound = CliOp(
        root,
        workdir,
        "bound n=8",
        ["bound", files[8], "--trials", str(CLI_TRIALS), "--seed", str(SEARCH_SEED)],
        _same_bytes(bound_ref, (report.eta.lower, report.eta.upper, report.eta.exact)),
    )
    return [
        gen(), read("validate", 8),
        gen(), read("kernel", 8),
        gen(), read("validate", 12),
        gen(), read("kernel", 12),
        gen(), bound,
    ]
