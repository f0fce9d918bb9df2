"""curvkit benchmark: certified points per second, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload exact_grid --seed 1 --seconds 35 --trace 0

Each workload is a closed loop in one process: the next op starts when the
previous one has finished.  BLAS runs on one thread.  With ``--trace 0`` the
last line of stdout holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, measured from spans that wrap
curvkit's public functions from outside the package.  The line before it is
an ``info`` record: environment, tail percentile and sample counts, set-up
samples and the first failures.  See bench/README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


# Pin BLAS to one thread before numpy is imported, here and (through the
# inherited environment) in every CLI child.  A different value already set
# would make the figures incomparable, so the run refuses instead.
_overridden = {v: os.environ[v] for v in THREAD_VARS if os.environ.get(v, "1") != "1"}
if _overridden:
    _fail(f"refusing to run with thread variables overridden: {_overridden}")
os.environ.update({v: "1" for v in THREAD_VARS})
if not os.path.isfile(os.path.join(ROOT, "src", "curvkit", "__init__.py")):
    _fail(f"no curvkit sources under {os.path.join(ROOT, 'src')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import curvkit  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(curvkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    _fail(f"curvkit was imported from {curvkit.__file__}, not from this checkout")

# Per workload: instance builder and the fixed tail percentile.  Each
# percentile leaves at least ten samples beyond it in a 35 s run of the seed
# commit (see bench/README.md).
WORKLOADS = {
    "exact_grid": (workloads.exact_grid, 98),
    "inexact_search": (workloads.inexact_search, 85),
    "cli_io": (workloads.cli_io, 80),
}
SETUP_SAMPLES = 3
MAX_FAILED = 1000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh process and print the set-up time
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name, seed, workdir):
    """Instances for the workload, then one warm-up op."""
    ops = WORKLOADS[name][0](seed, workdir)
    try:
        ops[0].run()
    except Exception:  # the timed loop runs this op again and counts it
        pass
    return ops


def _probe_setup(args):
    """Set-up time of a fresh process running this script's set-up, with the
    host factor measured right after it."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--probe-setup",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Runs ops in a closed loop and keeps the outcome of each."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few messages
        self.brackets = {}
        self.rss_kb = 0

    def step(self, i, tracer=None):
        """Runs op ``i % len(ops)`` once, checks it, returns its wall time."""
        op = self.ops[i % len(self.ops)]
        self.attempted += 1
        if tracer is not None:
            tracer.op = i
            if not isinstance(op, workloads.CliOp):
                tracer.install()
        start = time.perf_counter()
        try:
            result, rss_kb = op.run(tracer)
        except Exception as exc:  # an op that raises counts as failed
            self._fail(f"{op.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if rss_kb is not None:
            self.rss_kb = max(self.rss_kb, rss_kb)
        try:
            bracket = op.check(result)
        except workloads.Failure as exc:
            self._fail(str(exc))
            return elapsed
        if bracket is not None:
            first = self.brackets.setdefault(i % len(self.ops), bracket)
            if first != bracket:
                self._fail(f"{op.label}: bracket {bracket} differs from {first}")
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def _running(loop, spent, i, seconds):
    """Whole passes over the instances, at least one, for about `seconds` of
    op time: the next pass starts only while more than half a pass of time
    is left.  So every instance weighs the same in every metric.  A run whose
    ops keep failing stops early, as its result is wrong anyway."""
    passes, rest = divmod(i, len(loop.ops))
    if loop.failed >= MAX_FAILED:
        return False
    return rest > 0 or passes == 0 or spent * (1 + 0.5 / passes) < seconds


def _run_plain(loop, seconds):
    """Op wall times, and per pass the host factor: the nominal reference
    time over the median reference time measured during that pass."""
    times, factors, refs, spent, since, i = [], [], [], 0.0, 0.0, 0
    while _running(loop, spent, i, seconds):
        times.append(loop.step(i))
        spent += times[-1]
        since += times[-1]
        i += 1
        end_of_pass = i % len(loop.ops) == 0
        if since >= hostspeed.EVERY_S or end_of_pass:
            refs.append(hostspeed.reference_s())
            since = 0.0
        if end_of_pass:
            factors.append(hostspeed.NOMINAL_S / statistics.median(refs))
            refs = []
    if refs or not factors:  # a run cut short by failures
        refs.append(hostspeed.reference_s())
        factors.append(hostspeed.NOMINAL_S / statistics.median(refs))
    return times, factors


def _run_traced(loop, seconds):
    """Alternates untraced and traced runs of each op, swapping which goes
    first, so both see the same instances and the same cache state."""
    tracer = tracing.Tracer()
    plain, traced, spent, i = [], [], 0.0, 0
    while _running(loop, spent, i, seconds):
        if i % 2 == 0:
            plain.append(loop.step(i))
            traced.append(loop.step(i, tracer))
        else:
            traced.append(loop.step(i, tracer))
            plain.append(loop.step(i))
        spent += plain[-1] + traced[-1]
        i += 1
    return tracer, plain, traced


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _end_to_end(name, loop, raw, factors, setup_samples):
    """End-to-end metrics; op times are corrected for the host's speed."""
    pct = WORKLOADS[name][1]
    n = len(loop.ops)
    times = [t * factors[min(k // n, len(factors) - 1)] for k, t in enumerate(raw)]
    brackets = list(loop.brackets.values())
    lower = sum(b[0] for b in brackets)
    upper = sum(b[1] for b in brackets)
    if name == "cli_io":
        rss_mb = loop.rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup_samples), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (_percentile(times, pct) * 1e3, "ms"),
        "eta_lower_share": (lower / upper if upper else 0.0, "ratio"),
        "eta_exact_ratio": (sum(b[2] for b in brackets) / len(brackets) if brackets else 0.0, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "tail_percentile": pct,
        "samples": len(times),
        "samples_beyond_tail": sum(t > _percentile(times, pct) for t in times),
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": _percentile(raw, pct) * 1e3,
        },
        "pass_s": [sum(raw[k : k + n]) for k in range(0, len(raw), n)],
        "host_factors": factors,
        "fail_ratio": loop.failed / loop.attempted,
        "eta_gap_mean": (upper - lower) / len(brackets) if brackets else None,
        "instances": len(loop.ops),
        "setup_samples": setup_samples,
    }
    return metrics, info


def _per_layer(name, seed, tracer, plain, traced):
    roots = [s for s in tracer.spans if s[3] < 0]
    wall = sum(s[2] - s[1] for s in roots)
    metrics = tracing.layer_metrics(tracer.spans, len(roots), wall)
    root_self = sum(own for s, own in zip(tracer.spans, tracing.self_times(tracer.spans)) if s[3] < 0)
    metrics["trace_overhead"] = (1.0 - sum(plain) / sum(traced), "ratio")
    metrics["span_coverage"] = (1.0 - root_self / wall, "ratio")
    path = os.path.join(ROOT, ".bench_work", f"spans_{name}_seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_dicts(), fh)
    info = {"traced_ops": len(roots), "spans": len(tracer.spans), "spans_file": os.path.relpath(path, ROOT)}
    return metrics, info


def main(argv=None):
    args = _parse(argv)
    workdir = os.path.join(ROOT, ".bench_work", f"run_{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = _setup(args.workload, args.seed, workdir)
        own_setup = (time.perf_counter() - T0, hostspeed.factor())
        if args.probe_setup:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        loop = Loop(ops)
        if args.trace:
            tracer, plain, traced = _run_traced(loop, args.seconds)
            metrics, info = _per_layer(args.workload, args.seed, tracer, plain, traced)
        else:
            setup_samples = [own_setup] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            times, factors = _run_plain(loop, args.seconds)
            metrics, info = _end_to_end(args.workload, loop, times, factors, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, failures=loop.failures, env=_environment())
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
