"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: the tracer replaces the module
attributes through which curvkit's own modules call each other (for example
``curvkit.zeroset.curvature_kernel``) with timing wrappers, so a call made
inside another traced call becomes its child span.  Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` puts every original back.
"""

import functools
import statistics
import sys
import time

# (module, attribute) pairs to wrap: every name a calling module looks up to
# reach a public function of another layer.  The span is named after the
# function's own module, so ``curvkit.zeroset.nullspace`` and
# ``curvkit.curvature.nullspace`` both record ``quadric.nullspace``.
TARGETS = (
    ("curvkit.zeroset", "verify_point"),
    ("curvkit.zeroset", "eta_lower_search"),
    ("curvkit.zeroset", "eta_upper"),
    ("curvkit.zeroset", "check_certificate"),
    ("curvkit.zeroset", "hsc_numerator_form"),
    ("curvkit.zeroset", "signature"),
    ("curvkit.zeroset", "decompose"),
    ("curvkit.zeroset", "curvature_kernel"),
    ("curvkit.zeroset", "ricci"),
    ("curvkit.zeroset", "nullspace"),
    ("curvkit.zeroset", "max_isotropic"),
    ("curvkit.curvature", "nullspace"),
    ("curvkit.curvature", "_symmetrize"),
    ("curvkit.quadric", "takagi"),
    ("curvkit.serialize", "tensor_to_dict"),
    ("curvkit.serialize", "tensor_from_dict"),
    ("curvkit.serialize", "dumps"),
    ("curvkit.serialize", "point_report_to_dict"),
    ("curvkit.serialize", "validate"),
    ("curvkit.cli", "curvature_kernel"),
    ("curvkit.cli", "hsc_numerator_form"),
    ("curvkit.cli", "decompose"),
    ("curvkit.cli", "ricci"),
)

# Span names that BENCHMARK.json reports per layer, in a fixed order.  The
# cli.* spans come from the CLI child process (cli_child.py) and the parent
# that starts it; a name absent from a workload reports zero calls.
LAYER_SPANS = (
    "zeroset.verify_point",
    "zeroset.eta_lower_search",
    "zeroset.eta_upper",
    "zeroset.check_certificate",
    "curvature.hsc_numerator_form",
    "curvature.curvature_kernel",
    "curvature.ricci",
    "curvature.validate",
    "curvature.symmetrize",
    "quadric.nullspace",
    "quadric.takagi",
    "quadric.max_isotropic",
    "hermform.signature",
    "hermform.decompose",
    "serialize.tensor_to_dict",
    "serialize.tensor_from_dict",
    "serialize.dumps",
    "serialize.point_report_to_dict",
    "cli.process",
    "cli.start",
    "cli.import",
    "cli.main",
)


def span_name(fn) -> str:
    """``<layer>.<function>`` for a curvkit function, leading underscore dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


class Tracer:
    """Records spans as ``[name, start, end, parent, op, failed]`` lists.

    `parent` is the index of the enclosing span in :attr:`spans` (-1 for a
    root) and `op` the id of the benchmark op that was running.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def open(self, name) -> int:
        """Start a span inside the current one and make it current."""
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        self.spans.append([name, now, now, parent, self.op, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, failed=False) -> None:
        """End the current span `idx`."""
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = failed
        self._stack.pop()

    def record(self, name, start, end, parent, failed=False) -> int:
        """Add a finished span, e.g. one measured in another process."""
        self.spans.append([name, start, end, parent, self.op, failed])
        return len(self.spans) - 1

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.close(idx, failed)

        return traced

    def install(self) -> None:
        """Wrap every target in an imported module; modules not imported (the
        CLI in a library workload) and names missing in this version of
        curvkit are skipped, so their spans report zero calls."""
        for module_name, attr in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                continue
            module = sys.modules[module_name]
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, span_name(fn)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def as_dicts(self) -> list:
        keys = ("name", "start", "end", "parent", "op", "failed")
        return [dict(zip(keys, s)) for s in self.spans]


def self_times(spans) -> list:
    """Span duration minus the part of its interval that child spans cover."""
    children = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(idx)
    out = []
    for s, kids in zip(spans, children):
        start, end = s[1], s[2]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _inside_same_name(spans, idx) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == spans[idx][0]:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, ops: int, op_wall_s: float) -> dict:
    """Per span name: calls per op, median self ms, self-time and total-time
    shares of the op wall time, and failed calls.  Total time counts each
    span with its children, once even when a span of the same name encloses
    it."""
    stats = {}
    for idx, (s, own) in enumerate(zip(spans, self_times(spans))):
        entry = stats.setdefault(s[0], {"self": [], "total": 0.0, "fails": 0})
        entry["self"].append(own)
        entry["fails"] += bool(s[5])
        if not _inside_same_name(spans, idx):
            entry["total"] += s[2] - s[1]
    metrics = {}
    for name in LAYER_SPANS:
        entry = stats.get(name, {"self": [], "total": 0.0, "fails": 0})
        own = entry["self"]
        metrics[f"{name}.calls"] = (len(own) / ops if ops else 0.0, "calls/op")
        metrics[f"{name}.self_ms"] = (statistics.median(own) * 1e3 if own else 0.0, "ms")
        metrics[f"{name}.share"] = (sum(own) / op_wall_s if op_wall_s else 0.0, "ratio")
        metrics[f"{name}.total_share"] = (entry["total"] / op_wall_s if op_wall_s else 0.0, "ratio")
        metrics[f"{name}.fails"] = (entry["fails"], "count")
    return metrics
