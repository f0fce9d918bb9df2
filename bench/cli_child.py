"""Traced stand-in for ``python -m curvkit`` used by the cli_io traced run.

Records ``cli.import`` (importing ``curvkit.cli``), ``cli.main`` and the
library spans nested in it, then writes them, with the time this script
started, to the JSON file named by ``BENCH_SPANS``.  The parent process adds
``cli.start`` (spawn to script start) and ``cli.process`` around them.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def _run(tracer) -> int:
    idx = tracer.open("cli.import")
    import curvkit.cli

    tracer.close(idx)
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        code = curvkit.cli.main(sys.argv[1:])
    except BaseException:
        tracer.close(idx, failed=True)
        raise
    tracer.close(idx, failed=code != 0)
    return code


if __name__ == "__main__":
    tracer = Tracer()
    try:
        code = _run(tracer)
    finally:
        with open(os.environ["BENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"t0": T0, "spans": tracer.as_dicts()}, fh)
    sys.exit(code)
