"""One benchmark child: run a workload once in this fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED BUDGET [TRACE_FILE]

Prints one JSON object as its last stdout line: the set-up and solve times
(set-up starts before freewalk and numpy are imported), the monotonic clock
reading when every result was computed, the peak RSS at that moment, the
check outcomes and, with TRACE_FILE, the per-layer metrics.  Checks and the
tracemalloc probe run after the clock stops.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> None:
    workload, seed, budget = argv[0], int(argv[1]), argv[2]
    trace_file = argv[3] if len(argv) > 3 else None

    import spec
    import workloads
    b = spec.BUDGETS[budget][workload]
    setup, solve, check = workloads.WORKLOADS[workload]
    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if trace_file:
        from tracer import Tracer
        tracer = Tracer(Path(trace_file).stem)
        tracer.install()
        span = tracer.span
    with span("workload.setup"):
        ctx = setup(seed, b)
    t_ready = time.monotonic()
    with span("workload.solve"):
        res = solve(ctx, b)
    t_done = time.monotonic()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = tracer.layer_metrics() if tracer else None
    checks = check(ctx, res, b)
    if tracer:
        tracer.flush(trace_file)
        layers["engine.build_peak_bytes_per_elem"] = _build_bytes_per_elem(*ctx["largest_table"])
    out = {
        "setup_s": t_ready - T0,
        "solve_s": t_done - t_ready,
        "done_at": t_done,
        "peak_rss_mib": peak_rss_mib,
        "checks": {name: [bool(ok), detail] for name, (ok, detail) in checks.items()},
        "layers": layers,
    }
    print(json.dumps(out))


def _build_bytes_per_elem(measure, cap: int) -> float:
    """Computed, not sampled: tracemalloc's peak over a fresh BallTable
    build at cap - 2, divided by its element count."""
    import tracemalloc
    from freewalk.engine import BallTable
    probe_cap = max(1, cap - 2)
    tracemalloc.start()
    try:
        table = BallTable(measure.group, list(measure.entries), probe_cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / table.size


if __name__ == "__main__":
    main(sys.argv[1:])
