"""The freewalk benchmark: one workload, several fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Batch, closed loop, one client: child processes (`worker.py`) run one at a
time, each a fresh interpreter that imports freewalk, builds its tables and
solves the workload once, because every CLI command pays that set-up.
Children are started while the next one is expected to end within about S
seconds (at least three, or two with --trace 1).  BLAS threads are pinned to 1.

With --trace 0 the last stdout line reports medians over the children of
wall_s (spawn to all results computed; checks excluded), setup_s, solve_s
and peak_rss_mib.  With --trace 1 children alternate untraced and traced;
it reports the per-layer medians of the traced ones and trace.overhead_frac,
the traced over the untraced median wall_s, minus one.  Both also report the
checks attempted and failed; a crashed child fails all of its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

RUN_LIMIT_S = 170.0  # a run, children included, ends within this whatever --seconds says
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}


def run_child(workload: str, seed: int, budget: str, trace_file: Path | None,
              timeout: float) -> dict | None:
    """One worker process; its result plus wall_s, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), budget]
    if trace_file is not None:
        cmd.append(str(trace_file))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = res["done_at"] - spawned
    return res


def count_failures(workload: str, child: dict | None) -> int:
    """Failed checks of one child; a crashed child or a missing check fails."""
    names = spec.CHECKS[workload]
    if child is None:
        return len(names)
    return sum(not child["checks"].get(name, [False])[0] for name in names)


def summarize(workload: str, children: list, trace: bool) -> dict:
    """The result object from the children's outputs (None = crashed)."""
    attempted = len(spec.CHECKS[workload]) * len(children)
    failed = sum(count_failures(workload, ch) for ch in children)
    plain = [ch for ch in children if ch is not None and ch["layers"] is None]
    traced = [ch for ch in children if ch is not None and ch["layers"] is not None]
    if not plain or (trace and not traced):
        raise RuntimeError("no child finished; nothing to report")
    metrics = {}
    if trace:
        wall_plain = statistics.median(ch["wall_s"] for ch in plain)
        wall_traced = statistics.median(ch["wall_s"] for ch in traced)
        values = {"trace.overhead_frac": wall_traced / wall_plain - 1.0}
        for name in spec.LAYER_UNITS:
            if name != "trace.overhead_frac":
                values[name] = statistics.median(ch["layers"][name] for ch in traced)
        for name, unit in spec.LAYER_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": statistics.median(ch[name] for ch in plain), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets with the same call graph (for the benchmark's tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "freewalk" / "__init__.py").is_file():
        print(f"freewalk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget = "smoke" if args.smoke else "full"
    trace_dir = HERE / "traces"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)

    start = time.monotonic()
    longest = 0.0
    children = []
    min_children = 2 if args.trace else 3
    while True:
        traced = bool(args.trace) and len(children) % 2 == 1
        trace_file = (trace_dir / f"{args.workload}-seed{args.seed}-{len(children)}.jsonl"
                      if traced else None)
        t = time.monotonic()
        children.append(run_child(args.workload, args.seed, budget, trace_file,
                                  timeout=RUN_LIMIT_S - (t - start)))
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        if elapsed + longest > RUN_LIMIT_S:
            break
        # the next child may overrun the budget by at most half its length
        if len(children) >= min_children and elapsed + longest / 2 > args.seconds:
            break

    try:
        result = summarize(args.workload, children, bool(args.trace))
    except RuntimeError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    for i, ch in enumerate(children):
        if ch is not None:
            kind = "traced" if ch["layers"] is not None else "untraced"
            print(f"child {i} ({kind}): wall {ch['wall_s']:.3f} s, setup {ch['setup_s']:.3f} s, "
                  f"solve {ch['solve_s']:.3f} s, peak RSS {ch['peak_rss_mib']:.1f} MiB",
                  file=sys.stderr)
        for name in spec.CHECKS[args.workload]:
            ok, detail = (False, "child crashed") if ch is None else ch["checks"].get(
                name, (False, "missing"))
            if not ok:
                print(f"FAILED child {i} {name}: {detail}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(children)} children, "
          f"{result['attempted']} checks, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
