"""Tests of the benchmark itself, on the tiny "smoke" budgets.

    python -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402


def _worker(workload, seed, trace_file=None):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "smoke"]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced smoke children per workload, with different seeds."""
    tmp = tmp_path_factory.mktemp("traces")
    return tmp, {
        w: [_worker(w, seed, tmp / f"{w}-{seed}.jsonl") for seed in (3, 4)]
        for w in spec.WORKLOADS
    }


def test_benchmark_json_names_match_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.LAYER_UNITS
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_oracle_matches_known_values():
    simple = {"e": 0, "a": 1, "A": 1, "b": 1, "B": 1}
    q = oracles.return_probabilities(simple, 4, 4)
    assert q[:5] == [1, 0, Fraction(1, 4), 0, Fraction(7, 64)]
    # tree quadratic: 1/R = sqrt(3)/2 for the simple walk on F2
    assert math.isclose(oracles.spectral_radius(simple, 4), 2 / math.sqrt(3), rel_tol=1e-12)


def test_drift_weights_are_non_symmetric_with_denominator_8():
    for seed in range(20):
        w = spec.drift_weights(seed)
        assert sorted(w.values()) == sorted(spec.DRIFT_MULTISET)
        assert (w["a"], w["b"]) != (w["A"], w["B"])


def test_smoke_children_pass_every_check(traced):
    for w, children in traced[1].items():
        for child in children:
            assert run.count_failures(w, child) == 0, (w, child["checks"])


def test_exact_counts_repeat_across_runs_and_seeds(traced):
    from tracer import EXACT_COUNTS
    for w, (first, second) in traced[1].items():
        assert {k: first["layers"][k] for k in EXACT_COUNTS} == \
            {k: second["layers"][k] for k in EXACT_COUNTS}, w


def test_every_layer_metric_reported_and_inverse_perm_only_on_exact_returns(traced):
    for w, children in traced[1].items():
        layers = children[0]["layers"]
        assert set(layers) == set(spec.LAYER_UNITS) - {"trace.overhead_frac"}
        assert (layers["engine.inverse_perm_calls"] > 0) == (w == "exact-returns")
        assert (layers["engine.pairing_s"] > 0) == (w != "green-audit")
        assert layers["engine.elements"] > 0 and layers["engine.dp_steps"] > 0


def test_trace_file_spans_nest(traced):
    lines = (traced[0] / "green-audit-3.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert {s["name"] for s in spans} >= {"workload.setup", "workload.solve",
                                          "engine.build", "green.pair_matrix_ids"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]


def _in_process(workload, seed=5):
    import workloads
    b = spec.BUDGETS["smoke"][workload]
    setup, solve, check = workloads.WORKLOADS[workload]
    ctx = setup(seed, b)
    return ctx, solve(ctx, b), (lambda ctx, res: check(ctx, res, b))


def _child(checks):
    return {"checks": {k: [ok, d] for k, (ok, d) in checks.items()}, "layers": None,
            "wall_s": 1.0, "setup_s": 0.5, "solve_s": 0.5, "peak_rss_mib": 10.0}


def test_corrupted_return_probability_counts_as_failed():
    ctx, res, check = _in_process("exact-returns")
    good = _child(check(ctx, res))
    res["q_lazy"][4] += Fraction(1, 8**4)
    bad = _child(check(ctx, res))
    result = run.summarize("exact-returns", [good, bad], trace=False)
    assert result["attempted"] == 2 * len(spec.CHECKS["exact-returns"])
    assert result["failed"] == 1 and not result["correct"]
    assert not bad["checks"]["lazy_q_matches_first_passage_series"][0]


def test_corrupted_residual_counts_as_failed():
    ctx, res, check = _in_process("green-audit")
    res["fk"][1] = 1.0
    result = run.summarize("green-audit", [_child(check(ctx, res))], trace=False)
    assert result["failed"] == 1


def test_crashed_child_fails_all_its_checks():
    ctx, res, check = _in_process("general-product")
    result = run.summarize("general-product", [_child(check(ctx, res)), None], trace=False)
    n = len(spec.CHECKS["general-product"])
    assert (result["attempted"], result["failed"]) == (2 * n, n)


def test_self_time_subtracts_children():
    from tracer import Tracer
    t = Tracer("test")
    t.spans = [["outer", 0.0, 10.0, None], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0],
               ["leaf", 3.0, 4.0, 1]]
    st = t.self_times()
    assert (st["outer"], st["inner"], st["leaf"]) == (6.0, 3.0, 1.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "general-product", "--seed", "2",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    want = spec.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-returns", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
