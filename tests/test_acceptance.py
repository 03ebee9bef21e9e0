"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints a PASS/FAIL line (visible under `pytest -s`); run order
matters for memory (the two radius-14 tables are never alive together).
"""

import gc
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from freewalk import free_group, free_product, lazy_walk, simple_walk, FactorSpec
from freewalk import measures as measures_mod
from freewalk import green as green_mod
from freewalk import parabolic as parabolic_mod
from freewalk import ancona as ancona_mod
from freewalk import automaton as automaton_mod
from freewalk import tauberian as tauberian_mod
from freewalk.cli import build_group, build_measure, load_config, main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def tree_radius_oracle(degree: int = 4) -> float:
    """Independent oracle for the simple walk on the q-regular tree.

    First passage to the parent solves F = z/q + (q-1)(z/q) F^2; the Green
    series converges until the discriminant 1 - 4(q-1) z^2/q^2 vanishes.
    Solved by bisection to stay independent of closed-form algebra.
    """
    q = degree

    def disc(z: float) -> float:
        return 1.0 - 4.0 * (q - 1) * z * z / (q * q)

    lo, hi = 1.0, 2.0
    assert disc(lo) > 0 > disc(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if disc(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def simple_ctx(zz):
    """Simple walk on F2 with its exact n=28 sequence and estimate, timed."""
    walk = simple_walk(zz)
    t0 = time.monotonic()
    q = measures_mod.return_sequence(walk, 28)
    est = green_mod.spectral_radius(walk, 28)
    elapsed = time.monotonic() - t0
    return {"walk": walk, "q": q, "est": est, "elapsed": elapsed}


@pytest.fixture(scope="module")
def lazy_ctx(zz, simple_ctx):
    """Lazy walk context; built after the simple-walk criteria so the two
    radius-14 tables never coexist."""
    simple_ctx["walk"].drop_tables()
    gc.collect()
    lazy = lazy_walk(zz)
    t0 = time.monotonic()
    q = measures_mod.return_sequence(lazy, 28)
    est = green_mod.spectral_radius(lazy, 28)
    elapsed = time.monotonic() - t0
    return {"lazy": lazy, "q": q, "est": est, "elapsed": elapsed}


# -- criterion 1: exact convolution oracle ---------------------------------------


def test_criterion_01_exact_convolution(zz):
    walk = simple_walk(zz)  # fresh instance: timing includes everything
    t0 = time.monotonic()
    q = measures_mod.return_sequence(walk, 4).values
    elapsed = time.monotonic() - t0

    sup = list(walk.entries.items())
    oracle = []
    for n in (2, 4):
        total = Fraction(0)
        for combo in itertools.product(sup, repeat=n):
            g = zz.identity
            w = Fraction(1)
            for elem, weight in combo:
                g = zz.multiply(g, elem)
                w *= weight
            if g == zz.identity:
                total += w
        oracle.append(total)

    ok = (
        q[2] == Fraction(1, 4)
        and q[4] == Fraction(7, 64)
        and [q[2], q[4]] == oracle
        and elapsed < 1.0
    )
    report(1, ok, f"q2={q[2]}, q4={q[4]}, path-enumeration oracle agrees, "
                  f"{elapsed:.2f}s < 1s")


# -- criterion 2: spectral radius against the tree quadratic ---------------------


def test_criterion_02_spectral_radius(simple_ctx):
    est = simple_ctx["est"]
    oracle_rho = 1.0 / tree_radius_oracle(4)
    err = abs(est.rho_point - oracle_rho)
    diag = est.diagnostics
    fekete_monotone = all(x <= y + 1e-15 for x, y in zip(diag, diag[1:]))
    ok = (
        err < 1e-3
        and abs(oracle_rho - math.sqrt(3) / 2) < 1e-12
        and fekete_monotone
        and simple_ctx["elapsed"] < 120.0
    )
    report(2, ok, f"1/R point={est.rho_point:.6f} vs oracle {oracle_rho:.6f} "
                  f"(err {err:.1e} < 1e-3), Fekete non-decreasing, "
                  f"{simple_ctx['elapsed']:.0f}s < 120s")


# -- criterion 3: first-derivative identity --------------------------------------


def test_criterion_03_first_derivative_identity(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    r = 0.5 * lazy_ctx["est"].point
    ladder = [((2, 2), 6, 6), ((4, 4), 12, 12), ((8, 8), 24, 14)]
    residuals = []
    for trunc, order, radius in ladder:
        rep = green_mod.derivative_identity_residual(lazy, r, trunc, order, radius)
        residuals.append(rep.residual)
    monotone = residuals[0] > residuals[1] > residuals[2]
    ok = residuals[-1] < 1e-6 and monotone
    report(3, ok, f"residual at (8,8), N=24: {residuals[-1]:.2e} < 1e-6; "
                  f"ladder {['%.2e' % x for x in residuals]} strictly decreasing")


# -- criterion 4: iterated-derivative identities ----------------------------------


def test_criterion_04_iterated_identities(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    r = 0.4 * lazy_ctx["est"].point
    assert green_mod.fk_coefficients(2) == [2, 4, 1]
    assert green_mod.fk_coefficients(3) == [6, 18, 9, 1]
    rep2 = green_mod.fk_identity_residual(lazy, 2, r, (4, 3), order=24, radius=14)
    rep3 = green_mod.fk_identity_residual(lazy, 3, r, (4, 3), order=24, radius=14)
    ok = rep2.residual < 1e-5 and rep3.residual < 1e-5
    report(4, ok, f"k=2 residual {rep2.residual:.2e}, k=3 residual "
                  f"{rep3.residual:.2e}, both < 1e-5 at r=0.4*R")


# -- criterion 5: the two Green functions coincide --------------------------------


def test_criterion_05_parabolic_green_identity(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    worst = 0.0
    details = []
    for frac in (0.3, 0.5, 0.8):
        r = frac * lazy_ctx["est"].point
        for k in (1, 2):
            rep = parabolic_mod.same_green_residual(
                lazy, k, r, order=64, radius=14, kernel_order=512,
                horizon=96, h_ball=64)
            worst = max(worst, rep["residual"])
            details.append(f"k={k},f={frac}:{rep['residual']:.1e}")
    ok = worst < 1e-6
    report(5, ok, f"max residual {worst:.2e} < 1e-6 over r in "
                  f"{{0.3,0.5,0.8}}*R and both factors ({'; '.join(details)})")


# -- criterion 6: parabolic radii never below 1 ------------------------------------


def test_criterion_06_parabolic_radius_bound():
    worst = math.inf
    details = []
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(str(cfg_path))
        group = build_group(cfg)
        measure = build_measure(cfg, group, cfg.get("arithmetic", "exact"))
        budgets = cfg["budgets"]
        est = green_mod.spectral_radius(measure, budgets["n_max"])
        for k in range(1, group.num_factors + 1):
            kr = parabolic_mod.kernel_radius(
                measure, k, est.point, budgets["kernel_order"],
                budgets["horizon"], budgets["radius"], budgets["h_ball"])
            worst = min(worst, kr.estimate)
            details.append(f"{cfg_path.stem}/H{k}:{kr.estimate:.4f}")
        measure.drop_tables()
    gc.collect()
    ok = worst >= 1.0 - 1e-3
    report(6, ok, f"min parabolic radius at R-hat {worst:.5f} >= 1 - 1e-3 "
                  f"({'; '.join(details)})")


# -- criterion 7: triangle bound ----------------------------------------------------


def test_criterion_07_triangle_bound(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    rs = [f * lazy_ctx["est"].point for f in (0.3, 0.6, 0.9)]
    triples = ancona_mod.sample_triples(lazy.group, 3, 3, 500, seed=2024)
    rep = ancona_mod.triangle_audit(lazy, triples, rs, order=48, radius=14)
    ok = rep.violations == 0 and rep.triples_checked >= 1500
    report(7, ok, f"0 violations beyond tail tolerance over "
                  f"{rep.triples_checked} (triple, r) checks "
                  f"({rep.uninformative} uninformative, worst slack "
                  f"{rep.worst_signed_slack:.2e})")


# -- criterion 8: sphere sums stay bounded ------------------------------------------


def test_criterion_08_sphere_sums(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    ok = True
    details = []
    for frac in (0.5, 0.9):
        r = frac * lazy_ctx["est"].point
        base = green_mod.sphere_sums(lazy, r, 6, 6, order=48, radius=14)
        doubled = green_mod.sphere_sums(lazy, r, 6, 12, order=96, radius=14)
        def spread(tab):
            vals = tab.values[1:7]
            return max(vals) / min(vals)
        s_b, s_d = spread(base), spread(doubled)
        stable = abs(s_d - s_b) <= 0.2 * s_b
        increasing = all(x < y for x, y in zip(base.values[1:7], base.values[2:7]))
        ok = ok and stable and not increasing
        details.append(f"f={frac}: spread {s_b:.3f}->{s_d:.3f}")
    report(8, ok, f"u_1..u_6 spread stable within 20% under doubling B and N, "
                  f"no monotone blow-up ({'; '.join(details)})")


# -- criterion 9: relative automaton --------------------------------------------------


def test_criterion_09_automaton():
    zz = free_group(2)
    z2z3 = free_product(
        FactorSpec((0, 0)), FactorSpec((3,)))
    ok = True
    details = []
    for name, grp in (("Z*Z", zz), ("Z2*Z3", z2z3)):
        auto = automaton_mod.canonical_automaton(grp, C=3, m=4, B=3)
        rep = automaton_mod.verify_structure(auto, 4, 3)
        types = len(auto.cone_types)
        good = rep["ok"] and rep["counts"]["accepted"] == rep["counts"]["ball"] \
            and types == grp.num_factors + 1
        ok = ok and good
        details.append(f"{name}: checks {rep['checks']}, "
                       f"count {rep['counts']['accepted']}={rep['counts']['ball']}, "
                       f"types {types}")
    report(9, ok, "; ".join(details))


# -- criterion 10: rough second-derivative comparison ----------------------------------


def test_criterion_10_equadiff_band(lazy_ctx):
    lazy = lazy_ctx["lazy"]
    fractions = [0.5, 0.575, 0.65, 0.725, 0.8, 0.875, 0.95]

    def band_constant(rows):
        return max(max(row.ratio, 1.0 / row.ratio) for row in rows)

    base = parabolic_mod.equadiff_table(
        lazy, fractions, n_max=28, order=96, radius=12, horizon=64,
        kernel_order=256, h_ball=48)
    doubled = parabolic_mod.equadiff_table(
        lazy, fractions, n_max=28, order=192, radius=14, horizon=128,
        kernel_order=512, h_ball=96)
    c_b, c_d = band_constant(base), band_constant(doubled)
    ok = math.isfinite(c_b) and abs(c_d - c_b) <= 0.25 * c_b
    report(10, ok, f"band constant {c_b:.3f} -> {c_d:.3f} under budget "
                   f"doubling (within 25%), grid [0.5, 0.95]*R")


# -- criterion 11: return-probability exponent ------------------------------------------


def test_criterion_11_llt_exponent(lazy_ctx):
    q = lazy_ctx["q"]
    est = lazy_ctx["est"]
    seq = tauberian_mod.SequenceSpec(tuple(float(v) for v in q.values),
                                     "exact lazy F2 returns")
    fit = tauberian_mod.fit_llt_exponent(seq, est.point, (12, 28), period=1)
    in_band = 1.0 <= fit.alpha <= 2.0
    # the window's own curvature contributes ~1e-2 to the trend even at the
    # true R; a 5% mis-estimate would show as log(1.05) = 4.9e-2
    trend_ok = abs(fit.linear_trend) < 1.5e-2

    synth_ok = True
    for alpha in (1.5, 2.5):
        synth = tauberian_mod.SequenceSpec(
            tuple(0.8**n * (n if n else 1) ** (-alpha) for n in range(40)))
        sfit = tauberian_mod.fit_llt_exponent(synth, 1.25, (5, 39))
        synth_ok = synth_ok and abs(sfit.alpha - alpha) < 0.05

    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM"))
    ok = (in_band and trend_ok and synth_ok
          and lazy_ctx["elapsed"] < 600.0 and peak_kb < 16 * 1024 * 1024)
    report(11, ok, f"alpha={fit.alpha:.3f} in [1,2], linear trend "
                   f"{fit.linear_trend:.1e} (R-hat consistent), synthetic "
                   f"1.5/2.5 within 0.05, pipeline {lazy_ctx['elapsed']:.0f}s "
                   f"< 600s, peak RSS {peak_kb/1048576:.1f} GiB < 16 GiB")


# -- criterion 12: weak Tauberian checks ---------------------------------------------------


def test_criterion_12_tauberian():
    N = 4000
    s_grid = [1 - 2.0 ** (-j) for j in range(3, 9)]
    n_grid = [2**j for j in range(4, 12)]
    families = {
        "constant": (lambda k: 1.0, 1.0),
        "linear": (lambda k: k + 1.0, 2.0),
        "sqrt": (lambda k: math.sqrt(k + 1.0), 1.5),
    }
    ok = True
    details = []
    for name, (fn, beta) in families.items():
        seq = tauberian_mod.SequenceSpec(tuple(fn(k) for k in range(2 * N + 1)))
        rep = tauberian_mod.check_partial_sums_vs_laplace(seq, beta, s_grid, n_grid)
        doubled = tauberian_mod.check_partial_sums_vs_laplace(
            seq, beta, s_grid + [1 - 2.0 ** (-9)], n_grid + [2**12])
        s0 = rep.partial_spread[1] / rep.partial_spread[0]
        s1 = doubled.partial_spread[1] / doubled.partial_spread[0]
        good = rep.consistent and doubled.consistent and abs(s1 - s0) <= 0.1 * s0 + 1e-9
        ok = ok and good
        details.append(f"{name}: spread {s0:.3f}->{s1:.3f}")

    for beta in (0.25, 0.5, 0.75):
        seq = tauberian_mod.SequenceSpec(
            tuple((k + 1.0) ** (beta - 2.0) for k in range(N + 1)))
        rep = tauberian_mod.check_monotone_lemma(seq, beta)
        ok = ok and rep.hypothesis_ok and rep.conclusion_bounded

    try:
        tauberian_mod.check_monotone_lemma(
            tauberian_mod.SequenceSpec((1.0, 2.0, 1.0)), 0.5)
        rejected = False
    except ValueError:
        rejected = True
    ok = ok and rejected
    report(12, ok, f"both directions consistent and range-doubling stable "
                   f"({'; '.join(details)}); monotone lemma passes for "
                   f"beta in {{.25,.5,.75}} and rejects non-monotone input")


# -- criterion 13: determinism ----------------------------------------------------------


def test_criterion_13_determinism(tmp_path, zz):
    cfg = {
        "group": [
            {"kind": "free-abelian", "rank": 1, "gens": ["a"]},
            {"kind": "free-abelian", "rank": 1, "gens": ["b"]},
        ],
        "measure": [["e", "1/2"], ["1:(1)", "1/8"], ["1:(-1)", "1/8"],
                     ["2:(1)", "1/8"], ["2:(-1)", "1/8"]],
        "arithmetic": "exact",
        "budgets": {"n_max": 12, "series_order": 16, "radius": 6,
                    "truncation": [2, 2], "horizon": 12, "kernel_order": 32,
                    "h_ball": 12, "depth": 3, "sample_ball": [2, 1],
                    "triples": 20, "window": [6, 12], "automaton_c": 2,
                    "automaton_mb": [3, 2]},
        "r_grid": {"fractions": [0.4]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    ok = True
    for cmd, artifacts in (("llt", ["q.csv", "fit.json"]),
                           ("green", ["green.csv"]),
                           ("identities", ["identities.json"])):
        outs = []
        for k in range(2):
            out = tmp_path / f"{cmd}-{k}"
            code = cli_main([cmd, str(cfg_path), "--out", str(out)])
            ok = ok and code == 0
            outs.append(out)
        for name in artifacts:
            ok = ok and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # library-level: exact mode bit-identical, float mode within 1e-12
    q_a = measures_mod.return_sequence(simple_walk(zz), 12).values
    q_b = measures_mod.return_sequence(simple_walk(zz), 12).values
    ok = ok and q_a == q_b
    f_a = measures_mod.return_sequence(simple_walk(zz).as_float(), 12).values
    f_b = measures_mod.return_sequence(simple_walk(zz).as_float(), 12).values
    ok = ok and all(abs(x - y) <= 1e-12 * max(1.0, abs(x))
                    for x, y in zip(f_a, f_b))
    report(13, ok, "byte-identical artifacts over two runs; exact "
                   "reruns bit-identical; float reruns within 1e-12")
