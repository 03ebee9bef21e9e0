"""The three benchmark workloads: set-up, solve and checks.

Each workload calls freewalk's public functions through their modules
(`green.spectral_radius`, not a name imported from it), so the tracer can
rebind them.  `setup` imports nothing itself but builds the group, the
measures and every ball table the workload will use; `solve` computes all
results; `check` compares them with independent oracles or
acceptance-style bounds and runs outside the timed sections.
"""

from __future__ import annotations

import math
from fractions import Fraction

from freewalk import ancona, automaton, green, groups, measures, parabolic, tauberian
from freewalk.cli import build_group, build_measure

import oracles
import spec

F2_ELEMENTS = {"e": "e", "a": "1:(1)", "A": "1:(-1)", "b": "2:(1)", "B": "2:(-1)"}
LAZY_WEIGHTS = {"e": 4, "a": 1, "A": 1, "b": 1, "B": 1}  # over 8

# The shipped Z^2 * Z/3 lazy walk (configs/z2-z3-lazy.json), inlined so the
# benchmark does not depend on a file outside its own directory.
Z2Z3_CONFIG = {
    "group": [
        {"kind": "free-abelian", "rank": 2, "gens": ["a1", "a2"]},
        {"kind": "finite-cyclic", "order": 3, "gens": ["c"]},
    ],
    "measure": [
        ["e", "1/2"],
        ["1:(1,0)", "1/12"], ["1:(-1,0)", "1/12"],
        ["1:(0,1)", "1/12"], ["1:(0,-1)", "1/12"],
        ["2:(1)", "1/12"], ["2:(2)", "1/12"],
    ],
}


def _half_radius(measure, n_max: int) -> int:
    """The table cap `return_sequence(measure, n_max)` asks for."""
    return ((n_max + 1) // 2) * max(1, measure.d_mu)


def _f2_walk(F2, weights: dict[str, int]):
    return measures.measure_from_pairs(
        F2, [(F2_ELEMENTS[k], Fraction(w, 8)) for k, w in weights.items()]
    )


# -- exact-returns ---------------------------------------------------------------


def setup_exact_returns(seed: int, b: dict) -> dict:
    F2 = groups.free_group(2)
    drift_w = spec.drift_weights(seed)
    lazy = measures.lazy_walk(F2)
    drift = _f2_walk(F2, drift_w)
    cap = _half_radius(lazy, b["lazy_n"])
    lazy.table(cap)
    drift.table(_half_radius(drift, b["drift_n"]))
    return {"lazy": lazy, "drift": drift, "drift_weights": drift_w, "largest_table": (lazy, cap)}


def solve_exact_returns(ctx: dict, b: dict) -> dict:
    lazy, drift = ctx["lazy"], ctx["drift"]
    q_lazy = measures.return_sequence(lazy, b["lazy_n"]).values
    est_lazy = green.spectral_radius(lazy, b["lazy_n"])
    q_drift = measures.return_sequence(drift, b["drift_n"]).values
    est_drift = green.spectral_radius(drift, b["drift_n"])
    seq = tauberian.SequenceSpec(tuple(float(v) for v in q_lazy), "exact lazy F2 returns")
    fit = tauberian.fit_llt_exponent(seq, est_lazy.point, b["fit_window"])
    return {
        "q_lazy": list(q_lazy), "q_drift": list(q_drift),
        "lazy_upper": est_lazy.certified_upper, "lazy_point": est_lazy.point,
        "drift_upper": est_drift.certified_upper, "alpha": fit.alpha,
    }


def check_exact_returns(ctx: dict, res: dict, b: dict) -> dict:
    R_lazy = oracles.spectral_radius(LAZY_WEIGHTS, 8)
    R_drift = oracles.spectral_radius(ctx["drift_weights"], 8)
    q_lazy = oracles.return_probabilities(LAZY_WEIGHTS, 8, b["lazy_n"])
    q_drift = oracles.return_probabilities(ctx["drift_weights"], 8, b["drift_n"])
    rel = abs(res["lazy_point"] - R_lazy) / R_lazy
    lo, hi = b["alpha_band"]
    return {
        "lazy_q_matches_first_passage_series": (res["q_lazy"] == q_lazy, f"{len(q_lazy)} terms"),
        "drift_q_matches_first_passage_series": (res["q_drift"] == q_drift, f"{len(q_drift)} terms"),
        "lazy_fekete_upper_at_least_R": (res["lazy_upper"] >= R_lazy, f"{res['lazy_upper']:.6f} >= {R_lazy:.6f}"),
        "drift_fekete_upper_at_least_R": (res["drift_upper"] >= R_drift, f"{res['drift_upper']:.6f} >= {R_drift:.6f}"),
        "lazy_point_estimate_near_R": (rel < b["point_rel_tol"], f"rel err {rel:.2e}"),
        "lazy_llt_exponent_in_band": (lo <= res["alpha"] <= hi, f"alpha {res['alpha']:.3f}"),
    }


# -- green-audit -------------------------------------------------------------------


def setup_green_audit(seed: int, b: dict) -> dict:
    F2 = groups.free_group(2)
    # float mode: q_n come from the float level DP, so this workload never
    # runs the exact pairing (and, the walk being symmetric, never inverse_perm)
    lazy = measures.lazy_walk(F2).as_float()
    lazy.table(b["cap"])
    m, B = b["triple_ball"]
    triples = ancona.sample_triples(F2, m, B, b["triples"], seed=spec.triple_seed(seed))
    pairs = ancona.geodesic_pairs(F2, *b["pair_ball"])
    return {
        "lazy": lazy, "triples": triples, "pairs": pairs, "largest_table": (lazy, b["cap"]),
        "sphere_f": spec.jitter(seed, (0.5, 0.9), "sphere"),
        "fk_f": spec.jitter(seed, (0.4,), "fk")[0],
        "audit_f": spec.jitter(seed, (0.3, 0.6, 0.9), "audit"),
    }


def solve_green_audit(ctx: dict, b: dict) -> dict:
    lazy, cap, order = ctx["lazy"], b["cap"], b["order"]
    est = green.spectral_radius(lazy, b["n_max"])
    R = est.point
    sphere_r = [f * R for f in ctx["sphere_f"]]
    M, B = b["sphere"]
    spheres = [green.sphere_sums(lazy, r, M, B, order=order, radius=cap).values
               for r in sphere_r]
    deriv = green.derivative_identity_residual(lazy, sphere_r[0], b["deriv_truncation"],
                                               order, cap)
    r_fk = ctx["fk_f"] * R
    fk = [green.fk_identity_residual(lazy, k, r_fk, b["fk_truncation"], order, cap)
          for k in (2, 3)]
    rs = [f * R for f in ctx["audit_f"]]
    tri = ancona.triangle_audit(lazy, ctx["triples"], rs, order, cap, b["n_max"])
    rat = ancona.ratio_audit(lazy, ctx["pairs"], rs, order, cap, b["n_max"])
    return {
        "upper": est.certified_upper, "point": R, "sphere_r": sphere_r,
        "spheres": spheres, "deriv": deriv.residual, "fk": [x.residual for x in fk],
        "tri_violations": tri.violations, "tri_checked": tri.triples_checked,
        "ratio_violations": rat.lower_bound_violations, "ratio_rows": len(rat.rows),
    }


def check_green_audit(ctx: dict, res: dict, b: dict) -> dict:
    R = oracles.spectral_radius(LAZY_WEIGHTS, 8)
    rel = abs(res["point"] - R) / R
    # G(e,e|r) truncated at the field's order, from the exact series; the
    # field is radius-pruned, so it is a lower bound that must sit close
    r = res["sphere_r"][0]
    q = oracles.return_probabilities(LAZY_WEIGHTS, 8, b["order"])
    g_series = math.fsum(float(qn) * r**n for n, qn in enumerate(q))
    g_field = math.sqrt(res["spheres"][0][0])  # u_0 = G(e,e|r)^2 for a symmetric walk
    field_gap = (g_series - g_field) / g_series
    M = b["sphere"][0]
    sphere_ok = all(
        all(math.isfinite(v) and v > 0 for v in vals)
        and not all(x < y for x, y in zip(vals[1:M + 1], vals[2:M + 1]))
        for vals in res["spheres"]
    )
    want_checked = b["triples"] * 3
    return {
        "fekete_upper_at_least_R": (res["upper"] >= R, f"{res['upper']:.6f} >= {R:.6f}"),
        "point_estimate_near_R": (rel < b["point_rel_tol"], f"rel err {rel:.2e}"),
        "field_G_ee_matches_series": (-1e-12 <= field_gap < b["field_rel_tol"],
                                      f"rel gap {field_gap:.2e}"),
        "sphere_sums_finite_not_increasing": (sphere_ok, f"{len(res['spheres'])} tables"),
        "derivative_identity_residual": (res["deriv"] < b["deriv_tol"], f"{res['deriv']:.2e}"),
        "fk2_identity_residual": (res["fk"][0] < b["fk_tol"], f"{res['fk'][0]:.2e}"),
        "fk3_identity_residual": (res["fk"][1] < b["fk_tol"], f"{res['fk'][1]:.2e}"),
        "triangle_no_violations": (res["tri_violations"] == 0 and res["tri_checked"] == want_checked,
                                   f"{res['tri_violations']} of {res['tri_checked']}"),
        "ratio_no_lower_bound_violations": (res["ratio_violations"] == 0 and res["ratio_rows"] > 0,
                                            f"{res['ratio_violations']} of {res['ratio_rows']}"),
    }


# -- general-product ----------------------------------------------------------------


def setup_general_product(seed: int, b: dict) -> dict:
    group = build_group(Z2Z3_CONFIG)
    mu = build_measure(Z2Z3_CONFIG, group, measures.EXACT)
    mu.table(b["cap"])
    mu.table(_half_radius(mu, 6))  # classify's validate(depth=3) asks for q_0..q_6
    return {
        "group": group, "mu": mu, "largest_table": (mu, b["cap"]),
        "same_f": spec.jitter(seed, (0.3, 0.5, 0.8), "same"),
        "equadiff_f": spec.jitter(seed, (0.5, 0.65, 0.8, 0.95), "equadiff"),
    }


def solve_general_product(ctx: dict, b: dict) -> dict:
    mu, group, cap = ctx["mu"], ctx["group"], b["cap"]
    R = green.spectral_radius(mu, b["n_max"]).point
    kernel = dict(horizon=b["horizon"], h_ball=b["h_ball"])
    same = [
        parabolic.same_green_residual(mu, k, f * R, order=b["order"], radius=cap,
                                      kernel_order=b["kernel_order"], **kernel)["residual"]
        for f in ctx["same_f"] for k in range(1, group.num_factors + 1)
    ]
    cls = parabolic.classify(mu, n_max=b["n_max"], order=b["order"], radius=cap,
                             horizon=b["horizon"], kernel_order=b["classify_kernel_order"],
                             h_ball=b["classify_h_ball"])
    rows = parabolic.equadiff_table(mu, ctx["equadiff_f"], n_max=b["n_max"], order=b["order"],
                                    radius=cap, kernel_order=b["kernel_order"], **kernel)
    C, m, B = b["automaton"]
    auto = automaton.canonical_automaton(group, C=C, m=m, B=B)
    report = automaton.verify_structure(auto, m, B)
    return {
        "same": same, "kernel_radii": [f.kernel_radius for f in cls.factors],
        "equadiff": [(row.lhs, row.rhs, row.ratio) for row in rows],
        "verify_ok": report["ok"], "counts": report["counts"],
        "cone_types": len(auto.cone_types),
    }


def check_general_product(ctx: dict, res: dict, b: dict) -> dict:
    worst = max(res["same"])
    low = min(res["kernel_radii"])
    eq_ok = all(math.isfinite(x) and x > 0 for row in res["equadiff"] for x in row)
    counts = res["counts"]
    want_types = ctx["group"].num_factors + 1
    return {
        "same_green_residuals": (worst < b["same_green_tol"], f"max {worst:.2e}"),
        "kernel_radii_at_least_one": (low >= 1.0 - 1e-3, f"min {low:.5f}"),
        "equadiff_rows_finite": (eq_ok, f"{len(res['equadiff'])} rows"),
        "automaton_verify_ok": (res["verify_ok"], ""),
        "automaton_accepts_ball": (counts["accepted"] == counts["ball"] == counts["distinct_images"],
                                   f"{counts['accepted']} = {counts['ball']}"),
        "automaton_cone_types": (res["cone_types"] == want_types,
                                 f"{res['cone_types']} = {want_types}"),
    }


WORKLOADS = {
    "exact-returns": (setup_exact_returns, solve_exact_returns, check_exact_returns),
    "green-audit": (setup_green_audit, solve_green_audit, check_green_audit),
    "general-product": (setup_general_product, solve_general_product, check_general_product),
}
