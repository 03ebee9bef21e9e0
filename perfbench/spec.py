"""Workload names, budgets, check names and seed-derived inputs.

Standard library only, so run.py can read it without importing
freewalk or numpy.  The seed shapes inputs, never their cost: it picks
triangle-audit triples, jitters r-fractions and permutes the weights of the
drifted walk, but every size below is fixed per budget level.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("exact-returns", "green-audit", "general-product")

# Per-workload budgets.  "full" is what the benchmark measures; "smoke" is a
# tiny version with the same call graph, for the benchmark's own tests.
# Residual and estimate tolerances depend on the budgets, so they live here.
BUDGETS = {
    "full": {
        "exact-returns": {
            "lazy_n": 24,            # cap 12: 1.06 M elements, rank-one path
            "drift_n": 16,           # cap 8: 13 k elements, inverse_perm on all
            "fit_window": (10, 24),
            "alpha_band": (1.0, 2.0),
            "point_rel_tol": 1e-2,
        },
        "green-audit": {
            "cap": 11,               # 354 k elements
            "n_max": 22,
            "order": 48,
            "sphere": (6, 6),
            "deriv_truncation": (4, 4),
            "fk_truncation": (3, 4),  # 1169^2 pair-matrix cells
            "triples": 500,
            "triple_ball": (3, 3),
            "pair_ball": (3, 2),
            "deriv_tol": 1e-6,
            "fk_tol": 1e-5,
            "field_rel_tol": 1e-6,
            "point_rel_tol": 1e-2,
        },
        "general-product": {
            "cap": 7,                # 27 k elements, general path
            "n_max": 14,
            "order": 64,
            "horizon": 96,
            "kernel_order": 512,
            "h_ball": 64,
            "classify_kernel_order": 192,
            "classify_h_ball": 48,
            "automaton": (2, 4, 3),  # C, m, B
            "same_green_tol": 1e-6,
        },
    },
    "smoke": {
        "exact-returns": {
            "lazy_n": 10,
            "drift_n": 8,
            "fit_window": (4, 10),
            "alpha_band": (0.5, 2.5),
            "point_rel_tol": 1e-1,
        },
        "green-audit": {
            "cap": 6,
            "n_max": 12,
            "order": 16,
            "sphere": (3, 3),
            "deriv_truncation": (2, 2),
            "fk_truncation": (2, 2),
            "triples": 20,
            "triple_ball": (2, 2),
            "pair_ball": (2, 2),
            "deriv_tol": 1e-2,
            "fk_tol": 1e-1,
            "field_rel_tol": 1e-2,
            "point_rel_tol": 1e-1,
        },
        "general-product": {
            "cap": 4,
            "n_max": 8,
            "order": 16,
            "horizon": 16,
            "kernel_order": 32,
            "h_ball": 8,
            "classify_kernel_order": 32,
            "classify_h_ball": 8,
            "automaton": (1, 2, 2),
            "same_green_tol": 1e-2,
        },
    },
}

# The checks each workload reports, in order.  A child process that crashes
# counts every one of its checks as failed.
CHECKS = {
    "exact-returns": (
        "lazy_q_matches_first_passage_series",
        "drift_q_matches_first_passage_series",
        "lazy_fekete_upper_at_least_R",
        "drift_fekete_upper_at_least_R",
        "lazy_point_estimate_near_R",
        "lazy_llt_exponent_in_band",
    ),
    "green-audit": (
        "fekete_upper_at_least_R",
        "point_estimate_near_R",
        "field_G_ee_matches_series",
        "sphere_sums_finite_not_increasing",
        "derivative_identity_residual",
        "fk2_identity_residual",
        "fk3_identity_residual",
        "triangle_no_violations",
        "ratio_no_lower_bound_violations",
    ),
    "general-product": (
        "same_green_residuals",
        "kernel_radii_at_least_one",
        "equadiff_rows_finite",
        "automaton_verify_ok",
        "automaton_accepts_ball",
        "automaton_cone_types",
    ),
}

# Per-layer metrics of the traced run: name -> unit, as BENCHMARK.json lists
# them.  Layers a workload does not reach report 0.
LAYER_UNITS = {
    "engine.build_s": "s",
    "engine.elements": "count",
    "engine.build_us_per_elem": "us/elem",
    "engine.build_peak_bytes_per_elem": "B/elem",
    "engine.inverse_perm_s": "s",
    "engine.inverse_perm_calls": "count",
    "engine.dp_step_s": "s",
    "engine.dp_steps": "count",
    "engine.dp_states": "count",
    "engine.dp_edges": "count",
    "engine.pairing_s": "s",
    "engine.green_field_s": "s",
    "engine.green_field_calls": "count",
    "green.field_requests": "count",
    "green.field_hit_ratio": "ratio",
    "green.pair_matrix_s": "s",
    "green.pair_matrix_cells": "count",
    "green.spectral_radius_s": "s",
    "green.pruned_return_weights_s": "s",
    "measures.return_sequence_s": "s",
    "measures.table_requests": "count",
    "measures.table_hit_ratio": "ratio",
    "measures.dict_fallback_calls": "count",
    "engine.budget_exceeded": "count",
    "engine.absorbed_profile_s": "s",
    "parabolic.absorption_hit_ratio": "ratio",
    "parabolic.kernel_power_s": "s",
    "parabolic.kernel_power_calls": "count",
    "parabolic.classify_s": "s",
    "parabolic.equadiff_s": "s",
    "automaton.build_s": "s",
    "automaton.verify_s": "s",
    "automaton.cone_types": "count",
    "automaton.vertices": "count",
    "groups.multiply_calls": "count",
    "ancona.triangle_s": "s",
    "ancona.ratio_s": "s",
    "tauberian.fit_s": "s",
    "trace.overhead_frac": "ratio",
}

# Weights over the common denominator 8 for e, a, a^-1, b, b^-1.
DRIFT_MULTISET = (2, 2, 1, 2, 1)
DRIFT_KEYS = ("e", "a", "A", "b", "B")


def drift_weights(seed: int) -> dict[str, int]:
    """A non-symmetric permutation of the weights {2,2,1,2,1}/8."""
    options = sorted(
        p for p in set(itertools.permutations(DRIFT_MULTISET))
        if (p[1], p[3]) != (p[2], p[4])
    )
    return dict(zip(DRIFT_KEYS, random.Random(seed).choice(options)))


def jitter(seed: int, fractions, salt: str) -> list[float]:
    """Each r-fraction moved by a seed-chosen amount in [-0.02, 0.02]."""
    rng = random.Random(f"{seed}:{salt}")
    return [f + rng.uniform(-0.02, 0.02) for f in fractions]


def triple_seed(seed: int) -> int:
    return random.Random(f"{seed}:triples").randrange(2**31)
