"""Experiment driver: config ingestion, orchestration, artifact emission.

One command per process.  Every run writes a manifest (config hash,
version, budgets, resolved r values, wall time) next to its artifacts;
exit status 0 on success, 1 on a configuration, validation or any other
error, 2 when a memory budget was exhausted (partial results are still
written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .engine import TABLE_BYTES_PER_ELEMENT, BudgetExceededError
from .groups import FINITE_CYCLIC, FREE_ABELIAN, FactorSpec, FreeProduct
from .measures import Measure, default_radius, measure_from_pairs, return_sequence, validate
from . import green as green_mod
from . import parabolic as parabolic_mod
from . import ancona as ancona_mod
from . import automaton as automaton_mod
from . import tauberian as tauberian_mod

COMMANDS = (
    "validate", "radius", "green", "identities", "parabolic",
    "classify", "llt", "automaton", "ancona", "tauber",
)

DEFAULT_BUDGETS = {
    "n_max": 20,
    "series_order": 48,
    "truncation": [4, 3],
    "horizon": 48,
    "kernel_order": 256,
    "h_ball": 48,
    "depth": 4,
    "sphere_m": 6,
    "sphere_b": 6,
    "triples": 200,
    "sample_ball": [3, 3],
    "window": [10, 20],
    "automaton_c": 3,
    "automaton_mb": [4, 3],
    "memory_cap_mb": 4096,
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    for field in ("group", "measure"):
        if field not in cfg:
            raise ConfigError(f"{path}: missing required field {field!r}")
    return cfg


def build_group(cfg: dict) -> FreeProduct:
    factors = []
    for i, f in enumerate(cfg["group"], start=1):
        kind = f.get("kind")
        if kind == FREE_ABELIAN:
            factors.append(FactorSpec(kind, rank=int(f.get("rank", 1)),
                                      gens=tuple(f.get("gens", ()))))
        elif kind == FINITE_CYCLIC:
            factors.append(FactorSpec(kind, order=int(f.get("order", 0)),
                                      gens=tuple(f.get("gens", ()))))
        else:
            raise ConfigError(f"group[{i}]: unknown factor kind {kind!r}")
    try:
        return FreeProduct(factors)
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc


def build_measure(cfg: dict, group: FreeProduct, mode: str) -> Measure:
    pairs = []
    for i, entry in enumerate(cfg["measure"]):
        if len(entry) != 2:
            raise ConfigError(f"measure[{i}]: expected [element, weight] pair")
        elem, weight = entry
        try:
            pairs.append((group.parse(elem), Fraction(weight)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"measure[{i}] ({elem!r}, {weight!r}): {exc}") from exc
    try:
        return measure_from_pairs(group, pairs, mode)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc


def _budgets(cfg: dict, args) -> dict:
    given = cfg.get("budgets", {})
    unknown = sorted(set(given) - set(DEFAULT_BUDGETS) - {"radius"})
    if unknown:
        raise ConfigError(f"budgets: unknown key {', '.join(map(repr, unknown))}")
    budgets = dict(DEFAULT_BUDGETS)
    budgets.update(given)
    if args.n_max is not None:
        budgets["n_max"] = args.n_max
    if args.series_order is not None:
        budgets["series_order"] = args.series_order
    if args.truncation is not None:
        m, b = args.truncation.split(",")
        budgets["truncation"] = [int(m), int(b)]
    if args.memory_cap is not None:
        budgets["memory_cap_mb"] = args.memory_cap
    return budgets


def _r_fractions(cfg: dict, args) -> list[float]:
    grid = cfg.get("r_grid", {})
    if args.r_grid is not None:
        fractions = [float(x) for x in args.r_grid.split(",")]
    elif "fractions" in grid:
        fractions = [float(x) for x in grid["fractions"]]
    elif {"start", "stop", "count"} <= set(grid):
        n = int(grid["count"])
        step = (float(grid["stop"]) - float(grid["start"])) / max(n - 1, 1)
        fractions = [float(grid["start"]) + i * step for i in range(n)]
    else:
        fractions = [0.3, 0.6, 0.9]
    if not fractions:
        raise ConfigError("r_grid: needs at least one fraction of R")
    return fractions


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- command bodies -------------------------------------------------------------


def cmd_validate(ctx) -> dict:
    rep = validate(ctx["measure"], depth=ctx["budgets"]["depth"])
    out = {
        "symmetric": rep.symmetric,
        "aperiodic": rep.aperiodic,
        "period": rep.period,
        "checked_to": rep.checked_to,
        "admissible_to_depth": rep.admissible_to_depth,
        "support_radius": rep.support_radius,
    }
    _write_json(ctx["out"] / "report.json", out)
    return {}


def cmd_radius(ctx) -> dict:
    est = green_mod.spectral_radius(ctx["measure"], ctx["budgets"]["n_max"])
    _write_json(ctx["out"] / "radius.json", {
        "certified_upper": est.certified_upper,
        "point": est.point,
        "rho_point": est.rho_point,
        "n_max": est.n_max,
        "symmetric": est.symmetric,
    })
    _write_csv(ctx["out"] / "fekete.csv", ["n", "q2n_root"],
               [(n + 1, _fmt(v)) for n, v in enumerate(est.diagnostics)])
    return {"resolved_r": [est.point]}


def cmd_green(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    fractions = ctx["fractions"]
    order, radius = budgets["series_order"], budgets["radius"]
    est = green_mod.spectral_radius(measure, budgets["n_max"])
    qf = green_mod.pruned_return_weights(measure, order, radius)
    rows = []
    resolved = []
    for frac in fractions:
        r = frac * est.point
        resolved.append(r)
        g, g1, g2 = (green_mod.series_derivative(qf, r, j) for j in range(3))
        tail = qf[-1] * r ** order
        rows.append((_fmt(frac), _fmt(r), _fmt(g), _fmt(g1), _fmt(g2), _fmt(tail)))
    _write_csv(ctx["out"] / "green.csv",
               ["fraction", "r", "G", "G1", "G2", "last_term"], rows)
    # sphere-sum table at the largest grid point
    r_top = resolved[-1]
    tab = green_mod.sphere_sums(measure, r_top, budgets["sphere_m"],
                                budgets["sphere_b"], order, radius)
    _write_csv(ctx["out"] / "spheres.csv", ["m", "u_m"],
               [(m_, _fmt(v)) for m_, v in enumerate(tab.values)])
    return {"resolved_r": resolved}


def cmd_identities(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    m, B = budgets["truncation"]
    order, radius = budgets["series_order"], budgets["radius"]
    est = green_mod.spectral_radius(measure, budgets["n_max"])
    resolved = []
    out: dict = {"first_derivative": [], "iterated": []}
    for frac in ctx["fractions"]:
        r = frac * est.point
        resolved.append(r)
        rep = green_mod.derivative_identity_residual(measure, r, (m, B), order, radius)
        out["first_derivative"].append({
            "fraction": frac, "r": r, "left": rep.left, "right": rep.right,
            "residual": rep.residual,
        })
        for k in (2, 3):
            rep_k = green_mod.fk_identity_residual(measure, k, r, (m, B), order, radius)
            out["iterated"].append({
                "fraction": frac, "r": r, "k": k, "left": rep_k.left,
                "right": rep_k.right, "residual": rep_k.residual,
            })
    _write_json(ctx["out"] / "identities.json", out)
    return {"resolved_r": resolved}


def cmd_parabolic(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    order, radius = budgets["series_order"], budgets["radius"]
    horizon = budgets["horizon"]
    est = green_mod.spectral_radius(measure, budgets["n_max"])
    resolved = [frac * est.point for frac in ctx["fractions"]]
    report: dict = {"factors": []}
    group = measure.group
    for k in range(1, group.num_factors + 1):
        entry: dict = {"factor": k, "rows": []}
        for frac, r in zip(ctx["fractions"], resolved):
            kern = parabolic_mod.first_return_kernel(measure, k, r, horizon, radius)
            kr = parabolic_mod.kernel_radius(
                measure, k, r, budgets["kernel_order"], horizon, radius,
                budgets["h_ball"])
            same = parabolic_mod.same_green_residual(
                measure, k, r, order, radius, budgets["kernel_order"], horizon,
                budgets["h_ball"])
            entry["rows"].append({
                "fraction": frac, "r": r, "kernel_mass": kern.mass,
                "kernel_radius": _finite(kr.estimate),
                "mass_reciprocal": _finite(kr.mass_reciprocal),
                "same_green_residual": same["residual"],
            })
        # kernel at the spectral radius, exported as CSV pairs
        kern = parabolic_mod.first_return_kernel(measure, k, est.point, horizon, radius)
        rows = []
        for (h, hp), w in sorted(
            kern.entries(group, 2).items(),
            key=lambda kv: (kv[0][0].syllables, kv[0][1].syllables),
        ):
            if w > 0:
                rows.append((group.render(h), group.render(hp), _fmt(w)))
        _write_csv(ctx["out"] / f"kernel_{k}.csv", ["h", "h_prime", "weight"], rows)
        kr_top = parabolic_mod.kernel_radius(
            measure, k, est.point, budgets["kernel_order"], horizon, radius,
            budgets["h_ball"])
        entry["radius_at_spectral"] = _finite(kr_top.estimate)
        report["factors"].append(entry)
    _write_json(ctx["out"] / "parabolic.json", report)
    return {"resolved_r": resolved + [est.point]}


def cmd_classify(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    res = parabolic_mod.classify(
        measure, n_max=budgets["n_max"], order=budgets["series_order"],
        radius=budgets["radius"], horizon=budgets["horizon"],
        kernel_order=budgets["kernel_order"], h_ball=budgets["h_ball"],
    )
    doc = {
        "factors": [
            {
                "factor": f.factor,
                "kernel_radius": _finite(f.kernel_radius),
                "spectrally_degenerate": f.degenerate,
                "green_moments": {
                    "verdict": f.moments.verdict,
                    "ladder": list(f.moments.ladder),
                    "partial_sums": list(f.moments.partial_sums),
                    "increment_ratios": [_finite(x) for x in f.moments.increment_ratios],
                },
                "warnings": list(f.warnings),
            }
            for f in res.factors
        ],
        "divergent": res.divergent,
        "divergence_exponent": res.divergence_exponent,
        "divergence_grid": [[r, g] for r, g in res.divergence_grid],
        "spectrally_positive_recurrent": res.spectrally_positive_recurrent,
        "r_spectral": res.r_spectral,
        "warnings": list(res.warnings),
    }
    _write_json(ctx["out"] / "classification.json", doc)
    return {"resolved_r": [res.r_spectral]}


def cmd_llt(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    n_max = budgets["n_max"]
    seq = return_sequence(measure, n_max)
    rows = [(n, str(v) if seq.mode == "exact" else _fmt(v))
            for n, v in enumerate(seq.values)]
    _write_csv(ctx["out"] / "q.csv", ["n", "q_n"], rows)
    rep = validate(measure, depth=budgets["depth"])
    est = green_mod.spectral_radius(measure, n_max)
    lo, hi = budgets["window"]
    period = rep.period if rep.period > 1 else 1
    fit = tauberian_mod.fit_llt_exponent(
        tauberian_mod.SequenceSpec(tuple(float(v) for v in seq.values), "return sequence"),
        est.point, (lo, hi), period,
    )
    _write_json(ctx["out"] / "fit.json", {
        "alpha": fit.alpha,
        "window": list(fit.window),
        "period": period,
        "residual": fit.residual,
        "linear_trend": fit.linear_trend,
        "r_hat": fit.r_hat,
        "points": fit.points,
    })
    return {"resolved_r": [est.point]}


def cmd_automaton(ctx) -> dict:
    group, budgets = ctx["group"], ctx["budgets"]
    C = budgets["automaton_c"]
    m, B = budgets["automaton_mb"]
    auto = automaton_mod.canonical_automaton(group, C=C, m=m, B=B)
    report = automaton_mod.verify_structure(auto, m, B)
    doc = {
        "kind": auto.kind,
        "C": auto.C,
        "cone_types": len(auto.cone_types),
        "vertices": len(auto.vertices),
        "bundles": len(auto.bundles),
        "checks": report["checks"],
        "counts": report["counts"],
        "ok": report["ok"],
    }
    _write_json(ctx["out"] / "structure.json", doc)
    if ctx["args"].export_dot:
        (ctx["out"] / "automaton.dot").write_text(automaton_mod.export_dot(auto))
    lines = []
    for seq in auto.language(m, B):
        lines.append("\t".join(f"{fe.factor}:({','.join(map(str, fe.coords))})"
                               for fe in seq))
    (ctx["out"] / "language.txt").write_text("\n".join(lines) + "\n")
    return {}


def cmd_ancona(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    group = measure.group
    m, B = budgets["sample_ball"]
    order, radius = budgets["series_order"], budgets["radius"]
    est = green_mod.spectral_radius(measure, budgets["n_max"])
    rs = [frac * est.point for frac in ctx["fractions"]]
    triples = ancona_mod.sample_triples(group, m, B, budgets["triples"])
    tri = ancona_mod.triangle_audit(measure, triples, rs, order, radius,
                                    budgets["n_max"])
    pairs = ancona_mod.geodesic_pairs(group, min(m, 3), min(B, 2))
    ratios = ancona_mod.ratio_audit(measure, pairs, rs, order, radius,
                                    budgets["n_max"])
    rows = [
        (group.render(row.x), group.render(row.y), group.render(row.z),
         _fmt(row.r), _fmt(row.ratio))
        for row in ratios.rows
    ]
    _write_csv(ctx["out"] / "ancona.csv", ["x", "y", "z", "r", "ratio"], rows)
    _write_json(ctx["out"] / "summary.json", {
        "triangle": {
            "triples_checked": tri.triples_checked,
            "violations": tri.violations,
            "uninformative": tri.uninformative,
            "worst_signed_slack": tri.worst_signed_slack,
        },
        "ratios": {
            "count": len(ratios.rows),
            "overall_min": _finite(ratios.overall_min),
            "overall_max": _finite(ratios.overall_max),
            "lower_bound_violations": ratios.lower_bound_violations,
        },
    })
    return {"resolved_r": rs}


def cmd_tauber(ctx) -> dict:
    args = ctx["args"]
    doc: dict = {}
    if args.beta is not None and not args.input:
        raise ValueError("--beta is the exponent of the --input sequence; "
                         "without --input it has nothing to apply to")
    if args.input:
        with open(args.input, newline="") as fh:
            rows = [row for row in list(csv.reader(fh))[1:] if row]
        # n in the first column, the value (a float or an exact "p/q") in the second
        vals = sorted((int(row[0]), float(Fraction(row[1]))) for row in rows)
        bad = next((n for i, (n, _) in enumerate(vals) if n != i), None)
        if bad is not None:
            raise ValueError(f"{args.input}: the n column must run 0..N in steps of 1; "
                             f"first bad n = {bad}")
        seq = tauberian_mod.SequenceSpec(tuple(v for _, v in vals), args.input)
        beta = args.beta if args.beta is not None else 1.0
        n_top = len(seq) - 1
        rep = tauberian_mod.check_partial_sums_vs_laplace(
            seq, beta,
            [1 - 2.0 ** (-j) for j in range(2, 8)],
            [max(2, n_top // 2**j) for j in range(5, -1, -1)],
        )
        doc["input"] = {
            "beta": beta,
            "consistent": rep.consistent,
            "partial_spread": list(rep.partial_spread),
            "laplace_spread": list(rep.laplace_spread),
        }
    else:
        N = 3000
        s_grid = [1 - 2.0 ** (-j) for j in range(3, 9)]
        n_grid = [2**j for j in range(4, 11)]
        families = {
            "constant": (lambda k: 1.0, 1.0),
            "linear": (lambda k: k + 1.0, 2.0),
            "sqrt": (lambda k: math.sqrt(k + 1.0), 1.5),
        }
        for name, (fn, beta) in families.items():
            seq = tauberian_mod.SequenceSpec(tuple(fn(k) for k in range(N + 1)), name)
            rep = tauberian_mod.check_partial_sums_vs_laplace(seq, beta, s_grid, n_grid)
            doc[name] = {
                "beta": beta,
                "consistent": rep.consistent,
                "partial_spread": list(rep.partial_spread),
                "laplace_spread": list(rep.laplace_spread),
            }
        mono = {}
        for beta in (0.25, 0.5, 0.75):
            seq = tauberian_mod.SequenceSpec(
                tuple((k + 1.0) ** (beta - 2.0) for k in range(N + 1)), "power tail")
            rep = tauberian_mod.check_monotone_lemma(seq, beta)
            mono[str(beta)] = {
                "hypothesis_ok": rep.hypothesis_ok,
                "conclusion_bounded": rep.conclusion_bounded,
            }
        doc["monotone_lemma"] = mono
    _write_json(ctx["out"] / "tauber.json", doc)
    return {}


HANDLERS = {
    "validate": cmd_validate,
    "radius": cmd_radius,
    "green": cmd_green,
    "identities": cmd_identities,
    "parabolic": cmd_parabolic,
    "classify": cmd_classify,
    "llt": cmd_llt,
    "automaton": cmd_automaton,
    "ancona": cmd_ancona,
    "tauber": cmd_tauber,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="random-walk experiments on free products",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--truncation", default=None, metavar="m,B")
    parser.add_argument("--series-order", type=int, default=None)
    parser.add_argument("--r-grid", default=None, metavar="f1,f2,...")
    parser.add_argument("--memory-cap", type=int, default=None, metavar="MB",
                        help="ball-table budget: MB * 10^6 / TABLE_BYTES_PER_ELEMENT "
                             f"elements, {TABLE_BYTES_PER_ELEMENT} B being the measured peak "
                             "per element of a table build, which ends with its step "
                             "adjacency, and one float step; Green fields, pair matrices and "
                             "Python-int levels are not counted")
    arithmetic = parser.add_mutually_exclusive_group()
    arithmetic.add_argument("--exact", dest="arithmetic", action="store_const", const="exact",
                            help="exact rational arithmetic, whatever the config says")
    arithmetic.add_argument("--float", dest="arithmetic", action="store_const", const="float",
                            help="float arithmetic, whatever the config says")
    parser.add_argument("--out", default=None)
    parser.add_argument("--export-dot", action="store_true")
    parser.add_argument("--input", default=None,
                        help="tauber: CSV with n in the first column and the value in "
                             "the second after a header row, such as llt's q.csv")
    parser.add_argument("--beta", type=float, default=None,
                        help="tauber: the exponent of the --input sequence (default 1); "
                             "only with --input")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1
    t0 = time.monotonic()
    status = 0
    extra: dict = {}
    out_dir = None
    cfg_text = ""
    budgets: dict = {}
    try:
        cfg = load_config(args.config)
        target = Path(args.out if args.out is not None else cfg.get("out", "out"))
        target.mkdir(parents=True, exist_ok=True)
        out_dir = target
        cfg_text = json.dumps(cfg, sort_keys=True)
        mode = args.arithmetic or cfg.get("arithmetic", "exact")
        group = build_group(cfg)
        measure = build_measure(cfg, group, mode)
        budgets = _budgets(cfg, args)
        budgets.setdefault("radius", default_radius(measure, budgets["series_order"]))
        cap_mb = budgets.get("memory_cap_mb")
        if cap_mb is not None:
            measure.max_table_elements = int(cap_mb) * 1_000_000 // TABLE_BYTES_PER_ELEMENT
        ctx = {
            "args": args,
            "group": group,
            "measure": measure,
            "budgets": budgets,
            "fractions": _r_fractions(cfg, args),
            "out": out_dir,
        }
        extra = HANDLERS[args.command](ctx)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        status = 1
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        status = 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = 1
    if out_dir is not None:
        manifest = {
            "command": args.command,
            "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
            "version": __version__,
            "budgets": budgets,
            "resolved_r": extra.get("resolved_r", []),
            "wall_time_s": round(time.monotonic() - t0, 3),
            "exit_status": status,
            "partial": status == 2,
        }
        _write_json(out_dir / "manifest.json", manifest)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
